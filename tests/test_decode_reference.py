"""``decode_all`` against an independent, cell-by-cell reference.

The Borůvka extraction of eight sketch kinds decodes every component's
summed sampler through the batched ``decode_all`` kernel
(``L0SamplerBank.sample_many``).  The reference below recomputes each
answer the slow way, one group at a time:

1. sum the member samplers' cell blocks (a repeated member counts
   once per repeat);
2. reduce the summed fingerprints mod ``p``;
3. decode the summed cells with ``decode_cells``;
4. pick the candidate with the deepest level, then the largest hash,
   then the last cell.

Banks mix real updates (insertions, deletions, and updates mirrored
onto a second sampler with the opposite sign, as an edge is) with
forged cells: valid one-sparse cells, the same with one fingerprint
off, cells naming an index outside the domain, and garbage with
canonical fingerprints.  So zero groups, groups that cancel to zero,
undecodable groups, and equal (level, hash) pairs decoded from several
cells with different values all occur.  The slab bound is drawn too, so one
round's components are split across several slabs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import MERSENNE31, HashSource
from repro.kernels import reference
from repro.sketch import L0SamplerBank
from repro.sketch.bank import decode_cells

DEFAULT_SLAB = reference._DECODE_SLAB


def _reference(bank: L0SamplerBank, family: int, groups) -> list:
    """``(status, item, value)`` per group, decoded one group at a time."""
    cps = bank._cells_per_sampler
    out = []
    for group in groups:
        fields = []
        for name in ("phi", "iota", "fp1", "fp2"):
            array = getattr(bank.bank, name)
            total = np.zeros(cps, dtype=np.int64)
            for member in group:
                start = (family * bank.samplers + member) * cps
                total = total + array[start:start + cps]
            fields.append(total)
        phi, iota, fp1, fp2 = fields
        fp1 = fp1 % MERSENNE31
        fp2 = fp2 % MERSENNE31
        if not (phi.any() or iota.any() or fp1.any() or fp2.any()):
            out.append((1, 0, 0))
            continue
        ok, index, value = decode_cells(
            phi, iota, fp1, fp2, bank.domain, bank.bank.z1, bank.bank.z2
        )
        best = None
        for cell in np.flatnonzero(ok):
            item = int(index[cell])
            key = item * bank.families + family
            rank = (
                int(bank._level_source.levels(key, bank.levels)),
                int(bank._level_source.hash64(key)),
            )
            if best is None or rank >= best[0]:
                best = (rank, item, int(value[cell]))
        out.append((2, 0, 0) if best is None else (0, best[1], best[2]))
    return out


def _forge(bank: L0SamplerBank, cell: int, kind: str, item: int, value: int,
           noise: tuple[int, int, int, int]) -> None:
    """Overwrite one cell: a one-sparse cell for ``(item, value)``
    (``item`` may lie outside the domain), the same with one fingerprint
    off by one, or canonical garbage."""
    cells = bank.bank
    if kind == "garbage":
        phi, iota, f1, f2 = noise
        f1 %= MERSENNE31
        f2 %= MERSENNE31
    else:
        phi, iota = value, item * value
        f1 = value % MERSENNE31 * pow(cells.z1, item % (MERSENNE31 - 1),
                                      MERSENNE31) % MERSENNE31
        f2 = value % MERSENNE31 * pow(cells.z2, item % (MERSENNE31 - 1),
                                      MERSENNE31) % MERSENNE31
        if kind == "fp1-off":
            f1 = (f1 + 1) % MERSENNE31
        elif kind == "fp2-off":
            f2 = (f2 + 1) % MERSENNE31
    cells.phi[cell], cells.iota[cell] = phi, iota
    cells.fp1[cell], cells.fp2[cell] = f1, f2


@st.composite
def decode_cases(draw):
    families = draw(st.integers(1, 3))
    samplers = draw(st.integers(1, 9))
    domain = draw(st.integers(2, 300))
    rows = draw(st.integers(1, 3))
    buckets = draw(st.integers(1, 4))
    bank = L0SamplerBank(families, samplers, domain,
                         HashSource(draw(st.integers(0, 2**64 - 1))),
                         rows=rows, buckets=buckets)
    if draw(st.booleans()):
        bank.arena  # noqa: B018 - adopt the bank into an arena buffer
    updates = draw(st.lists(
        st.tuples(st.integers(0, families - 1), st.integers(0, samplers - 1),
                  st.integers(0, domain - 1), st.integers(1, 3)),
        max_size=40,
    ))
    # An update is deleted again, or mirrored onto a second sampler
    # with the opposite sign, like the two endpoints of an edge: a
    # group holding both cancels it.
    fates = draw(st.lists(
        st.sampled_from(["kept", "deleted"]) | st.integers(0, samplers - 1),
        min_size=len(updates), max_size=len(updates),
    ))
    entries = list(updates) + [
        (f, s if fate == "deleted" else fate, i, -d)
        for (f, s, i, d), fate in zip(updates, fates) if fate != "kept"
    ]
    if entries:
        f, s, i, d = (np.array(col, dtype=np.int64) for col in zip(*entries))
        bank.update(f, s, i, d)
    cps = bank._cells_per_sampler
    for _ in range(draw(st.integers(0, 4))):
        # Up to three cells of one sampler block share an item, so one
        # sum can decode it from several cells with different values.
        block = draw(st.integers(0, families * samplers - 1)) * cps
        kind = draw(st.sampled_from(
            ["one-sparse", "fp1-off", "fp2-off", "garbage"]))
        item = draw(st.integers(0, min(domain - 1, 3)) | st.integers(0, domain - 1)
                    | st.sampled_from([-2, -1, domain, domain + 3]))
        for cell in draw(st.lists(st.integers(0, cps - 1), min_size=1, max_size=3)):
            _forge(bank, block + cell, kind, item,
                   draw(st.integers(-4, 4).filter(bool)),
                   draw(st.tuples(*[st.integers(-2**40, 2**40)] * 2,
                                  *[st.integers(0, 2**40)] * 2)))
    family = draw(st.integers(0, families - 1))
    shape = draw(st.sampled_from(["singles", "partition", "free"]))
    ids = list(range(samplers))
    if shape == "singles":
        groups = [[s] for s in draw(st.permutations(ids))]
    elif shape == "partition":
        labels = draw(st.lists(st.integers(0, samplers - 1),
                               min_size=samplers, max_size=samplers))
        groups = [[s for s in ids if labels[s] == c] for c in sorted(set(labels))]
    else:
        groups = draw(st.lists(
            st.lists(st.sampled_from(ids), min_size=1, max_size=4),
            min_size=1, max_size=8,
        ))
    slab = draw(st.sampled_from([None, 1, 2, 3, 5]))
    return bank, family, groups, slab


@settings(max_examples=150)
@given(case=decode_cases())
def test_decode_all_matches_the_reference(case, monkeypatch_module):
    bank, family, groups, slab = case
    monkeypatch_module.setattr(
        reference, "_DECODE_SLAB",
        DEFAULT_SLAB if slab is None else slab * bank._cells_per_sampler,
    )
    status, items, values = bank.sample_many(family, groups)
    got = list(zip(status.tolist(), items.tolist(), values.tolist()))
    assert got == _reference(bank, family, groups)


def test_the_reference_sees_every_status():
    """Zero, decoded and undecodable groups in one call, including a
    group whose members cancel to zero and a cell that names an index
    outside the domain with consistent fingerprints."""
    bank = L0SamplerBank(1, 6, 64, HashSource(3), rows=1, buckets=1)
    bank.update(np.zeros(4, dtype=np.int64), np.array([0, 1, 1, 4]),
                np.array([9, 9, 20, 20]), np.array([1, -1, 2, -2]))
    cps = bank._cells_per_sampler
    # Sampler 2 holds one cell that is nonzero but decodes no item, and
    # sampler 5 one that decodes index 64, outside the domain.
    _forge(bank, 2 * cps + 1, "garbage", 0, 1, (0, 0, 5, 0))
    _forge(bank, 5 * cps, "one-sparse", 64, 3, (0, 0, 0, 0))
    groups = [[3], [0, 1], [0], [2], [1, 0, 4], [5], [1, 0, 3]]
    status, items, values = bank.sample_many(0, groups)
    expected = _reference(bank, 0, groups)
    assert list(zip(status.tolist(), items.tolist(), values.tolist())) == expected
    assert [row[0] for row in expected] == [1, 0, 0, 2, 1, 2, 0]


@pytest.fixture(scope="module")
def monkeypatch_module():
    """A monkeypatch that hypothesis examples may share (module scope)."""
    with pytest.MonkeyPatch.context() as patch:
        yield patch
