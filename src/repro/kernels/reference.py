"""Pure-numpy reference backend — the parity anchor for every kernel.

These implementations define the byte-exact contract of the kernel
registry: any alternative backend must reproduce their outputs bit for
bit (see ``docs/KERNELS.md``).  They are also heavily optimised in
their own right — the reference backend is what the benchmark gates in
``BENCH_ingest.json`` are measured against:

* fingerprint powers ``z^item`` come from the memoised windowed power
  tables of :func:`~repro.hashing.field.powmod_windowed` — one gather
  per 8-bit exponent window — computed per scatter entry or decode
  candidate, with no dedup sort;
* scatters use ``np.add.at`` — buffered no longer since numpy 2.0's
  indexed-loop fast path, it folds int64 contributions at memory
  speed with no sort;
* the Mersenne reduction of the fingerprint fields is deferred to one
  pass per kernel call, over the whole bank (blocked and in place) for
  large payloads or the touched cells, duplicates included, for small
  ones.  Both are exact: untouched cells already hold canonical
  residues, the reduction is idempotent, and every copy of a touched
  cell is reduced from the same raw sum, so the repeated writes of a
  fancy assignment all store the same canonical value;
* the forest scatter's ragged level expansion is replaced, for large
  payloads, by one radix sort of the (edge, family) pairs by deepest
  level — each level's participants become a *prefix* of the sorted
  pair arrays, so the per-level value columns are views and only the
  bucket hash is computed per expanded entry.

Exactness arguments used throughout (and relied on by callers):

* int64 addition is associative and commutative, so any regrouping or
  reordering of scatter contributions yields identical cell values;
* ``mod_mersenne31`` is canonical (``p`` maps to ``0``) and idempotent,
  so reducing a cell once at the end of a batch equals reducing it
  after every contribution — which also lets a contribution be any
  representative in ``[0, p]`` of its residue, such as ``p - c`` for
  the negation of ``c``;
* intermediate fingerprint sums stay below ``2^62`` (each contribution
  is ``<= p < 2^31`` and a scatter block is capped well below ``2^31``
  entries), the validity range of the two-fold reduction.
"""

from __future__ import annotations

import numpy as np

from ..hashing import MERSENNE31
from ..hashing.field import mulmod, powmod_windowed

__all__ = ["KERNELS"]

#: Name -> implementation for this backend (complete by definition).
KERNELS: dict = {}


def _kernel(fn):
    KERNELS[fn.__name__] = fn
    return fn


#: Elements per fold block — 128k int64 = 1 MiB, sized so one block
#: plus its single temporary stays cache-resident while the fold's
#: multiple passes run.
_FOLD_BLOCK = 1 << 17


def _fold_mersenne31_inplace(f: np.ndarray) -> None:
    """Reduce ``f`` (values in ``[0, 2p]``) mod ``p = 2^31 - 1`` in place.

    One Mersenne fold suffices up to ``2p`` — the range of a sum or
    difference-plus-modulus of two reduced fingerprints — and leaves at
    most ``p``, which the canonical ``p -> 0`` fix-up clears.  Produces
    exactly :func:`~repro.hashing.field.mod_mersenne31`'s residues with
    fewer passes and a single block-sized temporary.
    """
    tmp = f >> 31
    f &= MERSENNE31
    f += tmp
    f[f == MERSENNE31] = 0


def _reduce_mersenne31_inplace(f: np.ndarray) -> None:
    """Reduce ``f`` (values in ``[0, 2^62)``) mod ``p`` in place.

    The first fold maps ``x = a 2^31 + b`` (``a, b <= p``) to ``a + b
    <= 2p``, the input range of :func:`_fold_mersenne31_inplace`'s
    single fold, which this repeats into the same temporary.
    """
    tmp = f >> 31
    f &= MERSENNE31
    f += tmp
    np.right_shift(f, 31, out=tmp)
    f &= MERSENNE31
    f += tmp
    f[f == MERSENNE31] = 0


#: A fingerprint reduction covers the whole bank once its payload
#: names at least ``cells / _DENSE_RATIO`` entries, and only the
#: touched cells below that.  The break-even ratio grows with the bank,
#: since the touched path's random gathers miss cache sooner: measured
#: on a 2-vCPU x86 VM (numpy 2.4, default forest banks), about 3 at
#: n = 32 and 64 (21k and 57k cells), 3.7 at n = 128 (147k), 5.8 at
#: n = 256 (369k) and 10 at n = 512 (901k).  Over that sweep, 5 keeps
#: the chosen path within 1.55x of the faster one at every size, where
#: 8 would cost up to 2.3x (n = 128) and 4 up to 2.0x (n = 512).
_DENSE_RATIO = 5


def _reduce_bank_fp(fp1: np.ndarray, fp2: np.ndarray) -> None:
    """Reduce two whole fingerprint arrays in place, block by block."""
    for fp in (fp1, fp2):
        for start in range(0, fp.size, _FOLD_BLOCK):
            _reduce_mersenne31_inplace(fp[start:start + _FOLD_BLOCK])


def _reduce_fp(fp1: np.ndarray, fp2: np.ndarray, cell_arrays: list) -> None:
    """Canonically reduce fingerprint cells after raw accumulation.

    Every cell named in ``cell_arrays`` holds a sum of residues in
    ``[0, p]``; a scatter call feeds well under ``2^31`` entries, so
    the sums stay below ``2^62`` — the validity range of the two-fold
    reduction.  Payloads of at least ``cells / _DENSE_RATIO`` entries
    reduce the whole bank instead (:func:`_reduce_bank_fp`): reducing
    an untouched (canonical) cell is the identity.  Smaller ones gather
    the touched cells with their duplicates, reduce the copy and
    scatter it back: the copies of a cell all hold the same raw sum, so
    every write stores the same canonical value.  Both paths yield
    identical bytes.
    """
    total = sum(c.size for c in cell_arrays)
    if total * _DENSE_RATIO >= fp1.size:
        _reduce_bank_fp(fp1, fp2)
        return
    touched = (
        cell_arrays[0] if len(cell_arrays) == 1 else np.concatenate(cell_arrays)
    )
    for fp in (fp1, fp2):
        cells = fp[touched]
        _reduce_mersenne31_inplace(cells)
        fp[touched] = cells


def _scatter_add(
    phi: np.ndarray,
    iota: np.ndarray,
    fp1: np.ndarray,
    fp2: np.ndarray,
    cells: np.ndarray,
    vd: np.ndarray,
    vw: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
) -> None:
    """Fold per-entry contributions into the four field arrays.

    Unsorted ``np.add.at`` scatters per field (int64 addition commutes,
    so entry order is immaterial to the bytes), then one deferred
    fingerprint reduction over the touched cells.
    """
    np.add.at(phi, cells, vd)
    np.add.at(iota, cells, vw)
    np.add.at(fp1, cells, v1)
    np.add.at(fp2, cells, v2)
    _reduce_fp(fp1, fp2, [cells])


@_kernel
def scatter_multi(bank, cells_per_row, items, deltas):
    """Accumulate ``x[items] += deltas`` into a cell bank via row routings.

    ``bank`` is a :class:`~repro.sketch.bank.CellBank`; every array in
    ``cells_per_row`` routes the same ``(items, deltas)`` payload into
    one hash-table row, so the fingerprint contributions are computed
    once per entry and tiled across the rows.
    """
    items = np.asarray(items, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    if items.size == 0:
        return
    dmod = np.mod(deltas, MERSENNE31)
    c1 = mulmod(dmod, powmod_windowed(bank.z1, items))
    c2 = mulmod(dmod, powmod_windowed(bank.z2, items))
    weighted = items * deltas
    rows = [np.asarray(c, dtype=np.int64) for c in cells_per_row]
    r = len(rows)
    if r == 1:
        all_cells, vd, vw, v1, v2 = rows[0], deltas, weighted, c1, c2
    else:
        all_cells = np.concatenate(rows)
        vd = np.tile(deltas, r)
        vw = np.tile(weighted, r)
        v1 = np.tile(c1, r)
        v2 = np.tile(c2, r)
    _scatter_add(bank.phi, bank.iota, bank.fp1, bank.fp2, all_cells, vd, vw, v1, v2)


#: Expanded-entry budget below which ``forest_scatter`` uses the
#: ragged per-entry expansion; larger payloads switch to the per-level
#: prefix loop whose fixed cost (a few numpy calls per level and row)
#: only amortises on big batches.  Measured on a 2-vCPU x86 VM (numpy
#: 2.4): the ragged path is 5-30% faster up to about 90k entries at
#: n = 16, 128, 1024 and 4096, and 1.5-2x slower from 110k, where its
#: full-length temporaries stop fitting in cache.
_RAGGED_MAX = 1 << 16


@_kernel
def forest_scatter(bank, lo, hi, deltas, items):
    """Fused signed-incidence scatter for a spanning-forest sampler bank.

    ``bank`` is the forest's :class:`~repro.sketch.l0.L0SamplerBank`
    (one family per Borůvka round, one sampler per node).  Each
    canonical edge ``(lo, hi, delta)`` with pair rank ``item``
    contributes ``+delta`` to ``lo``'s sampler and ``-delta`` to
    ``hi``'s in **every** family, expanded over the item's
    participating subsampling levels ``0..top(item, family)`` and
    hashed into one bucket per row — the exact entry multiset of
    ``L0SamplerBank.update`` fed with the per-edge repeat expansion,
    produced without per-entry hash or power recomputation:

    * fingerprint powers: once per edge, by table lookup; the ``-delta``
      contribution is ``p - c`` for the ``+delta`` one's ``c``;
    * level hashes: once per (edge, family) instead of per expanded
      entry;
    * bucket hashes: once per (edge, family, level) entry, shared by
      the two signed endpoint rows.

    Small payloads expand the ragged level axis directly; large ones
    take :func:`_forest_scatter_levels`, which turns the expansion
    into nested prefixes of one radix sort.  Entry order differs
    between the two, but every contribution is an exact int64 (or
    deferred-canonical) sum, so the resulting bytes are identical.
    """
    items = np.asarray(items, dtype=np.int64)
    if items.size == 0:
        return
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    fam_count = bank.families
    samplers = bank.samplers
    lvl1 = bank.levels + 1
    rows = bank.rows
    buckets = bank.buckets
    bb = bank.bank
    # Fingerprint contributions per edge, for both endpoint signs.
    dmod = np.mod(deltas, MERSENNE31)
    c1p = mulmod(dmod, powmod_windowed(bb.z1, items))
    c2p = mulmod(dmod, powmod_windowed(bb.z2, items))
    c1n = MERSENNE31 - c1p
    c2n = MERSENNE31 - c2p
    weighted = items * deltas
    # Deepest participating level per (edge, family).
    fam = np.arange(fam_count, dtype=np.int64)
    top = np.asarray(
        bank._level_source.levels(items[:, None] * fam_count + fam, bank.levels),
        dtype=np.int64,
    )
    lengths = (top + 1).ravel()
    total = int(lengths.sum())
    if total * rows * 2 > _RAGGED_MAX:
        _forest_scatter_levels(
            bank, lo, hi, deltas, items, weighted, c1p, c1n, c2p, c2n, top, total
        )
        return
    # Ragged expansion over levels 0..top, edge-major with families inner.
    ef = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    e_idx = ef // fam_count
    f_idx = ef - e_idx * fam_count
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    lv = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    item_e = items[e_idx]
    # Cell addressing: one shared bucket per row for the two signed
    # endpoint samplers of each (edge, family, level) entry.
    base_lo = ((f_idx * samplers + lo[e_idx]) * lvl1 + lv) * rows
    base_hi = ((f_idx * samplers + hi[e_idx]) * lvl1 + lv) * rows
    bkey = ((item_e * fam_count + f_idx) * lvl1 + lv) * rows
    cell_rows = []
    for r in range(rows):
        bucket = np.asarray(
            bank._bucket_source.bucket(bkey + r, buckets), dtype=np.int64
        )
        cell_rows.append((base_lo + r) * buckets + bucket)
        cell_rows.append((base_hi + r) * buckets + bucket)
    all_cells = np.concatenate(cell_rows)
    d_e = deltas[e_idx]
    w_e = weighted[e_idx]
    vd = np.concatenate([d_e, -d_e] * rows)
    vw = np.concatenate([w_e, -w_e] * rows)
    v1 = np.concatenate([c1p[e_idx], c1n[e_idx]] * rows)
    v2 = np.concatenate([c2p[e_idx], c2n[e_idx]] * rows)
    _scatter_add(bb.phi, bb.iota, bb.fp1, bb.fp2, all_cells, vd, vw, v1, v2)


def _forest_scatter_levels(
    bank, lo, hi, deltas, items, weighted, c1p, c1n, c2p, c2n, top, total
):
    """Large-payload forest scatter: levels as prefixes of one sort.

    The (edge, family) pairs are radix-sorted once by deepest
    participating level, descending.  The pairs reaching level ``lv``
    are then exactly the first ``srv[lv]`` positions, so every
    per-level value column is a zero-copy prefix view and the only
    per-expanded-entry work left is the bucket hash, the cell index
    arithmetic, and the ``np.add.at`` folds.
    """
    fam_count = bank.families
    samplers = bank.samplers
    lvl1 = bank.levels + 1
    rows = bank.rows
    buckets = bank.buckets
    m = items.size
    shape = (m, fam_count)
    # 16-bit keys take numpy's radix-sort path; int64 would comparison-sort.
    key = (bank.levels - top).ravel().astype(np.int16)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(top.ravel(), minlength=lvl1)
    srv = np.cumsum(counts[::-1])[::-1]
    fam = np.arange(fam_count, dtype=np.int64)
    cb = rows * buckets
    sampler_base = fam[None, :] * samplers
    a_lo = ((sampler_base + lo[:, None]) * (lvl1 * cb)).ravel()[order]
    a_hi = ((sampler_base + hi[:, None]) * (lvl1 * cb)).ravel()[order]
    bkey = ((items[:, None] * fam_count + fam[None, :]) * (lvl1 * rows)).ravel()[order]
    sd = np.broadcast_to(deltas[:, None], shape).ravel()[order]
    sw = np.broadcast_to(weighted[:, None], shape).ravel()[order]
    s1p = np.broadcast_to(c1p[:, None], shape).ravel()[order]
    s1n = np.broadcast_to(c1n[:, None], shape).ravel()[order]
    s2p = np.broadcast_to(c2p[:, None], shape).ravel()[order]
    s2n = np.broadcast_to(c2n[:, None], shape).ravel()[order]
    snd = -sd
    snw = -sw
    bb = bank.bank
    phi, iota, fp1, fp2 = bb.phi, bb.iota, bb.fp1, bb.fp2
    bsrc = bank._bucket_source
    dense = total * rows * 2 * _DENSE_RATIO >= fp1.size
    touched: list = []
    for lv in range(lvl1):
        n = int(srv[lv])
        if n == 0:
            break
        for r in range(rows):
            bucket = np.asarray(
                bsrc.bucket(bkey[:n] + (lv * rows + r), buckets), dtype=np.int64
            )
            cl = a_lo[:n] + (lv * cb + r * buckets)
            cl += bucket
            ch = a_hi[:n] + (lv * cb + r * buckets)
            ch += bucket
            np.add.at(phi, cl, sd[:n])
            np.add.at(phi, ch, snd[:n])
            np.add.at(iota, cl, sw[:n])
            np.add.at(iota, ch, snw[:n])
            np.add.at(fp1, cl, s1p[:n])
            np.add.at(fp1, ch, s1n[:n])
            np.add.at(fp2, cl, s2p[:n])
            np.add.at(fp2, ch, s2n[:n])
            if not dense:
                touched.append(cl)
                touched.append(ch)
    if dense:
        _reduce_bank_fp(fp1, fp2)
    else:
        _reduce_fp(fp1, fp2, touched)


#: Sampler-block gather budget per decode slab — bounds the peak
#: ``members × cells_per_sampler`` gather matrix regardless of how many
#: components one Borůvka round decodes.
_DECODE_SLAB = 1 << 16


@_kernel
def decode_all(bank, family, member_starts, seg_offsets):
    """Batched one-sparse decode over per-component summed samplers.

    ``bank`` is an :class:`~repro.sketch.l0.L0SamplerBank`;
    ``member_starts`` holds the first cell of each member sampler's
    block (components concatenated), ``seg_offsets`` the ``C + 1``
    component boundaries.  For each component the member blocks are
    summed (the AGM supernode trick) and decoded with the same
    deepest-level / hash-tie-break / last-cell selection rule as
    ``L0SamplerBank._sample_from``.

    Returns ``(status, items, values)`` with status ``0`` = decoded,
    ``1`` = zero vector (w.h.p. no support), ``2`` = recovery failure.
    """
    cps = bank._cells_per_sampler
    count = seg_offsets.size - 1
    status = np.full(count, 2, dtype=np.int64)
    items_out = np.zeros(count, dtype=np.int64)
    values_out = np.zeros(count, dtype=np.int64)
    # Slab the component axis so the gather matrix stays bounded.
    per_slab = max(1, _DECODE_SLAB // max(cps, 1))
    first = 0
    while first < count:
        last = first
        members = 0
        while last < count:
            seg = int(seg_offsets[last + 1] - seg_offsets[last])
            if last > first and members + seg > per_slab:
                break
            members += seg
            last += 1
        _decode_slab(
            bank, family,
            member_starts[seg_offsets[first]:seg_offsets[last]],
            seg_offsets[first:last + 1] - seg_offsets[first],
            status[first:last], items_out[first:last], values_out[first:last],
        )
        first = last
    return status, items_out, values_out


def _decode_slab(bank, family, member_starts, seg_offsets, status, items_out,
                 values_out):
    """Decode one bounded slab of components in place."""
    bb = bank.bank
    cps = bank._cells_per_sampler
    idx = member_starts[:, None] + np.arange(cps, dtype=np.int64)[None, :]
    starts = seg_offsets[:-1]
    phi = np.add.reduceat(bb.phi[idx], starts, axis=0)
    iota = np.add.reduceat(bb.iota[idx], starts, axis=0)
    fp1 = np.add.reduceat(bb.fp1[idx], starts, axis=0)
    fp2 = np.add.reduceat(bb.fp2[idx], starts, axis=0)
    _reduce_mersenne31_inplace(fp1)
    _reduce_mersenne31_inplace(fp2)
    zero = ~((phi != 0) | (iota != 0) | (fp1 != 0) | (fp2 != 0)).any(axis=1)
    status[zero] = 1
    # Vectorised 1-sparse test; the fingerprint check then runs on the
    # candidate cells only, taken in row-major order like a mask.
    ok = phi != 0
    safe = np.where(ok, phi, 1)
    ok &= np.mod(iota, safe) == 0
    index = np.where(ok, iota // safe, 0)
    ok &= (index >= 0) & (index < bank.domain)
    comp_ids, cells = np.nonzero(ok)
    cand_idx = index[comp_ids, cells]
    cand_val = phi[comp_ids, cells]
    phimod = np.mod(cand_val, MERSENNE31)
    good = fp1[comp_ids, cells] == mulmod(
        phimod, powmod_windowed(bb.z1, cand_idx))
    good &= fp2[comp_ids, cells] == mulmod(
        phimod, powmod_windowed(bb.z2, cand_idx))
    comp_ids = comp_ids[good]
    if comp_ids.size == 0:
        return
    cand_idx = cand_idx[good]
    cand_val = cand_val[good]
    keys = cand_idx * bank.families + family
    cand_lv = np.asarray(bank._level_source.levels(keys, bank.levels), dtype=np.int64)
    tiebreak = np.asarray(bank._level_source.hash64(keys), dtype=np.uint64)
    # Per component: deepest level wins, ties by hash, then by last
    # cell position — exactly ``lexsort((tiebreak, level))[-1]`` of the
    # scalar path, batched via a component-major stable lexsort.
    order = np.lexsort((tiebreak, cand_lv, comp_ids))
    sorted_comps = comp_ids[order]
    present = np.unique(comp_ids)
    win = order[np.searchsorted(sorted_comps, present, side="right") - 1]
    status[present] = 0
    items_out[present] = cand_idx[win]
    values_out[present] = cand_val[win]


@_kernel
def arena_fold(buffer, other, cells, subtract):
    """Fold a same-layout raw buffer into an arena buffer in place.

    One in-place add/sub over the count half (``phi``/``iota``); a
    blocked in-place modular add/sub over the fingerprint half.
    """
    c2 = 2 * cells
    counts = buffer[:c2]
    fps = buffer[c2:]
    other_fps = other[c2:]
    if subtract:
        counts -= other[:c2]
    else:
        counts += other[:c2]
    for start in range(0, fps.size, _FOLD_BLOCK):
        f = fps[start:start + _FOLD_BLOCK]
        if subtract:
            f -= other_fps[start:start + _FOLD_BLOCK]
            f += MERSENNE31
        else:
            f += other_fps[start:start + _FOLD_BLOCK]
        _fold_mersenne31_inplace(f)


@_kernel
def arena_fold_sparse(buffer, cells, idx, values, subtract):
    """Fold a sparse ``(index, value)`` payload into an arena buffer.

    ``idx`` must be strictly increasing positions into the buffer (so
    indices are unique and fancy assignment is well-defined) and
    fingerprint values already reduced — both validated by the
    serialisation layer.  Cost is ``O(nnz)``, not ``O(cells)``.
    """
    c2 = 2 * cells
    split = int(np.searchsorted(idx, c2))
    if subtract:
        buffer[idx[:split]] -= values[:split]
        folded = buffer[idx[split:]] - values[split:] + MERSENNE31
    else:
        buffer[idx[:split]] += values[:split]
        folded = buffer[idx[split:]] + values[split:]
    _fold_mersenne31_inplace(folded)
    buffer[idx[split:]] = folded


@_kernel
def arena_negate(buffer, cells):
    """In-place negation of an arena buffer (sketch of ``-x``)."""
    c2 = 2 * cells
    counts = buffer[:c2]
    np.negative(counts, out=counts)
    fps = buffer[c2:]
    for start in range(0, fps.size, _FOLD_BLOCK):
        f = fps[start:start + _FOLD_BLOCK]
        np.subtract(MERSENNE31, f, out=f)
        _fold_mersenne31_inplace(f)


@_kernel
def level_route(top, levels):
    """Route batch entries into nested subsampling levels.

    ``top`` holds each entry's deepest surviving level.  Returns
    ``(order, survivors)``: ``order`` sorts entries by ``top``
    descending (stable), so the entries reaching level ``i`` are
    exactly the first ``survivors[i]`` positions of the sorted batch —
    the whole ``G_0 ⊇ G_1 ⊇ ...`` hierarchy becomes nested prefixes of
    one sort instead of one boolean mask + fancy-index copy per level.
    """
    top = np.asarray(top, dtype=np.int64)
    # Levels are O(log n) so the descending key fits int16, which takes
    # numpy's radix-sort path instead of a comparison sort.
    order = np.argsort((levels - top).astype(np.int16), kind="stable")
    counts = np.bincount(top, minlength=levels + 1)
    survivors = np.cumsum(counts[::-1])[::-1]
    return order, survivors
