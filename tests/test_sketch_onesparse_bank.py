"""Tests for 1-sparse cells (one-cell banks) and the vectorised cell bank."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import MERSENNE31
from repro.sketch import CellBank, decode_cells


def _cell(source) -> CellBank:
    """One 1-sparse cell over ``[0, 100)``: a one-cell bank."""
    return CellBank(1, 100, source)


def _update(cell: CellBank, index: int, delta: int) -> None:
    cell.scatter(np.array([0]), np.array([index]), np.array([delta]))


def _is_zero(cell: CellBank) -> bool:
    return not (cell.phi.any() or cell.iota.any() or cell.fp1.any() or cell.fp2.any())


def _decode(cell: CellBank) -> tuple[int, int] | None:
    """``(index, value)`` if the cell is exactly 1-sparse, else ``None``."""
    ok, index, value = decode_cells(
        cell.phi, cell.iota, cell.fp1, cell.fp2, cell.domain, cell.z1, cell.z2
    )
    return (int(index[0]), int(value[0])) if ok[0] else None


class TestOneSparseCell:
    def test_single_item_decodes(self, source):
        cell = _cell(source.derive(1))
        _update(cell, 42, 7)
        assert _decode(cell) == (42, 7)

    def test_negative_value_decodes(self, source):
        cell = _cell(source.derive(2))
        _update(cell, 13, -4)
        assert _decode(cell) == (13, -4)

    def test_accumulated_updates(self, source):
        cell = _cell(source.derive(3))
        _update(cell, 8, 3)
        _update(cell, 8, 2)
        assert _decode(cell) == (8, 5)

    def test_cancellation_back_to_one_sparse(self, source):
        cell = _cell(source.derive(4))
        _update(cell, 8, 3)
        _update(cell, 9, 1)
        _update(cell, 9, -1)
        assert _decode(cell) == (8, 3)

    def test_empty_cell_fails(self, source):
        cell = _cell(source.derive(5))
        assert _is_zero(cell)
        assert _decode(cell) is None

    def test_two_items_detected(self, source):
        cell = _cell(source.derive(6))
        _update(cell, 3, 1)
        _update(cell, 90, 1)
        assert _decode(cell) is None

    def test_adversarial_phi_zero(self, source):
        """Two items whose values cancel in phi must not decode."""
        cell = _cell(source.derive(7))
        _update(cell, 10, 5)
        _update(cell, 20, -5)
        assert not _is_zero(cell)
        assert _decode(cell) is None

    def test_adversarial_integer_midpoint(self, source):
        """Two items with iota/phi integral still rejected by fingerprint."""
        cell = _cell(source.derive(8))
        _update(cell, 10, 1)
        _update(cell, 20, 1)  # iota/phi = 15, a valid-looking index
        assert _decode(cell) is None

    def test_merge_linearity(self, source):
        a = _cell(source.derive(10))
        b = _cell(source.derive(10))
        _update(a, 5, 2)
        _update(b, 5, -2)
        _update(b, 7, 1)
        a.merge(b)
        assert _decode(a) == (7, 1)

    def test_merge_seed_mismatch_rejected(self, source):
        a = _cell(source.derive(11))
        b = _cell(source.derive(12))
        with pytest.raises(ValueError):
            a.merge(b)


class TestCellBank:
    def test_scatter_and_decode(self, source):
        bank = CellBank(8, 1000, source.derive(20))
        bank.scatter(
            np.array([0, 1, 1, 5]),
            np.array([10, 20, 20, 999]),
            np.array([1, 2, -2, 7]),
        )
        ok, idx, val = decode_cells(
            bank.phi, bank.iota, bank.fp1, bank.fp2, 1000, bank.z1, bank.z2
        )
        assert ok[0] and idx[0] == 10 and val[0] == 1
        assert not ok[1]  # cancelled to zero
        assert ok[5] and idx[5] == 999 and val[5] == 7

    def test_decode_rejects_multi_item_cell(self, source):
        bank = CellBank(2, 1000, source.derive(21))
        bank.scatter(np.array([0, 0]), np.array([3, 4]), np.array([1, 1]))
        ok, _, _ = decode_cells(
            bank.phi, bank.iota, bank.fp1, bank.fp2, 1000, bank.z1, bank.z2
        )
        assert not ok[0]

    def test_fingerprints_stay_reduced(self, source):
        bank = CellBank(1, 10, source.derive(22))
        for _ in range(50):
            bank.scatter(np.array([0]), np.array([3]), np.array([10**6]))
        assert 0 <= bank.fp1[0] < MERSENNE31
        assert 0 <= bank.fp2[0] < MERSENNE31

    def test_merge_matches_combined_stream(self, source):
        a = CellBank(4, 100, source.derive(23))
        b = CellBank(4, 100, source.derive(23))
        c = CellBank(4, 100, source.derive(23))
        a.scatter(np.array([0, 1]), np.array([5, 6]), np.array([1, 2]))
        b.scatter(np.array([0, 2]), np.array([5, 7]), np.array([-1, 3]))
        c.scatter(
            np.array([0, 1, 0, 2]),
            np.array([5, 6, 5, 7]),
            np.array([1, 2, -1, 3]),
        )
        a.merge(b)
        assert (a.phi == c.phi).all()
        assert (a.iota == c.iota).all()
        assert (a.fp1 == c.fp1).all()
        assert (a.fp2 == c.fp2).all()

    def test_merge_shape_mismatch(self, source):
        a = CellBank(4, 100, source.derive(24))
        b = CellBank(5, 100, source.derive(24))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_summed_cells_cancel(self, source):
        bank = CellBank(4, 100, source.derive(25))
        # Two "instances" of 2 cells each; same item with opposite signs.
        bank.scatter(np.array([0, 2]), np.array([9, 9]), np.array([4, -4]))
        idx2d = np.array([[0, 1], [2, 3]])
        phi, iota, fp1, fp2 = bank.summed_cells(idx2d)
        assert (phi == 0).all() and (iota == 0).all()
        assert (fp1 == 0).all() and (fp2 == 0).all()

    def test_rejects_bad_shape(self, source):
        with pytest.raises(ValueError):
            CellBank(0, 10, source)
        with pytest.raises(ValueError):
            CellBank(10, 0, source)
