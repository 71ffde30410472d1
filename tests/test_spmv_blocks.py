"""Differential tests for the row-blocked SpMV in :mod:`repro.r1cs.matrices`.

``SparseMatrix.matvec`` processes its non-zeros in row-aligned blocks of
``_BLOCK_NNZ`` entries.  These tests shrink the block to a handful of
entries so every boundary case shows up at toy sizes, and compare the
blocked products against a plain row-by-row Python-int reference.
"""

import tracemalloc

import numpy as np
import pytest

from repro.field.goldilocks import MODULUS
from repro.r1cs import SparseMatrix, matrices
from repro.r1cs.matrices import StackedMatrices

BLOCK = 7


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(matrices, "_BLOCK_NNZ", BLOCK)


def reference_matvec(m: SparseMatrix, x) -> list:
    """y = M x one row at a time with Python ints, reduced once per row."""
    rows = [[] for _ in range(m.num_rows)]
    for r, c, v in m.entries():
        rows[r].append((c, v))
    return [sum(v * int(x[c]) for c, v in row) % MODULUS for row in rows]


def reference_transpose(m: SparseMatrix, x) -> list:
    t = SparseMatrix.from_entries(m.num_cols, m.num_rows,
                                  [(c, r, v) for r, c, v in m.entries()])
    return reference_matvec(t, x)


def matrix_with_rows(lengths, num_cols, rng) -> SparseMatrix:
    """A matrix whose row i holds exactly ``lengths[i]`` non-zeros, with
    values drawn near the modulus half the time (stresses the exact
    split-accumulate)."""
    entries = []
    for r, n in enumerate(lengths):
        for c in rng.choice(num_cols, size=n, replace=False):
            v = int(rng.integers(1, 1 << 62))
            if rng.integers(2):
                v = MODULUS - v % 1000 - 1
            entries.append((r, int(c), v))
    return SparseMatrix.from_entries(len(lengths), num_cols, entries)


def vector(n, rng) -> np.ndarray:
    x = rng.integers(0, MODULUS, size=n, dtype=np.uint64)
    x[::3] = MODULUS - 1
    return x


def block_nnz(m: SparseMatrix) -> list:
    """Non-zeros per block, after checking the blocks tile the segments
    in order and each is within the budget or a single row."""
    _order, starts, _row_ids, blocks = m._group_plan()
    assert blocks[0][0] == 0 and blocks[-1][1] == len(starts) - 1
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = []
    for s0, s1 in blocks:
        n = int(starts[s1] - starts[s0])
        assert s1 > s0 and (n <= matrices._BLOCK_NNZ or s1 == s0 + 1)
        sizes.append(n)
    return sizes


@pytest.mark.usefixtures("small_blocks")
class TestBlockedMatvec:
    def test_block_boundary_inside_long_row(self, rng):
        # A nominal boundary at 7 non-zeros falls inside row 2, so the
        # first block stops before it.
        m = matrix_with_rows([3, 3, 5, 2, 6, 1], 16, rng)
        assert block_nnz(m) == [6, 7, 7]
        x = vector(16, rng)
        assert m.matvec(x).tolist() == reference_matvec(m, x)

    def test_row_longer_than_a_block(self, rng):
        m = matrix_with_rows([2, 20, 3, 9, 1], 32, rng)
        assert block_nnz(m) == [2, 20, 3, 9, 1]
        x = vector(32, rng)
        assert m.matvec(x).tolist() == reference_matvec(m, x)

    def test_empty_rows(self, rng):
        m = matrix_with_rows([0, 4, 0, 0, 5, 0, 3, 0, 8, 0], 12, rng)
        assert block_nnz(m) == [4, 5, 3, 8]
        x = vector(12, rng)
        y = m.matvec(x)
        assert y.tolist() == reference_matvec(m, x)
        assert not y[[0, 2, 3, 5, 7, 9]].any()

    def test_nnz_exact_multiple_of_block(self, rng):
        m = matrix_with_rows([7, 3, 4, 7], 10, rng)
        assert m.nnz == 3 * BLOCK
        assert block_nnz(m) == [7, 7, 7]
        x = vector(10, rng)
        assert m.matvec(x).tolist() == reference_matvec(m, x)

    def test_permuted_transposed_path(self, rng):
        m = matrix_with_rows([5, 0, 9, 2, 6, 4, 1, 8], 12, rng)
        x = vector(8, rng)
        y = m.transpose_matvec(x)
        order, _starts, _row_ids, blocks = m._transposed._group_plan()
        assert order is not None and len(blocks) > 1
        block_nnz(m._transposed)
        assert y.tolist() == reference_transpose(m, x)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_random_matrices_any_block_size(self, monkeypatch, rng, block):
        monkeypatch.setattr(matrices, "_BLOCK_NNZ", block)
        for _ in range(5):
            lengths = rng.integers(0, 12, size=24).tolist()
            m = matrix_with_rows(lengths, 16, rng)
            x, xt = vector(16, rng), vector(24, rng)
            assert m.matvec(x).tolist() == reference_matvec(m, x)
            assert m.transpose_matvec(xt).tolist() == \
                reference_transpose(m, xt)

    def test_stacked_matches_reference(self, rng):
        n = 16
        mats = [matrix_with_rows(rng.integers(0, 10, size=n).tolist(), n,
                                 rng) for _ in range(3)]
        stacked = StackedMatrices(mats)
        x = vector(n, rng)
        for got, m in zip(stacked.matvec_all(x), mats):
            assert got.tolist() == reference_matvec(m, x)
        coeffs = [int(c) for c in rng.integers(0, MODULUS, size=3,
                                               dtype=np.uint64)]
        want = [sum(c * t for c, t in zip(coeffs, col)) % MODULUS
                for col in zip(*(reference_transpose(m, x) for m in mats))]
        assert stacked.scaled_transpose_matvec(coeffs, x).tolist() == want


class TestBoundedMemory:
    #: Allowed transient bytes per block non-zero, beyond the outputs
    #: (the blocked matvec measures about 8 x 8 bytes).
    PER_BLOCK_BYTES = 16 * 8

    def test_spmv_peak_is_outputs_plus_blocks(self, monkeypatch):
        """R1CS.products and combined_transpose_matvec hold their outputs
        plus a fixed multiple of one block, not O(nnz) transients."""
        from repro.workloads import synthetic_r1cs

        block = 1 << 12
        monkeypatch.setattr(matrices, "_BLOCK_NNZ", block)
        r1cs, public, witness = synthetic_r1cs(16, band=16, seed=1)
        z = r1cs.assemble_z(public, witness)
        n = len(z)
        coeffs = [3, 5, 7]
        # The first calls build the cached stacked view and gather plans.
        r1cs.products(z)
        r1cs.combined_transpose_matvec(coeffs, z)
        slack = self.PER_BLOCK_BYTES * block
        assert r1cs.nnz * 8 > 4 * slack  # O(nnz) would not fit the bound
        calls = [
            # Three output vectors.
            (lambda: r1cs.products(z), 3 * n * 8),
            # The output, the three scaled input copies and one copy
            # being formed.
            (lambda: r1cs.combined_transpose_matvec(coeffs, z), 5 * n * 8),
        ]
        for call, outputs in calls:
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < outputs + slack, (peak, outputs, slack)
