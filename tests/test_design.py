"""Design operators: dense Gaussian and randomized-DFT, against dense oracles."""

import tracemalloc

import numpy as np
import pytest

from scsparc import design
from scsparc.design import build_dft_design, build_gaussian_design
from scsparc.message import random_message
from scsparc.params import CouplingParams, SparcParams, build_base_matrix, derive_code_params
from design_oracles import (
    reference_apply,
    reference_dft_blocks,
    reference_materialize,
    reference_scaled_adjoint,
)


def small_params(M=4, L=8, omega=2, Lambda=4, n=40, sigma2=0.1, P=1.0):
    base = build_base_matrix(CouplingParams(omega, Lambda), P)
    return SparcParams(n=n, M=M, L=L, base=base, P=P, sigma2=sigma2), base


def test_dense_block_structure():
    params, W = small_params()
    op = build_gaussian_design(params, W, seed=0)
    A = op.materialize()
    nr, nc = op.rows_per_block, op.cols_per_block
    for r in range(W.rows):
        for c in range(W.cols):
            blk = A[r * nr : (r + 1) * nr, c * nc : (c + 1) * nc]
            if W.entries[r, c] == 0.0:
                assert np.all(blk == 0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("rho", [0.0, 0.25])
def test_dense_draw_order(field, rho):
    # oracle: one generator draws the nonzero blocks in row-major order
    # omega=3: row-major and column-major block orders differ even at rho=0
    base = build_base_matrix(CouplingParams(3, 5, rho), 1.0)
    params = SparcParams(n=56, M=4, L=10, base=base, P=1.0, sigma2=0.1)
    op = build_gaussian_design(params, base, seed=11, field=field)
    rng = np.random.default_rng(11)
    nr, nc = op.rows_per_block, op.cols_per_block
    ref = np.zeros((op.n_rows, op.n_cols), dtype=float if field == "real" else complex)
    for r in range(base.rows):
        for c in range(base.cols):
            var = base.entries[r, c] / params.L
            if var == 0.0:
                continue
            if field == "real":
                blk = np.sqrt(var) * rng.standard_normal((nr, nc))
            else:
                blk = np.sqrt(var / 2.0) * (
                    rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
                )
            ref[r * nr : (r + 1) * nr, c * nc : (c + 1) * nc] = blk
    assert np.array_equal(op.materialize(), ref)


def test_dense_block_variance():
    # oracle: sample variance of a large block within 10% of W_rc/L
    base = build_base_matrix(CouplingParams(1, 1), 1.0)
    params = SparcParams(n=200, M=4, L=50, base=base, P=1.0, sigma2=0.1)
    op = build_gaussian_design(params, base, seed=3)
    A = op.materialize()
    assert A.shape == (200, 200)
    var = A.var()
    expected = base.entries[0, 0] / params.L
    assert abs(var - expected) / expected < 0.10


def test_apply_matches_dense_product():
    params, W = small_params()
    for seed in range(3):
        op = build_gaussian_design(params, W, seed=seed)
        A = op.materialize()
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            beta = rng.standard_normal(op.n_cols)
            ref = A @ beta
            got = op.apply(beta)
            assert np.linalg.norm(got - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)


def test_apply_zero_input():
    params, W = small_params()
    op = build_gaussian_design(params, W, seed=0)
    assert np.all(op.apply(np.zeros(op.n_cols)) == 0.0)
    assert np.all(op.apply_scaled_adjoint(np.ones((W.rows, W.cols)), np.zeros(op.n_rows)) == 0.0)


def test_scaled_adjoint_matches_dense():
    params, W = small_params()
    op = build_gaussian_design(params, W, seed=1)
    A = op.materialize()
    nr, nc = op.rows_per_block, op.cols_per_block
    rng = np.random.default_rng(7)
    S = rng.uniform(0.5, 2.0, size=(W.rows, W.cols))
    S_full = np.repeat(np.repeat(S, nr, axis=0), nc, axis=1)
    z = rng.standard_normal(op.n_rows)
    ref = (S_full * A).conj().T @ z
    got = op.apply_scaled_adjoint(S, z)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_power_constraint():
    # oracle: E||A beta||^2 = n*P, averaged over independent codewords
    params, W = small_params(n=200, L=16, M=8)
    total = 0.0
    for seed in range(100):
        op = build_gaussian_design(params, W, seed=seed)
        beta = random_message(params.M, params.L, seed=seed + 1000)
        total += np.sum(np.abs(op.apply(beta)) ** 2)
    avg = total / 100
    assert abs(avg - params.n * params.P) / (params.n * params.P) < 0.02


def test_dft_entry_magnitudes():
    # every entry of a nonzero block has |entry|^2 = W_rc/L exactly
    params, W = small_params(M=4, L=8, omega=2, Lambda=4, n=10)
    op = build_dft_design(params, W, seed=0)
    A = op.materialize()
    nr, nc = op.rows_per_block, op.cols_per_block
    for r in range(W.rows):
        for c in range(W.cols):
            blk = A[r * nr : (r + 1) * nr, c * nc : (c + 1) * nc]
            if W.entries[r, c] == 0.0:
                assert np.all(blk == 0.0)
            else:
                mag2 = np.abs(blk) ** 2
                assert np.allclose(mag2, W.entries[r, c] / params.L, atol=1e-12)


def test_dft_row_norms():
    params, W = small_params(M=4, L=8, omega=2, Lambda=4, n=10)
    op = build_dft_design(params, W, seed=2)
    A = op.materialize()
    nr, nc = op.rows_per_block, op.cols_per_block
    for r in range(W.rows):
        for c in range(W.cols):
            if W.entries[r, c] == 0.0:
                continue
            blk = A[r * nr : (r + 1) * nr, c * nc : (c + 1) * nc]
            norms = np.sum(np.abs(blk) ** 2, axis=1)
            assert np.allclose(norms, W.entries[r, c] * nc / params.L, atol=1e-10)


def test_dft_apply_and_adjoint_match_dense():
    params, W = small_params(M=4, L=8, omega=2, Lambda=4, n=10)
    op = build_dft_design(params, W, seed=4)
    A = op.materialize()
    rng = np.random.default_rng(0)
    for _ in range(10):
        beta = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
        ref = A @ beta
        got = op.apply(beta)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    S = rng.uniform(0.5, 2.0, size=(W.rows, W.cols))
    nr, nc = op.rows_per_block, op.cols_per_block
    S_full = np.repeat(np.repeat(S, nr, axis=0), nc, axis=1)
    z = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    ref = (S_full * A).conj().T @ z
    got = op.apply_scaled_adjoint(S, z)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_adjoint_inner_product_identity():
    # <A beta, z> == <beta, A* z> for both operator kinds
    params, W = small_params(M=4, L=8, omega=2, Lambda=4, n=40)
    ones = np.ones((W.rows, W.cols))
    rng = np.random.default_rng(9)
    for op in (
        build_gaussian_design(params, W, seed=5),
        build_gaussian_design(params, W, seed=5, field="complex"),
        build_dft_design(small_params(n=10)[0], W, seed=5),
    ):
        beta = rng.standard_normal(op.n_cols) + (
            1j * rng.standard_normal(op.n_cols) if op.field == "complex" else 0.0
        )
        z = rng.standard_normal(op.n_rows) + (
            1j * rng.standard_normal(op.n_rows) if op.field == "complex" else 0.0
        )
        lhs = np.vdot(z, op.apply(beta))
        rhs = np.vdot(op.apply_scaled_adjoint(ones, z), beta)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_dft_determinism():
    params, W = small_params(M=4, L=8, omega=2, Lambda=4, n=10)
    a = build_dft_design(params, W, seed=6).materialize()
    b = build_dft_design(params, W, seed=6).materialize()
    assert np.array_equal(a, b)
    c = build_dft_design(params, W, seed=7).materialize()
    assert not np.array_equal(a, c)


def test_design_validation():
    params, W = small_params()
    with pytest.raises(ValueError):
        build_gaussian_design(params, W, seed=0, field="ternary")
    # the 8 nonzero blocks of this shape hold 2^34 bytes, above MEMORY_CAP;
    # the check must fire before any block is drawn
    huge = SparcParams(n=5 * 2**14, M=2**6, L=2**10, base=W, P=1.0, sigma2=0.1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            build_gaussian_design(huge, W, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    op = build_gaussian_design(params, W, seed=0)
    with pytest.raises(ValueError):
        op.apply(np.zeros(3))
    with pytest.raises(ValueError):
        op.apply_scaled_adjoint(np.zeros((W.rows, W.cols)), np.zeros(op.n_rows))


def test_dense_memory_check_counts_nonzero_blocks(monkeypatch):
    # 8 of the 20 blocks of W are nonzero, 8 x 8 doubles each
    params, W = small_params()
    nbytes = 8 * 8 * 8 * 8
    monkeypatch.setattr(design, "MEMORY_CAP", nbytes)
    build_gaussian_design(params, W, seed=0)
    monkeypatch.setattr(design, "MEMORY_CAP", nbytes - 1)
    with pytest.raises(MemoryError):
        build_gaussian_design(params, W, seed=0)


# (omega, Lambda, rho) -> nonzero blocks: one block, one to five blocks
# per column. With 6 rows per block and N = 16 one row draw covers 2
# blocks, so a column takes up to MOST_DRAWS draws (the 3-block columns of
# (3, 5, 0) take 2, the 5-block columns of (2, 4, 0.25) take 3).
DFT_SHAPES = {(1, 1, 0.0): 1, (2, 3, 0.0): 6, (2, 4, 0.0): 8, (3, 5, 0.0): 15, (2, 4, 0.25): 20}
MOST_DRAWS = {(1, 1, 0.0): 1, (2, 3, 0.0): 1, (2, 4, 0.0): 1, (3, 5, 0.0): 2, (2, 4, 0.25): 3}


def dft_params(omega, Lambda, rho, M=4, rows_per_block=6):
    # cols per block M * L / Lambda = 16
    base = build_base_matrix(CouplingParams(omega, Lambda, rho), 1.0)
    n = 2 * rows_per_block * base.rows
    return SparcParams(n=n, M=M, L=4 * Lambda, base=base, P=1.0, sigma2=0.1), base


def offline_sweep_params():
    # M=128, L=1024, omega=6, Lambda=32, 1.5 bits: 192 blocks of 4096 columns
    params = derive_code_params(
        1.5 * np.log(2), 128, CouplingParams(6, 32), 1024, 1.0, 0.1, even=True
    )
    return params, params.base


# the DFT shapes and the offline_sweep benchmark's operator -> nonzero blocks
ORACLE_SHAPES = {**DFT_SHAPES, "offline_sweep": 192}


@pytest.mark.parametrize("shape", list(DFT_SHAPES), ids=lambda s: f"{DFT_SHAPES[s]}blocks")
def test_dft_blocks_of_a_column_share_one_randomization(shape):
    params, W = dft_params(*shape)
    op = build_dft_design(params, W, seed=5)
    nr, per_draw = op.rows_per_block, op.cols_per_block // op.rows_per_block
    most_draws = 0
    for c in range(W.cols):
        col = [block for (_, cc), block in op._blocks.items() if cc == c]
        _, perm, phases = col[0]
        for rows, p, ph in col:
            # views of the column's one stored row
            assert np.shares_memory(p, perm) and np.array_equal(p, perm)
            assert np.shares_memory(ph, phases) and np.array_equal(ph, phases)
            assert len(np.unique(rows)) == nr
        draws = [col[i : i + per_draw] for i in range(0, len(col), per_draw)]
        for draw in draws:
            rows = np.concatenate([block[0] for block in draw])
            assert len(np.unique(rows)) == len(rows)
        most_draws = max(most_draws, len(draws))
    assert most_draws == MOST_DRAWS[shape]


@pytest.mark.parametrize("shape", list(ORACLE_SHAPES), ids=lambda s: f"{ORACLE_SHAPES[s]}blocks")
def test_dft_products_match_per_block_oracle(shape):
    params, W = offline_sweep_params() if shape == "offline_sweep" else dft_params(*shape)
    rng = np.random.default_rng(ORACLE_SHAPES[shape])
    for seed in range(3):
        op = build_dft_design(params, W, seed=seed)
        assert len(op._blocks) == ORACLE_SHAPES[shape]
        for beta in (
            rng.standard_normal(op.n_cols),
            rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols),
        ):
            assert np.array_equal(op.apply(beta), reference_apply(op, beta))
        S = rng.uniform(0.1, 3.0, size=(W.rows, W.cols))
        z = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
        ref = reference_scaled_adjoint(op, S, z)
        got = op.apply_scaled_adjoint(S, z)
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", list(DFT_SHAPES), ids=lambda s: f"{DFT_SHAPES[s]}blocks")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dft_draws_match_per_block_oracle(shape, seed):
    params, W = dft_params(*shape)
    op = build_dft_design(params, W, seed=seed)
    ref = reference_dft_blocks(params, W, seed)
    assert list(op._blocks) == list(ref)
    for key, block in op._blocks.items():
        # views into the stored arrays, equal to the per-column draws
        for got, want, stacked in zip(block, ref[key], (op._rows, op._perm, op._phases)):
            assert np.shares_memory(got, stacked)
            assert np.array_equal(got, want)
    assert np.array_equal(op.materialize(), reference_materialize(params, W, ref))


class ConjugatedPhases(design.DftDesign):
    """A faulty operator: its adjoint reads phase-conjugated block copies
    through a rebound `_blocks`."""

    def apply_scaled_adjoint(self, S, z):
        saved = self._blocks
        self._blocks = {k: (rows, perm, ph.conj()) for k, (rows, perm, ph) in saved.items()}
        try:
            return super().apply_scaled_adjoint(S, z)
        finally:
            self._blocks = saved


def test_dft_products_read_a_rebound_block_dict():
    params, W = dft_params(3, 5, 0.0)
    ones = np.ones((W.rows, W.cols))
    rng = np.random.default_rng(3)
    gaps = []
    for cls in (design.DftDesign, ConjugatedPhases):
        op = cls(params, W, 4)
        beta = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
        z = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
        ax = op.apply(beta)
        gap = abs(np.vdot(z, ax) - np.vdot(op.apply_scaled_adjoint(ones, z), beta))
        gaps.append(gap / (np.linalg.norm(ax) * np.linalg.norm(z)))
    assert gaps[0] < 1e-9
    assert gaps[1] > 1e-3


@pytest.mark.parametrize("shape", [(3, 5, 0.0), (2, 4, 0.25)], ids=lambda s: f"{DFT_SHAPES[s]}blocks")
def test_dft_products_follow_a_rebound_and_restored_block_dict(shape):
    # the products read each column's permutation and phases from `_blocks`
    params, W = dft_params(*shape)
    rng = np.random.default_rng(8)
    op = build_dft_design(params, W, seed=2)
    beta = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
    z = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    S = rng.uniform(0.1, 3.0, size=(W.rows, W.cols))
    plain = op.apply(beta), op.apply_scaled_adjoint(S, z)
    saved = op._blocks
    op._blocks = {k: (rows, perm, ph.conj()) for k, (rows, perm, ph) in saved.items()}
    flipped = op.apply(beta), op.apply_scaled_adjoint(S, z)
    assert np.array_equal(flipped[0], reference_apply(op, beta))
    ref = reference_scaled_adjoint(op, S, z)
    assert np.linalg.norm(flipped[1] - ref) <= 1e-15 * np.linalg.norm(ref)
    assert not np.allclose(flipped[0], plain[0])
    assert not np.allclose(flipped[1], plain[1])
    op._blocks = saved
    assert np.array_equal(op.apply(beta), plain[0])
    assert np.array_equal(op.apply_scaled_adjoint(S, z), plain[1])


@pytest.mark.parametrize("shape", list(DFT_SHAPES), ids=lambda s: f"{DFT_SHAPES[s]}blocks")
def test_dft_products_are_repeatable(shape):
    # nothing of one call (buffers, cached block index) leaks into the next
    params, W = dft_params(*shape)
    rng = np.random.default_rng(9)
    op = build_dft_design(params, W, seed=1)
    a, b = rng.standard_normal((2, op.n_cols))
    first = op.apply(a)
    op.apply(b)
    assert np.array_equal(op.apply(a), first)
    za, zb = rng.standard_normal((2, op.n_rows)) + 1j * rng.standard_normal((2, op.n_rows))
    Sa, Sb = rng.uniform(0.1, 3.0, size=(2, W.rows, W.cols))
    first = op.apply_scaled_adjoint(Sa, za)
    op.apply_scaled_adjoint(Sb, zb)
    assert np.array_equal(op.apply_scaled_adjoint(Sa, za), first)


def test_dft_memory_at_offline_sweep_size():
    params, W = offline_sweep_params()
    # numpy 2 imports numpy.random on first use; keep that import out of
    # the constructor's peak
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        op = build_dft_design(params, W, seed=1)
        _, build_peak = tracemalloc.get_traced_memory()
        stored = op._rows.nbytes + op._perm.nbytes + op._phases.nbytes
        beta = rng.standard_normal(op.n_cols)
        z = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
        S = np.ones((W.rows, W.cols))
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out_a = op.apply(beta)
        out_h = op.apply_scaled_adjoint(S, z)
        _, product_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(op._blocks) == 192
    assert build_peak <= 1.1 * stored
    assert product_peak - before - out_a.nbytes - out_h.nbytes <= 4 * 2**20
