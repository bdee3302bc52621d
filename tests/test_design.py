"""Design operators: dense Gaussian and randomized-DFT, against dense oracles."""

import tracemalloc

import numpy as np
import pytest

from scsparc import design
from scsparc.cs_amp import CsModel, bernoulli_gauss_prior, build_cs_base_matrix, cs_design_matrix
from scsparc.design import build_dft_design, build_gaussian_design
from scsparc.message import random_message
from scsparc.params import (
    BaseMatrix,
    CouplingParams,
    SparcParams,
    build_base_matrix,
    derive_code_params,
)
from design_oracles import (
    dense_form,
    reference_apply,
    reference_dense_row_mats,
    reference_dft_blocks,
    reference_scaled_adjoint,
)


def small_params(M=4, L=8, omega=2, Lambda=4, n=40, sigma2=0.1):
    base = build_base_matrix(CouplingParams(omega, Lambda))
    return SparcParams(n=n, M=M, L=L, base=base, sigma2=sigma2), base


def test_dense_block_structure():
    params, W = small_params()
    op = build_gaussian_design(params, W, seed=0)
    A = dense_form(op)
    nr, nc = op.rows_per_block, op.cols_per_block
    for r in range(W.rows):
        for c in range(W.cols):
            blk = A[r * nr : (r + 1) * nr, c * nc : (c + 1) * nc]
            if W.entries[r, c] == 0.0:
                assert np.all(blk == 0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("rho", [0.0, 0.25])
def test_dense_draw_order(field, rho):
    # oracle: row block r is one whole draw from child r of the seed;
    # rho=0.25 fills every block, so row blocks differ in width at rho=0 only
    base = build_base_matrix(CouplingParams(3, 5, rho))
    params = SparcParams(n=56, M=4, L=10, base=base, sigma2=0.1)
    op = build_gaussian_design(params, base, seed=11, field=field)
    ref = reference_dense_row_mats(params, base, 11, field)
    assert len(op._row_mats) == len(ref) == base.rows
    for got, want in zip(op._row_mats, ref):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_draw_pool_threads(monkeypatch):
    # a design of 4 MiB or more is drawn on min(usable CPUs, row blocks)
    # threads: the calling thread and a pool of the others
    made = []

    class Pool(design.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(design, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(design, "_usable_cpus", lambda: 3)
    base = build_base_matrix(CouplingParams(2, 4))
    build_gaussian_design(SparcParams(n=40, M=4, L=8, base=base, sigma2=0.1), base, seed=0)
    # 8 nonzero blocks of 8 x 4096 and of 8 x 8192 doubles: 2 and 4 MiB
    half = SparcParams(n=40, M=2**8, L=2**6, base=base, sigma2=0.1)
    large = SparcParams(n=40, M=2**9, L=2**6, base=base, sigma2=0.1)
    build_gaussian_design(half, base, seed=0)
    assert made == []
    build_gaussian_design(large, base, seed=0)
    assert made == [2]
    monkeypatch.setattr(design, "_usable_cpus", lambda: 64)
    build_gaussian_design(large, base, seed=0)
    assert made == [2, 4]


def thread_count_designs():
    """Dense real, dense complex and CS designs; the dense ones have a row
    block that stores no block."""
    W = BaseMatrix(np.array([[1.5, 1.5, 0.0], [1.5, 0.0, 1.5], [0.0, 0.0, 0.0]]))
    params = SparcParams(n=96, M=4, L=12, base=W, sigma2=0.1)
    Wcs = build_cs_base_matrix(CouplingParams(3, 8, 0.1))
    model = CsModel(W=Wcs, p=400, n=200, sigma2=0.01, prior=bernoulli_gauss_prior(0.1, 1.0))
    return [
        lambda: build_gaussian_design(params, W, seed=4)._row_mats,
        lambda: build_gaussian_design(params, W, seed=4, field="complex")._row_mats,
        lambda: [cs_design_matrix(model, seed=4)],
    ]


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["dense-real", "dense-complex", "cs"])
def test_draws_do_not_depend_on_the_thread_count(monkeypatch, kind):
    build = thread_count_designs()[kind]
    monkeypatch.setattr(design, "_usable_cpus", lambda: 1)
    inline = build()
    monkeypatch.setattr(design, "_POOL_MIN_BYTES", 0)
    for threads in (2, 3):
        monkeypatch.setattr(design, "_usable_cpus", lambda: threads)
        for chunk in (1, 2**20):  # one row per chunk, and whole row blocks
            monkeypatch.setattr(design, "_CHUNK_BYTES", chunk)
            for got, want in zip(build(), inline, strict=True):
                assert np.array_equal(got, want)


def gaussian_design_blocks(kind):
    """The blocks of a dense real design (every nonzero block) or a CS
    matrix (every block), each as a (row block, block, variance) triple,
    with a few 1e5 entries in all."""
    if kind == "dense-real":
        base = build_base_matrix(CouplingParams(3, 5))
        params = SparcParams(n=980, M=4, L=200, base=base, sigma2=0.1)
        op = build_gaussian_design(params, base, seed=21)
        nr, nc = op.rows_per_block, op.cols_per_block
        return [
            (r, mat[:, j * nc : (j + 1) * nc], base.entries[r, c] / params.L)
            for r, (cols, mat) in enumerate(zip(op._row_cols, op._row_mats))
            for j, c in enumerate(cols)
        ]
    Wcs = build_cs_base_matrix(CouplingParams(3, 8, 0.25))
    model = CsModel(W=Wcs, p=1600, n=150, sigma2=0.01, prior=bernoulli_gauss_prior(0.1, 1.0))
    A = cs_design_matrix(model, seed=21)
    mr, mc = model.rows_per_block, model.cols_per_block
    return [
        (r, A[r * mr : (r + 1) * mr, c * mc : (c + 1) * mc], Wcs[r, c] / mr)
        for r in range(model.rows)
        for c in range(model.cols)
    ]


@pytest.mark.parametrize("kind", ["dense-real", "cs"])
def test_gaussian_design_streams_are_independent(kind):
    # every block is centred with its variance, and the child streams of
    # two row blocks are uncorrelated, each within 4 standard errors
    blocks = gaussian_design_blocks(kind)
    assert sum(blk.size for _, blk, _ in blocks) > 2e5
    for _, blk, var in blocks:
        n = blk.size
        assert abs(blk.mean()) < 4 * np.sqrt(var / n)
        assert abs(blk.var() - var) < 4 * var * np.sqrt(2 / (n - 1))
    # each row block's draws, every block scaled back to unit variance
    streams = {}
    for r, blk, var in blocks:
        streams.setdefault(r, []).append((blk / np.sqrt(var)).reshape(-1))
    streams = [np.concatenate(parts) for parts in streams.values()]
    length = min(len(s) for s in streams)
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            corr = np.corrcoef(streams[i][:length], streams[j][:length])[0, 1]
            assert abs(corr) < 4 / np.sqrt(length)


def test_a_reused_seed_object_gives_the_same_design():
    # a builder must not spawn from the caller's SeedSequence, which would
    # move its spawn counter and so the next design drawn from it
    params, W = small_params()
    dft, Wd = dft_params(2, 4, 0.25)
    Wcs = build_cs_base_matrix(CouplingParams(3, 8, 0.1))
    model = CsModel(W=Wcs, p=400, n=200, sigma2=0.01, prior=bernoulli_gauss_prior(0.1, 1.0))

    def dft_draws(s):
        op = build_dft_design(dft, Wd, s)
        return [op._rows, op._perm, op._phases]

    builds = [
        lambda s: build_gaussian_design(params, W, s)._row_mats,
        lambda s: build_gaussian_design(params, W, s, field="complex")._row_mats,
        dft_draws,
        lambda s: [cs_design_matrix(model, s)],
    ]
    for build in builds:
        seed = np.random.SeedSequence(5)
        first, second = build(seed), build(seed)
        # a fresh root with this entropy draws the design an int seed does
        for a, b, c in zip(first, second, build(5), strict=True):
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_dense_block_variance():
    # oracle: sample variance of a large block within 10% of W_rc/L
    base = build_base_matrix(CouplingParams(1, 1))
    params = SparcParams(n=200, M=4, L=50, base=base, sigma2=0.1)
    op = build_gaussian_design(params, base, seed=3)
    A = dense_form(op)
    assert A.shape == (200, 200)
    var = A.var()
    expected = base.entries[0, 0] / params.L
    assert abs(var - expected) / expected < 0.10


def test_apply_matches_dense_product():
    params, W = small_params()
    for seed in range(3):
        op = build_gaussian_design(params, W, seed=seed)
        A = dense_form(op)
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
    A = dense_form(op)
    nr, nc = op.rows_per_block, op.cols_per_block
    rng = np.random.default_rng(7)
    S = rng.uniform(0.5, 2.0, size=(W.rows, W.cols))
    S_full = np.repeat(np.repeat(S, nr, axis=0), nc, axis=1)
    z = rng.standard_normal(op.n_rows)
    ref = (S_full * A).conj().T @ z
    got = op.apply_scaled_adjoint(S, z)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_power_constraint():
    # oracle: E||A beta||^2 = n at unit power, averaged over independent codewords
    params, W = small_params(n=200, L=16, M=8)
    total = 0.0
    for seed in range(100):
        op = build_gaussian_design(params, W, seed=seed)
        beta = random_message(params.M, params.L, seed=seed + 1000)
        total += np.sum(np.abs(op.apply(beta)) ** 2)
    avg = total / 100
    assert abs(avg - params.n) / params.n < 0.02


def test_dft_entry_magnitudes():
    # every entry of a nonzero block has |entry|^2 = W_rc/L exactly
    params, W = small_params(M=4, L=8, omega=2, Lambda=4, n=10)
    op = build_dft_design(params, W, seed=0)
    A = dense_form(op)
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
    A = dense_form(op)
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
    A = dense_form(op)
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
    a = dense_form(build_dft_design(params, W, seed=6))
    b = dense_form(build_dft_design(params, W, seed=6))
    assert np.array_equal(a, b)
    c = dense_form(build_dft_design(params, W, seed=7))
    assert not np.array_equal(a, c)


def test_design_validation():
    params, W = small_params()
    with pytest.raises(ValueError):
        build_gaussian_design(params, W, seed=0, field="ternary")
    # the 8 nonzero blocks of this shape hold 2^34 bytes, above MEMORY_CAP;
    # the check must fire before any block is drawn
    huge = SparcParams(n=5 * 2**14, M=2**6, L=2**10, base=W, sigma2=0.1)
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


@pytest.mark.parametrize("build", [build_gaussian_design, build_dft_design])
def test_a_base_matrix_other_than_params_base_raises(build):
    params, W = small_params(n=10)
    other = build_base_matrix(CouplingParams(2, 4, rho=0.25))  # same shape, other entries
    with pytest.raises(ValueError, match="params.base"):
        build(params, other, seed=0)
    with pytest.raises(ValueError, match="params.base"):
        build(params, BaseMatrix(W.entries[:, :2]), seed=0)
    build(params, BaseMatrix(W.entries.copy()), seed=0)  # equal entries are the same W


def test_dense_memory_check_counts_nonzero_blocks(monkeypatch):
    # 8 of the 20 blocks of W are nonzero, 8 x 8 doubles each
    params, W = small_params()
    nbytes = 8 * 8 * 8 * 8
    monkeypatch.setattr(design, "MEMORY_CAP", nbytes)
    build_gaussian_design(params, W, seed=0)
    monkeypatch.setattr(design, "MEMORY_CAP", nbytes - 1)
    with pytest.raises(MemoryError):
        build_gaussian_design(params, W, seed=0)


def dense_kernel_op(field, rho):
    # 20 real or 10 complex rows per row block, neither a multiple of 3
    base = build_base_matrix(CouplingParams(3, 5, rho))
    params = SparcParams(n=40 * base.rows, M=4, L=10, base=base, sigma2=0.1)
    return build_gaussian_design(params, base, seed=5, field=field)


def residual_inputs(op, seed):
    """beta, y, upsilon, z_prev and a positive S for `op`."""
    rng = np.random.default_rng(seed)

    def draw(size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if op.field == "complex" else x

    beta = rng.random(op.n_cols)
    y, z_prev = draw(op.n_rows), draw(op.n_rows)
    upsilon = rng.uniform(0.0, 1.0, op.W.rows)
    S = rng.uniform(0.5, 2.0, (op.W.rows, op.W.cols))
    return beta, y, upsilon, z_prev, S


def assert_residual_is_its_two_products(op, beta, y, upsilon, z_prev, S):
    z, adjoint = op.residual(beta, y, upsilon, z_prev)
    onsager = np.repeat(upsilon, op.rows_per_block) * z_prev
    assert np.array_equal(z, y - op.apply(beta) + onsager)
    assert np.array_equal(adjoint(S), op.apply_scaled_adjoint(S, z))
    return z, adjoint


@pytest.mark.parametrize("chunk", ["1row", "3rows", "row-block"])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("rho", [0.0, 0.25])
def test_dense_residual_is_its_two_products_and_matches_dense(monkeypatch, rho, field, chunk):
    op = dense_kernel_op(field, rho)
    row_bytes = max(mat[0].nbytes for mat in op._row_mats)
    # 3 rows of the widest row blocks, which divides neither 20 nor 10
    chunk_bytes = {"1row": 1, "3rows": 3 * row_bytes, "row-block": 2**40}[chunk]
    monkeypatch.setattr(design, "_CHUNK_BYTES", chunk_bytes)
    beta, y, upsilon, z_prev, S = residual_inputs(op, seed=8)
    z, adjoint = assert_residual_is_its_two_products(op, beta, y, upsilon, z_prev, S)
    A = dense_form(op)
    ref = y - A @ beta + np.repeat(upsilon, op.rows_per_block) * z_prev
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
    S_full = np.repeat(np.repeat(S, op.rows_per_block, axis=0), op.cols_per_block, axis=1)
    ref = (S_full * A).conj().T @ z
    assert np.linalg.norm(adjoint(S) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_dft_residual_is_its_two_products():
    params, W = dft_params(2, 4, 0.25)
    op = build_dft_design(params, W, seed=3)
    assert_residual_is_its_two_products(op, *residual_inputs(op, seed=9))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_dense_row_block_without_blocks(field):
    # row block 2 stores no block: there z = y + upsilon * z_prev exactly
    W = BaseMatrix(np.array([[1.5, 1.5], [1.5, 1.5], [0.0, 0.0]]))
    params = SparcParams(n=48, M=4, L=8, base=W, sigma2=0.1)
    op = build_gaussian_design(params, W, seed=2, field=field)
    assert op._row_mats[2].size == 0
    beta, y, upsilon, z_prev, S = residual_inputs(op, seed=4)
    z, adjoint = assert_residual_is_its_two_products(op, beta, y, upsilon, z_prev, S)
    rows = slice(2 * op.rows_per_block, None)
    assert np.array_equal(z[rows], y[rows] + upsilon[2] * z_prev[rows])
    assert np.all(op.apply(beta)[rows] == 0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_dense_build_holds_no_array_beyond_the_stored_ones(monkeypatch, field):
    # 15 nonzero blocks of 64 x 512 entries: 3.75 MiB real, drawn inline,
    # and 7.5 MiB complex, drawn on two threads
    monkeypatch.setattr(design, "_usable_cpus", lambda: 2)
    base = build_base_matrix(CouplingParams(3, 5))
    rows = 64 * base.rows
    n = rows if field == "real" else 2 * rows
    params = SparcParams(n=n, M=16, L=160, base=base, sigma2=0.1)
    np.random.default_rng(0)  # numpy.random's import stays out of the peak
    tracemalloc.start()
    try:
        op = build_gaussian_design(params, base, seed=1, field=field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = op.rows_per_block * op.cols_per_block * op.dtype.itemsize
    stored = sum(mat.nbytes for mat in op._row_mats)
    assert len(op._nonzero) == 15 and stored == 15 * block
    # 256 KiB covers the seeds, generators and helper thread; a block
    # buffer (256 or 512 KiB) on top of those would not fit
    assert peak <= stored + 2**18


# (omega, Lambda, rho) -> nonzero blocks: one block, one to five blocks
# per column. With 6 rows per block and N = 16 one row draw covers 2
# blocks, so a column takes up to MOST_DRAWS draws (the 3-block columns of
# (3, 5, 0) take 2, the 5-block columns of (2, 4, 0.25) take 3).
DFT_SHAPES = {(1, 1, 0.0): 1, (2, 3, 0.0): 6, (2, 4, 0.0): 8, (3, 5, 0.0): 15, (2, 4, 0.25): 20}
MOST_DRAWS = {(1, 1, 0.0): 1, (2, 3, 0.0): 1, (2, 4, 0.0): 1, (3, 5, 0.0): 2, (2, 4, 0.25): 3}


def dft_params(omega, Lambda, rho, M=4, rows_per_block=6):
    # cols per block M * L / Lambda = 16
    base = build_base_matrix(CouplingParams(omega, Lambda, rho))
    n = 2 * rows_per_block * base.rows
    return SparcParams(n=n, M=M, L=4 * Lambda, base=base, sigma2=0.1), base


def offline_sweep_params():
    # M=128, L=1024, omega=6, Lambda=32, 1.5 bits: 192 blocks of 4096 columns
    params = derive_code_params(
        1.5 * np.log(2), 128, CouplingParams(6, 32), 1024, 0.1, even=True
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
