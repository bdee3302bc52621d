"""Reference design draws and products, used as test oracles.

`reference_dense_row_mats` and `reference_cs_matrix` are the documented
Gaussian draws: row block r of the design is one whole-array
`standard_normal` from the r-th child `SeedSequence.spawn` gives a fresh
copy of the seed, times the scale of each block, repeated over its
columns. A complex row block is that real draw, twice as wide, read as
interleaved real and imaginary parts.
`reference_dft_blocks` draws the blocks of `scsparc.design.DftDesign` one
column block at a time, one array per block, from the same child seed per
column in the same order; the blocks of a column share one permutation and
one phase vector.
`reference_apply` and `reference_scaled_adjoint` are the straightforward
products over an operator's `_blocks`: one zero-filled vector and one
unbatched FFT per nonzero block. `reference_materialize` is the dense form
of a block dict, and `dense_form` that of either operator kind.
"""

import numpy as np


def _fresh_children(seed, count) -> list:
    """`spawn`'s first `count` children of a fresh copy of `seed`."""
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    else:
        seed = np.random.SeedSequence(seed)
    return seed.spawn(count)


def _reference_row_block(child, rows, block_scales, cols_per_block, dtype):
    """One row block: a (rows, k * cols_per_block) draw, block j times
    block_scales[j]; a complex block draws real and imaginary parts
    interleaved."""
    width = 1 if dtype == float else 2
    g = np.random.default_rng(child).standard_normal(
        (rows, len(block_scales) * width * cols_per_block)
    )
    g *= np.repeat(block_scales, width * cols_per_block)
    return g.view(dtype)


def reference_dense_row_mats(params, W, seed, field) -> list:
    """`DenseGaussianDesign._row_mats`: row block r holds its nonzero
    blocks side by side, each of variance W_rc/L per entry."""
    dtype = float if field == "real" else complex
    n_rows = params.n if field == "real" else params.n // 2
    nr, nc = n_rows // W.rows, params.M * params.L // W.cols
    mats = []
    for r, child in enumerate(_fresh_children(seed, W.rows)):
        cols = np.flatnonzero(W.entries[r] != 0.0)
        var = W.entries[r, cols] / params.L
        scales = np.sqrt(var) if field == "real" else np.sqrt(var / 2.0)
        mats.append(_reference_row_block(child, nr, scales, nc, dtype))
    return mats


def reference_cs_matrix(model, seed) -> np.ndarray:
    """`cs_amp.cs_design_matrix`: N(0, W_rc/(n/rows)) entries in block
    (r, c), every block drawn, zero-variance ones too."""
    mr, mc = model.rows_per_block, model.cols_per_block
    children = _fresh_children(seed, model.rows)
    return np.vstack([
        _reference_row_block(children[r], mr, np.sqrt(model.W[r] / mr), mc, float)
        for r in range(model.rows)
    ])


def reference_dft_blocks(params, W, seed) -> dict:
    """{(r, c): (rows, perm, phases)} for the nonzero blocks of W."""
    N = params.M * params.L // W.cols
    rows_per_block = params.n // 2 // W.rows
    per_draw = N // rows_per_block
    children = _fresh_children(seed, W.cols)
    blocks = {}
    for c in range(W.cols):
        col_rows = [r for r in range(W.rows) if W.entries[r, c] != 0.0]
        if not col_rows:
            continue
        rng = np.random.default_rng(children[c])
        subsets = []
        for start in range(0, len(col_rows), per_draw):
            k = len(col_rows[start : start + per_draw])
            drawn = rng.choice(N, size=k * rows_per_block, replace=False)
            subsets.extend(drawn.reshape(k, rows_per_block))
        perm = rng.permutation(N)
        phases = np.exp(2j * np.pi * rng.random(N))
        for r, rows in zip(col_rows, subsets):
            blocks[(r, c)] = (rows, perm, phases)
    return dict(sorted(blocks.items()))


def _scale(params, W, r, c):
    return np.sqrt(W.entries[r, c] / params.L)


def reference_materialize(params, W, blocks) -> np.ndarray:
    N = params.M * params.L // W.cols
    nr = params.n // 2 // W.rows
    A = np.zeros((params.n // 2, params.M * params.L), dtype=complex)
    for (r, c), (rows, perm, phases) in blocks.items():
        F = np.exp(-2j * np.pi * np.outer(rows, perm).astype(float) / N)
        A[r * nr : (r + 1) * nr, c * N : (c + 1) * N] = (
            _scale(params, W, r, c) * F * phases[np.newaxis, :]
        )
    return A


def dense_form(op) -> np.ndarray:
    """The dense matrix of a design operator: a DFT operator's block dict,
    or a dense one's stored row blocks copied into place."""
    if op.kind == "dft_fast":
        return reference_materialize(op.params, op.W, op._blocks)
    nr, nc = op.rows_per_block, op.cols_per_block
    A = np.zeros((op.n_rows, op.n_cols), dtype=op.dtype)
    for r, (cols, mat) in enumerate(zip(op._row_cols, op._row_mats)):
        for j, c in enumerate(cols):
            A[r * nr : (r + 1) * nr, c * nc : (c + 1) * nc] = mat[:, j * nc : (j + 1) * nc]
    return A


def reference_apply(op, beta: np.ndarray) -> np.ndarray:
    nr, nc = op.rows_per_block, op.cols_per_block
    out = np.zeros(op.n_rows, dtype=complex)
    for (r, c), (rows, perm, phases) in op._blocks.items():
        v = np.zeros(nc, dtype=complex)
        v[perm] = phases * beta[c * nc : (c + 1) * nc]
        out[r * nr : (r + 1) * nr] += _scale(op.params, op.W, r, c) * np.fft.fft(v)[rows]
    return out


def reference_scaled_adjoint(op, S: np.ndarray, z: np.ndarray) -> np.ndarray:
    nr, nc = op.rows_per_block, op.cols_per_block
    out = np.zeros(op.n_cols, dtype=complex)
    for (r, c), (rows, perm, phases) in op._blocks.items():
        u = np.zeros(nc, dtype=complex)
        u[rows] = z[r * nr : (r + 1) * nr]
        t = nc * np.fft.ifft(u)  # conjugate-transpose of the DFT
        out[c * nc : (c + 1) * nc] += (
            S[r, c] * _scale(op.params, op.W, r, c) * phases.conj() * t[perm]
        )
    return out
