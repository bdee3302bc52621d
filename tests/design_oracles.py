"""Reference randomized-DFT design draws and products, used as test oracles.

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


def reference_dft_blocks(params, W, seed) -> dict:
    """{(r, c): (rows, perm, phases)} for the nonzero blocks of W."""
    N = params.M * params.L // W.cols
    rows_per_block = params.n // 2 // W.rows
    per_draw = N // rows_per_block
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(W.cols)
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
