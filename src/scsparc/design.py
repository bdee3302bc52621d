"""Block-structured design operators.

The design matrix has row_blocks x col_blocks blocks; block (r, c) carries
variance W[r, c]/L per entry. Both kinds store only the blocks where
W[r, c] != 0, in a dict keyed by (r, c) in row-major order:

 * dense_gaussian: explicit i.i.d. Gaussian blocks, real or complex field.
 * dft_fast: each nonzero block is a row-subsampled unitary DFT with a
   random column permutation and i.i.d. random phases per column, scaled so
   every entry has squared magnitude W[r, c]/L. Products use the FFT and
   cost O(ML log ML). This kind is complex-field by construction.

For the complex field, the operator has params.n // 2 rows (n counts real
dimensions throughout).
"""

from __future__ import annotations

import numpy as np

from .params import BaseMatrix, SparcParams, is_power_of_2

__all__ = [
    "DesignOperator",
    "DenseGaussianDesign",
    "DftDesign",
    "build_gaussian_design",
    "build_dft_design",
]

# bytes: caps the stored dense blocks and any materialized matrix
MEMORY_CAP = 2 * 1024**3
# DFT blocks per batched FFT in DftDesign products
_CHUNK = 8


def _check_scaling(S: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.shape != shape:
        raise ValueError(f"scaling matrix must have shape {shape}, got {S.shape}")
    if not np.all(np.isfinite(S)) or np.any(S <= 0):
        raise ValueError("scaling matrix entries must be positive and finite")
    return S


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > MEMORY_CAP:
        raise MemoryError(f"{what} needs {nbytes} bytes, above the cap {MEMORY_CAP}")


class DesignOperator:
    """Common interface: forward product, scaled adjoint, materialize.

    Subclasses fill `_blocks` with one entry per nonzero block of W and
    give its dense form through `_dense_block`.
    """

    kind: str
    field: str

    def __init__(self, params: SparcParams, W: BaseMatrix, field: str):
        if W.rows != params.row_blocks or W.cols != params.col_blocks:
            raise ValueError("base matrix dims inconsistent with params")
        if field not in ("real", "complex"):
            raise ValueError(f"unknown field {field!r}")
        if field == "complex" and params.n % 2 != 0:
            raise ValueError("complex field requires an even number of real dims n")
        self.params = params
        self.W = W
        self.field = field
        self.dtype = np.dtype(float if field == "real" else complex)
        self.n_rows = params.n if field == "real" else params.n // 2
        self.n_cols = params.M * params.L
        if self.n_rows % W.rows != 0:
            raise ValueError("row blocks must divide the operator row count")
        self.rows_per_block = self.n_rows // W.rows
        self.cols_per_block = self.n_cols // W.cols
        # (r, c) of every nonzero block, row-major
        self._nonzero = [tuple(rc) for rc in np.argwhere(W.entries != 0.0).tolist()]
        self._blocks: dict = {}

    def apply(self, beta: np.ndarray) -> np.ndarray:
        """Forward product A @ beta."""
        raise NotImplementedError

    def apply_scaled_adjoint(self, S: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(S ⊙ A)* z where S is a positive row_blocks x col_blocks matrix.

        Output block c is sum_r S[r, c] * conj(A_rc).T @ z_r.
        """
        raise NotImplementedError

    def _dense_block(self, r: int, c: int, block) -> np.ndarray:
        raise NotImplementedError

    def materialize(self) -> np.ndarray:
        """Dense matrix representation (test oracle; size-capped)."""
        _check_bytes(self.n_rows * self.n_cols * self.dtype.itemsize, "materializing")
        nr, nc = self.rows_per_block, self.cols_per_block
        A = np.zeros((self.n_rows, self.n_cols), dtype=self.dtype)
        for (r, c), block in self._blocks.items():
            A[r * nr : (r + 1) * nr, c * nc : (c + 1) * nc] = self._dense_block(r, c, block)
        return A

    def _check_apply_input(self, beta: np.ndarray) -> None:
        if beta.size != self.n_cols:
            raise ValueError(f"expected input of length {self.n_cols}, got {beta.size}")

    def _check_adjoint_input(self, z: np.ndarray) -> None:
        if z.size != self.n_rows:
            raise ValueError(f"expected input of length {self.n_rows}, got {z.size}")


class DenseGaussianDesign(DesignOperator):
    """Explicit i.i.d. Gaussian blocks, drawn in row-major block order."""

    kind = "dense_gaussian"

    def __init__(self, params: SparcParams, W: BaseMatrix, seed, field: str = "real"):
        super().__init__(params, W, field)
        nr, nc = self.rows_per_block, self.cols_per_block
        _check_bytes(len(self._nonzero) * nr * nc * self.dtype.itemsize, "dense design")
        rng = np.random.default_rng(seed)
        for r, c in self._nonzero:
            var = W.entries[r, c] / params.L
            if field == "real":
                blk = np.sqrt(var) * rng.standard_normal((nr, nc))
            else:
                blk = np.sqrt(var / 2.0) * (
                    rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
                )
            self._blocks[(r, c)] = blk

    def _dense_block(self, r, c, block):
        return block

    def apply(self, beta):
        self._check_apply_input(beta)
        nr, nc = self.rows_per_block, self.cols_per_block
        out = np.zeros(self.n_rows, dtype=np.result_type(self.dtype, beta))
        for (r, c), blk in self._blocks.items():
            out[r * nr : (r + 1) * nr] += blk @ beta[c * nc : (c + 1) * nc]
        return out

    def apply_scaled_adjoint(self, S, z):
        self._check_adjoint_input(z)
        S = _check_scaling(S, (self.W.rows, self.W.cols))
        nr, nc = self.rows_per_block, self.cols_per_block
        out = np.zeros(self.n_cols, dtype=self.dtype)
        for (r, c), blk in self._blocks.items():
            out[c * nc : (c + 1) * nc] += S[r, c] * (blk.conj().T @ z[r * nr : (r + 1) * nr])
        return out


class DftDesign(DesignOperator):
    """Fast operator whose nonzero blocks are randomized unitary-DFT rows.

    Block (r, c): sqrt(W_rc/L) * sqrt(N) * F_N[row_subset, perm] * diag(phases)
    with F_N the N-point unitary DFT, N = cols_per_block. Every entry has
    squared magnitude W_rc/L.

    The blocks are stored stacked, one row per nonzero block in row-major
    order: `_rows` (nb, rows_per_block), `_perm` (nb, N) and `_phases`
    (nb, N); `_blocks[(r, c)]` holds views into them. Products run over
    chunks of `_CHUNK` blocks through buffers reused across chunks: one
    index scatter, one batched FFT and one index gather per chunk. Factors
    are multiplied in the same order, and blocks summed in the same
    row-major order, as with one FFT per block, so the floats are the same.
    """

    kind = "dft_fast"

    def __init__(self, params: SparcParams, W: BaseMatrix, seed):
        super().__init__(params, W, "complex")
        N = self.cols_per_block
        if not is_power_of_2(N):
            raise ValueError(f"cols per block ({N}) must be a power of 2")
        if self.rows_per_block > N:
            raise ValueError("rows per block must not exceed cols per block")
        nb = len(self._nonzero)
        self._rows = np.empty((nb, self.rows_per_block), dtype=np.int64)
        self._perm = np.empty((nb, N), dtype=np.int64)
        self._phases = np.empty((nb, N), dtype=complex)
        # Independent row subset, column permutation and phases per nonzero
        # block, from one child seed per block of W (zero blocks included).
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = root.spawn(W.rows * W.cols)
        for i, (r, c) in enumerate(self._nonzero):
            rng = np.random.default_rng(children[r * W.cols + c])
            self._rows[i] = rng.choice(N, size=self.rows_per_block, replace=False)
            self._perm[i] = rng.permutation(N)
            np.exp(2j * np.pi * rng.random(N), out=self._phases[i])
            self._blocks[(r, c)] = (self._rows[i], self._perm[i], self._phases[i])
        self._stacked_blocks = self._blocks

    def _scale(self, r, c):
        # sqrt(W/L) * sqrt(N) absorbed: fft is the unnormalized DFT,
        # i.e. sqrt(N) * unitary DFT, so only sqrt(W/L) is applied here.
        return np.sqrt(self.W.entries[r, c] / self.params.L)

    def _dense_block(self, r, c, block):
        rows, perm, phases = block
        F = np.exp(-2j * np.pi * np.outer(rows, perm).astype(float) / self.cols_per_block)
        return self._scale(r, c) * F * phases[np.newaxis, :]

    def _stacked(self):
        """(r, c, scale, rows, perm, phases) of the blocks in `_blocks`,
        one entry or row per block in dict order."""
        if self._blocks is self._stacked_blocks:
            rows, perm, phases = self._rows, self._perm, self._phases
        else:
            # `_blocks` was rebound after construction: stack what it holds
            rows, perm, phases = (np.stack(a) for a in zip(*self._blocks.values()))
        r, c = np.array(list(self._blocks), dtype=np.intp).T
        return r, c, self._scale(r, c), rows, perm, phases

    def _scratch(self):
        """Buffers shared by the chunks of one product: the FFT rows, the
        values to scatter or scale, their flat indices, and the flat offset
        of each buffer row."""
        shape = (_CHUNK, self.cols_per_block)
        offsets = np.arange(_CHUNK)[:, np.newaxis] * self.cols_per_block
        return np.empty(shape, complex), np.empty(shape, complex), np.empty(shape, np.intp), offsets

    def apply(self, beta):
        self._check_apply_input(beta)
        nr = self.rows_per_block
        r, c, scale, rows, perm, phases = self._stacked()
        beta_blocks = beta.reshape(self.W.cols, self.cols_per_block)
        out = np.zeros(self.n_rows, dtype=complex)
        buf, vals, idx, offsets = self._scratch()
        flat = buf.reshape(-1)
        for start in range(0, len(r), _CHUNK):
            blk = slice(start, start + _CHUNK)
            k = len(r[blk])
            # ufunc with out=, not `*`: on a large temporary operand numpy
            # may swap the complex factors, which changes the rounding
            np.multiply(phases[blk], beta_blocks[c[blk]], out=vals[:k])
            np.add(perm[blk], offsets[:k], out=idx[:k])
            flat[idx[:k]] = vals[:k]
            np.fft.fft(buf[:k], out=buf[:k])
            g = flat[rows[blk] + offsets[:k]]
            g *= scale[blk, np.newaxis]
            for i, gi in zip(r[blk], g):
                out[i * nr : (i + 1) * nr] += gi
        return out

    def apply_scaled_adjoint(self, S, z):
        self._check_adjoint_input(z)
        S = _check_scaling(S, (self.W.rows, self.W.cols))
        nc = self.cols_per_block
        r, c, scale, rows, perm, phases = self._stacked()
        z_blocks = z.reshape(self.W.rows, self.rows_per_block)
        coef = S[r, c] * scale
        out = np.zeros(self.n_cols, dtype=complex)
        buf, vals, idx, offsets = self._scratch()
        flat = buf.reshape(-1)
        for start in range(0, len(r), _CHUNK):
            blk = slice(start, start + _CHUNK)
            k = len(r[blk])
            buf[:k] = 0.0
            flat[rows[blk] + offsets[:k]] = z_blocks[r[blk]]
            # unscaled inverse DFT: the conjugate-transpose of fft
            np.fft.ifft(buf[:k], norm="forward", out=buf[:k])
            t = vals[:k]
            np.conjugate(phases[blk], out=t)
            np.multiply(coef[blk, np.newaxis], t, out=t)
            np.add(perm[blk], offsets[:k], out=idx[:k])
            np.multiply(t, flat[idx[:k]], out=t)
            for j, tj in zip(c[blk], t):
                out[j * nc : (j + 1) * nc] += tj
        return out


def build_gaussian_design(
    params: SparcParams, W: BaseMatrix, seed, field: str = "real"
) -> DenseGaussianDesign:
    return DenseGaussianDesign(params, W, seed, field=field)


def build_dft_design(params: SparcParams, W: BaseMatrix, seed) -> DftDesign:
    return DftDesign(params, W, seed)
