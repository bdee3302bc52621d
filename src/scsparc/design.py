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
    """

    kind = "dft_fast"

    def __init__(self, params: SparcParams, W: BaseMatrix, seed):
        super().__init__(params, W, "complex")
        N = self.cols_per_block
        if not is_power_of_2(N):
            raise ValueError(f"cols per block ({N}) must be a power of 2")
        if self.rows_per_block > N:
            raise ValueError("rows per block must not exceed cols per block")
        # Independent row subset, column permutation and phases per nonzero
        # block, from one child seed per block of W (zero blocks included).
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = root.spawn(W.rows * W.cols)
        for r, c in self._nonzero:
            rng = np.random.default_rng(children[r * W.cols + c])
            rows = rng.choice(N, size=self.rows_per_block, replace=False)
            perm = rng.permutation(N)
            phases = np.exp(2j * np.pi * rng.random(N))
            self._blocks[(r, c)] = (rows, perm, phases)

    def _scale(self, r: int, c: int) -> float:
        # sqrt(W/L) * sqrt(N) absorbed: fft is the unnormalized DFT,
        # i.e. sqrt(N) * unitary DFT, so only sqrt(W/L) is applied here.
        return np.sqrt(self.W.entries[r, c] / self.params.L)

    def _dense_block(self, r, c, block):
        rows, perm, phases = block
        F = np.exp(-2j * np.pi * np.outer(rows, perm).astype(float) / self.cols_per_block)
        return self._scale(r, c) * F * phases[np.newaxis, :]

    def apply(self, beta):
        self._check_apply_input(beta)
        nc = self.cols_per_block
        out = np.zeros(self.n_rows, dtype=complex)
        for (r, c), (rows, perm, phases) in self._blocks.items():
            v = np.zeros(nc, dtype=complex)
            v[perm] = phases * beta[c * nc : (c + 1) * nc]
            out[r * self.rows_per_block : (r + 1) * self.rows_per_block] += (
                self._scale(r, c) * np.fft.fft(v)[rows]
            )
        return out

    def apply_scaled_adjoint(self, S, z):
        self._check_adjoint_input(z)
        S = _check_scaling(S, (self.W.rows, self.W.cols))
        nr, nc = self.rows_per_block, self.cols_per_block
        out = np.zeros(self.n_cols, dtype=complex)
        for (r, c), (rows, perm, phases) in self._blocks.items():
            u = np.zeros(nc, dtype=complex)
            u[rows] = z[r * nr : (r + 1) * nr]
            t = nc * np.fft.ifft(u)  # conjugate-transpose of the DFT
            out[c * nc : (c + 1) * nc] += (
                S[r, c] * self._scale(r, c) * phases.conj() * t[perm]
            )
        return out


def build_gaussian_design(
    params: SparcParams, W: BaseMatrix, seed, field: str = "real"
) -> DenseGaussianDesign:
    return DenseGaussianDesign(params, W, seed, field=field)


def build_dft_design(params: SparcParams, W: BaseMatrix, seed) -> DftDesign:
    return DftDesign(params, W, seed)
