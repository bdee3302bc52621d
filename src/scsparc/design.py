"""Block-structured design operators.

The design matrix has row_blocks x col_blocks blocks; block (r, c) carries
variance W[r, c]/L per entry. Both kinds store only the blocks where
W[r, c] != 0, in a dict keyed by (r, c) in row-major order:

 * dense_gaussian: explicit i.i.d. Gaussian blocks, real or complex field.
 * dft_fast: each nonzero block is a row subset of a unitary DFT with a
   random column permutation and i.i.d. random phases, scaled so every
   entry has squared magnitude W[r, c]/L. The blocks of one column block
   share its permutation and phases, so a product runs one FFT per column
   block and costs O(ML log ML). This kind is complex-field by construction.

For the complex field, the operator has params.n // 2 rows (n counts real
dimensions throughout).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Block (r, c): sqrt(W_rc/L) * sqrt(N) * F_N[rows_rc, perm_c] * diag(phases_c)
    with F_N the N-point unitary DFT, N = cols_per_block. Every entry has
    squared magnitude W_rc/L.

    All nonzero blocks of column block c share one column permutation
    `perm_c` and one phase vector `phases_c`, so the blocks of a column are
    row subsets of one randomized transform. Column c draws from its own
    child seed: the row subsets of its blocks in row order, then `perm_c`,
    then `phases_c`. The row subsets come from successive draws without
    replacement of up to N // rows_per_block blocks each, so the blocks of
    a column have disjoint rows whenever they fit in N rows.

    Stored: `_rows` (nb, rows_per_block), one row per nonzero block in
    row-major order, and `_perm` and `_phases` (col_blocks, N), one row
    per column block; `_blocks[(r, c)]` holds views
    `(rows_rc, perm_c, phases_c)` into them.

    A product runs one batched FFT over the column blocks. The index
    arrays it needs (each block's row and column block, scale and flat
    row indices, sorted into slots) are derived from `_blocks` on the
    first product and again whenever `_blocks` is rebound to another dict.
    `apply` gathers and scales every block's rows, then adds slot k, the
    k-th block of every row block, at once for k = 0, 1, ...; each row
    block thus adds its terms in block order, as one FFT per block would,
    so its floats are the same. The adjoint adds slot k, the k-th block of
    every column block, into the spectra the same way (a block's rows are
    distinct, so a slot writes each entry once), runs one inverse FFT per
    column and gathers through the permutation; it matches one FFT per
    block to rounding.
    """

    kind = "dft_fast"

    def __init__(self, params: SparcParams, W: BaseMatrix, seed):
        super().__init__(params, W, "complex")
        N, nr = self.cols_per_block, self.rows_per_block
        if not is_power_of_2(N):
            raise ValueError(f"cols per block ({N}) must be a power of 2")
        if nr > N:
            raise ValueError("rows per block must not exceed cols per block")
        self._rows = np.empty((len(self._nonzero), nr), dtype=np.int64)
        self._perm = np.empty((W.cols, N), dtype=np.int64)
        self._phases = np.empty((W.cols, N), dtype=complex)
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        per_draw = N // nr
        for c, child in enumerate(root.spawn(W.cols)):
            rng = np.random.default_rng(child)
            blocks = [i for i, (_, col) in enumerate(self._nonzero) if col == c]
            for start in range(0, len(blocks), per_draw):
                drawn = blocks[start : start + per_draw]
                rows = rng.choice(N, size=len(drawn) * nr, replace=False)
                self._rows[drawn] = rows.reshape(len(drawn), nr)
            self._perm[c] = rng.permutation(N)
            np.exp(2j * np.pi * rng.random(N), out=self._phases[c])
        self._blocks = {
            (r, c): (self._rows[i], self._perm[c], self._phases[c])
            for i, (r, c) in enumerate(self._nonzero)
        }
        self._drawn_blocks = self._blocks
        self._layout_of = None

    def _scale(self, r, c):
        # sqrt(W/L) * sqrt(N) absorbed: fft is the unnormalized DFT,
        # i.e. sqrt(N) * unitary DFT, so only sqrt(W/L) is applied here.
        return np.sqrt(self.W.entries[r, c] / self.params.L)

    def _dense_block(self, r, c, block):
        rows, perm, phases = block
        F = np.exp(-2j * np.pi * np.outer(rows, perm).astype(float) / self.cols_per_block)
        return self._scale(r, c) * F * phases[np.newaxis, :]

    def _layout(self):
        """Index arrays of the products, derived from `_blocks` on first use
        and again whenever `_blocks` is rebound to another dict."""
        if self._layout_of is not self._blocks:
            self._cached_layout = self._derive_layout()
            self._layout_of = self._blocks
        return self._cached_layout

    def _derive_layout(self):
        r, c = np.array(list(self._blocks), dtype=np.intp).reshape(-1, 2).T
        if self._blocks is self._drawn_blocks:
            rows, perm, phases = self._rows, self._perm, self._phases
        else:
            # `_blocks` was rebound after construction: use what it holds
            shared: dict = {}
            for (_, col), (_, p, ph) in self._blocks.items():
                p0, ph0 = shared.setdefault(col, (p, ph))
                if not (np.array_equal(p, p0) and np.array_equal(ph, ph0)):
                    raise ValueError(
                        f"blocks of column block {col} disagree on their permutation or phases"
                    )
            perm, phases = self._perm.copy(), self._phases.copy()
            for col, (p, ph) in shared.items():
                perm[col], phases[col] = p, ph
            rows = np.stack([block[0] for block in self._blocks.values()])
        # flat index of each block row in the (col_blocks * N) spectra
        flat = rows + (c * self.cols_per_block)[:, np.newaxis]
        scale = self._scale(r, c)
        # apply adds slot k (the k-th block of every row block) at once, and
        # the adjoint does the same per column block: the blocks of a slot
        # write distinct entries, and each entry gets its terms in dict order
        to_row, row_slots = _slots(r)
        to_col, col_slots = _slots(c)
        return _DftLayout(
            perm=perm,
            phases=phases,
            row_flat=flat[to_row],
            row_scale=scale[to_row][:, np.newaxis],
            row_slots=[(lo, hi, r[to_row[lo:hi]]) for lo, hi in row_slots],
            col_flat=flat[to_col],
            col_r=r[to_col],
            col_c=c[to_col],
            col_scale=scale[to_col],
            col_slots=col_slots,
        )

    def apply(self, beta):
        self._check_apply_input(beta)
        N = self.cols_per_block
        lay = self._layout()
        beta_blocks = beta.reshape(self.W.cols, N)
        buf = np.empty((self.W.cols, N), dtype=complex)
        vals = np.empty(N, dtype=complex)
        for col in range(self.W.cols):
            np.multiply(lay.phases[col], beta_blocks[col], out=vals)
            buf[col][lay.perm[col]] = vals
        np.fft.fft(buf, out=buf)
        g = buf.reshape(-1)[lay.row_flat]
        g *= lay.row_scale
        out = np.zeros((self.W.rows, self.rows_per_block), dtype=complex)
        for lo, hi, r in lay.row_slots:
            out[r] += g[lo:hi]
        return out.reshape(-1)

    def apply_scaled_adjoint(self, S, z):
        self._check_adjoint_input(z)
        S = _check_scaling(S, (self.W.rows, self.W.cols))
        N = self.cols_per_block
        lay = self._layout()
        z_blocks = z.reshape(self.W.rows, self.rows_per_block)
        # the spectra are built in the output itself: one array of this
        # size per call, not two, so the allocator keeps reusing its pages
        out = np.zeros(self.n_cols, dtype=complex)
        out_blocks = out.reshape(self.W.cols, N)
        terms = (S[lay.col_r, lay.col_c] * lay.col_scale)[:, np.newaxis] * z_blocks[lay.col_r]
        for lo, hi in lay.col_slots:
            out[lay.col_flat[lo:hi]] += terms[lo:hi]
        # unscaled inverse DFT: the conjugate-transpose of fft
        np.fft.ifft(out_blocks, norm="forward", out=out_blocks)
        gathered = np.empty(N, dtype=complex)
        conj = np.empty(N, dtype=complex)
        for col in range(self.W.cols):
            # perm is in range, so "wrap" only skips take's bounds check
            np.take(out_blocks[col], lay.perm[col], out=gathered, mode="wrap")
            np.conjugate(lay.phases[col], out=conj)
            np.multiply(conj, gathered, out=out_blocks[col])
        return out


@dataclass(frozen=True)
class _DftLayout:
    """What `DftDesign` products read, with the blocks in slot order:
    `row_*` for `apply`, `col_*` for the adjoint."""

    perm: np.ndarray
    phases: np.ndarray
    row_flat: np.ndarray
    row_scale: np.ndarray
    row_slots: list
    col_flat: np.ndarray
    col_r: np.ndarray
    col_c: np.ndarray
    col_scale: np.ndarray
    col_slots: list


def _slots(keys: np.ndarray) -> tuple[np.ndarray, list]:
    """Sort blocks by slot, slot k holding the k-th block (in dict order)
    of every key; within a slot, dict order. Returns the sorting index and
    the (lo, hi) range of each slot in the sorted order."""
    by_key = np.argsort(keys, kind="stable")
    counts = np.bincount(keys)
    slot = np.empty(keys.size, dtype=np.intp)
    slot[by_key] = np.arange(keys.size) - np.repeat(np.cumsum(counts) - counts, counts)
    order = np.argsort(slot, kind="stable")
    bounds = np.searchsorted(slot[order], np.arange(slot.max() + 2))
    return order, list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def build_gaussian_design(
    params: SparcParams, W: BaseMatrix, seed, field: str = "real"
) -> DenseGaussianDesign:
    return DenseGaussianDesign(params, W, seed, field=field)


def build_dft_design(params: SparcParams, W: BaseMatrix, seed) -> DftDesign:
    return DftDesign(params, W, seed)
