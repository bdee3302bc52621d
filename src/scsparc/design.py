"""Block-structured design operators.

The design matrix has row_blocks x col_blocks blocks; block (r, c) carries
variance W[r, c]/L per entry. Both kinds store only the blocks where
W[r, c] != 0, listed in row-major order in `_nonzero`:

 * dense_gaussian: explicit i.i.d. Gaussian blocks, real or complex field.
   Each row block is stored as one matrix of its nonzero blocks side by
   side, and a product walks it in row chunks that fit in L2, so the AMP
   residual and its adjoint read the stored blocks from memory once.
   Row block r is drawn in place from an SFC64 generator seeded with
   child r of the seed, and the row blocks of a large design are drawn on
   a thread per usable CPU (`_draw_gaussian_rows`, shared with
   `cs_amp.cs_design_matrix`); the draws do not depend on the thread
   count. Every other stream of the package is numpy's default PCG64.
 * dft_fast: each nonzero block is a row subset of a unitary DFT with a
   random column permutation and i.i.d. random phases, scaled so every
   entry has squared magnitude W[r, c]/L. The blocks of one column block
   share its permutation and phases, so a product runs one FFT per column
   block and costs O(ML log ML). This kind is complex-field by construction.

For the complex field, the operator has params.n // 2 rows (n counts real
dimensions throughout).
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .params import BaseMatrix, SparcParams, is_power_of_2

__all__ = [
    "DesignOperator",
    "DenseGaussianDesign",
    "DftDesign",
    "build_gaussian_design",
    "build_dft_design",
]

# bytes: caps the stored dense blocks
MEMORY_CAP = 2 * 1024**3
# bytes of stored rows in one chunk of a dense product: the adjoint re-reads
# a chunk from L2 right after the forward product read it from memory
# (1 MiB measured best of 256 KiB to 2 MiB on a host with 2 MiB of L2)
_CHUNK_BYTES = 2**20
# bytes: a Gaussian draw below this runs inline, as a thread pool per small
# build would cost more than it saves
_POOL_MIN_BYTES = 4 * 2**20


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child_seeds(seed, count: int) -> list:
    """The first `count` children `spawn` gives a fresh root made from
    `seed`. They are derived without spawn, which would mutate a
    SeedSequence passed in, so a reused seed object gives the same draws."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (i,), pool_size=root.pool_size
        )
        for i in range(count)
    ]


def _draw_gaussian_rows(arrays: list, scales: list, seed) -> None:
    """Fill each C-contiguous array with i.i.d. N(0, 1) draws, in place,
    each column segment times its scale.

    `arrays[r]` is split into len(scales[r]) column segments of equal
    width, and segment j is multiplied by scales[r][j]. Array r draws from
    an SFC64 generator on child r of the seed (`_child_seeds`), in C order
    over its entries (SFC64 draws a standard normal faster than PCG64); a
    complex array draws through its float64 view, so each entry takes two
    consecutive draws, real part first. The draw works in row chunks of
    about _CHUNK_BYTES and scales each chunk while it is in cache.

    Arrays of _POOL_MIN_BYTES or more in total are drawn on min(usable
    CPUs, arrays) threads: the calling thread and a pool of helpers, joined
    before this returns, each taking the next array from a shared queue;
    the draw and the scaling release the GIL. Each array has its own
    generator, so the values do not depend on the thread count or the
    scheduling.
    """
    todo = queue.SimpleQueue()
    for job in zip(arrays, scales, _child_seeds(seed, len(arrays))):
        todo.put(job)

    def drain():
        while True:
            try:
                job = todo.get_nowait()
            except queue.Empty:
                return
            _draw_row_block(*job)

    threads = min(_usable_cpus(), len(arrays))
    if threads <= 1 or sum(a.nbytes for a in arrays) < _POOL_MIN_BYTES:
        drain()
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(threads - 1)]
        # the calling thread draws too: it stays runnable, so it keeps its CPU
        drain()
    for helper in helpers:
        helper.result()  # re-raises a helper's exception


def _draw_row_block(a: np.ndarray, scales: np.ndarray, seed) -> None:
    if a.size == 0:
        return
    a = a.view(np.float64)
    rng = np.random.Generator(np.random.SFC64(seed))
    step = max(1, _CHUNK_BYTES // a[0].nbytes)
    for lo in range(0, len(a), step):
        chunk = a[lo : lo + step]
        rng.standard_normal(out=chunk)
        # one segment per scale, scaled while the chunk is in cache
        segments = chunk.reshape(len(chunk), len(scales), -1)
        np.multiply(segments, scales[:, np.newaxis], out=segments)


def _check_scaling(S: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.shape != shape:
        raise ValueError(f"scaling matrix must have shape {shape}, got {S.shape}")
    if not np.all(np.isfinite(S)) or np.any(S <= 0):
        raise ValueError("scaling matrix entries must be positive and finite")
    return S


class DesignOperator:
    """Common interface: forward product, scaled adjoint, AMP residual.

    Subclasses store the nonzero blocks of W, listed in `_nonzero`. W
    must have the entries of params.base; a different one raises.
    """

    kind: str
    field: str

    def __init__(self, params: SparcParams, W: BaseMatrix, field: str):
        if not np.array_equal(W.entries, params.base.entries):
            raise ValueError("base matrix W differs from params.base")
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

    def apply(self, beta: np.ndarray) -> np.ndarray:
        """Forward product A @ beta."""
        raise NotImplementedError

    def apply_scaled_adjoint(self, S: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(S ⊙ A)* z where S is a positive row_blocks x col_blocks matrix.

        Output block c is sum_r S[r, c] * conj(A_rc).T @ z_r.
        """
        raise NotImplementedError

    def residual(
        self, beta: np.ndarray, y: np.ndarray, upsilon: np.ndarray, z_prev: np.ndarray
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """The AMP residual z = y - A beta + upsilon ⊙ z_prev, with upsilon
        one coefficient per row block, and `adjoint` with adjoint(S) =
        (S ⊙ A)* z.

        Here: the forward product, then `apply_scaled_adjoint` when
        adjoint(S) is called. An operator may fuse the two passes.
        """
        z = y - self.apply(beta)
        rows = self.W.rows
        z.reshape(rows, -1)[...] += upsilon[:, np.newaxis] * z_prev.reshape(rows, -1)
        return z, lambda S: self.apply_scaled_adjoint(S, z)

    def _check_apply_input(self, beta: np.ndarray) -> None:
        if beta.size != self.n_cols:
            raise ValueError(f"expected input of length {self.n_cols}, got {beta.size}")

    def _check_adjoint_input(self, z: np.ndarray) -> None:
        if z.size != self.n_rows:
            raise ValueError(f"expected input of length {self.n_rows}, got {z.size}")


class DenseGaussianDesign(DesignOperator):
    """Explicit i.i.d. Gaussian blocks, one seeded draw per row block.

    Row block r is stored as one C-contiguous (rows_per_block,
    k_r * cols_per_block) matrix `_row_mats[r]`, its k_r nonzero blocks
    side by side in column order (`_row_cols[r]`). `_row_mats[r]` is drawn
    in place from an SFC64 generator on child r of the seed and each block
    scaled to variance W_rc/L (`_draw_gaussian_rows`); a complex entry
    takes its real and then its imaginary part, each of variance
    W_rc/(2L). The build holds no array beyond the stored ones, and large
    designs draw their row blocks on a thread per usable CPU with the same
    values as one thread.

    Every product runs `_sweep`, one pass over the stored rows in chunks
    of about _CHUNK_BYTES. `residual` forms each chunk's rows of z and, while
    the chunk is still in cache, its part of the unscaled adjoint products
    A_rc* z_r; adjoint(S) then only adds S[r, c] times those.
    """

    kind = "dense_gaussian"

    def __init__(self, params: SparcParams, W: BaseMatrix, seed, field: str = "real"):
        super().__init__(params, W, field)
        nr, nc = self.rows_per_block, self.cols_per_block
        nbytes = len(self._nonzero) * nr * nc * self.dtype.itemsize
        if nbytes > MEMORY_CAP:
            raise MemoryError(f"dense design needs {nbytes} bytes, above the cap {MEMORY_CAP}")
        self._row_cols = [[c for row, c in self._nonzero if row == r] for r in range(W.rows)]
        self._row_mats = [np.empty((nr, len(cols) * nc), self.dtype) for cols in self._row_cols]
        var = W.entries / params.L
        if field == "complex":
            var = var / 2.0
        scales = [np.sqrt(var[r, cols]) for r, cols in enumerate(self._row_cols)]
        _draw_gaussian_rows(self._row_mats, scales, seed)

    def apply(self, beta):
        self._check_apply_input(beta)
        return self._sweep(beta=beta)[0]

    def apply_scaled_adjoint(self, S, z):
        self._check_adjoint_input(z)
        S = _check_scaling(S, (self.W.rows, self.W.cols))
        return self._scaled_sum(S, self._sweep(z=z)[1])

    def residual(self, beta, y, upsilon, z_prev):
        self._check_apply_input(beta)
        self._check_adjoint_input(y)
        self._check_adjoint_input(z_prev)
        z, products = self._sweep(beta=beta, onsager=(y, upsilon, z_prev))
        shape = (self.W.rows, self.W.cols)
        return z, lambda S: self._scaled_sum(_check_scaling(S, shape), products)

    def _sweep(self, beta=None, z=None, onsager=None):
        """The one product kernel: a pass over each row block in chunks of
        max(1, _CHUNK_BYTES // bytes of one stored row) rows.

        With `beta`, each chunk forms its rows of A beta, or with `onsager`
        = (y, upsilon, z_prev) its rows of y - A beta + upsilon_r z_prev;
        that vector is returned first. With `z`, or with `onsager`, each
        chunk then adds its part of A_rc* z_r, for z or for the residual it
        just formed, while the chunk is in cache. These products are
        returned second, one row per nonzero block in row-major order. A
        complex matrix is not conjugated: A* z = conj(A.T conj(z)).
        """
        nr, nc = self.rows_per_block, self.cols_per_block
        out = products = None
        if beta is not None:
            out = np.empty(self.n_rows, np.result_type(self.dtype, beta, *(onsager or ())))
            beta_blocks = beta.reshape(self.W.cols, nc)
        if onsager is not None:
            y, upsilon, z_prev = onsager
            z = out
        if z is not None:
            products = np.empty((len(self._nonzero), nc), np.result_type(self.dtype, z))
        conj = self.field == "complex"
        first = 0
        for r, (cols, mat) in enumerate(zip(self._row_cols, self._row_mats)):
            step = max(1, _CHUNK_BYTES // max(1, mat[0].nbytes))
            if out is not None:
                b = beta_blocks[cols].reshape(-1).astype(out.dtype, copy=False)
            if products is not None:
                p = products[first : first + len(cols)].reshape(-1)
                first += len(cols)
            for lo in range(0, nr, step):
                chunk = mat[lo : lo + step]
                rows = slice(r * nr + lo, r * nr + lo + len(chunk))
                if out is not None:
                    np.matmul(chunk, b, out=out[rows])
                    if onsager is not None:
                        np.subtract(y[rows], out[rows], out=out[rows])
                        out[rows] += upsilon[r] * z_prev[rows]
                if products is not None:
                    zc = z[rows].conj() if conj else z[rows]
                    if lo == 0:
                        np.matmul(chunk.T, zc, out=p)
                    else:
                        p += chunk.T @ zc
            if products is not None and conj:
                np.conjugate(p, out=p)
        return out, products

    def _scaled_sum(self, S, products):
        """(S ⊙ A)* z from `_sweep`'s products, added in row-major order."""
        out = np.zeros(self.n_cols, dtype=products.dtype)
        out_blocks = out.reshape(self.W.cols, self.cols_per_block)
        for (r, c), p in zip(self._nonzero, products):
            out_blocks[c] += S[r, c] * p
        return out


class DftDesign(DesignOperator):
    """Fast operator whose nonzero blocks are randomized unitary-DFT rows.

    Block (r, c): sqrt(W_rc/L) * sqrt(N) * F_N[rows_rc, perm_c] * diag(phases_c)
    with F_N the N-point unitary DFT, N = cols_per_block. Every entry has
    squared magnitude W_rc/L.

    All nonzero blocks of column block c share one column permutation
    `perm_c` and one phase vector `phases_c`, so the blocks of a column are
    row subsets of one randomized transform. Column c draws from child c
    of the seed (`_child_seeds`): the row subsets of its blocks in row order, then `perm_c`,
    then `phases_c`. The row subsets come from successive draws without
    replacement of up to N // rows_per_block blocks each, so the blocks of
    a column have disjoint rows whenever they fit in N rows.

    Stored: `_rows` (nb, rows_per_block), one row per nonzero block in
    row-major order, and `_perm` and `_phases` (col_blocks, N), one row
    per column block; `_blocks[(r, c)]` holds views
    `(rows_rc, perm_c, phases_c)` into them.

    A product runs one batched FFT over the column blocks. It reads each
    column's permutation and phases from one of that column's blocks in
    `_blocks`, so a subclass that rebinds `_blocks` changes them; the
    block rows come from `_rows`. `apply` gathers and scales every block's
    rows and adds them into the output with one `np.add.at` in row-major
    block order, so each output entry gets its terms in block order, as
    one FFT per block would, and its floats are the same. The adjoint adds
    every block's scaled rows into the spectra with one `np.add.at`, runs
    one inverse FFT per column and gathers through the permutation; it
    matches one FFT per block to rounding.
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
        per_draw = N // nr
        for c, child in enumerate(_child_seeds(seed, W.cols)):
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
        # the key of one block of each column block that has any
        self._column_key = {c: (r, c) for r, c in self._nonzero}
        self._index = None

    def _scale(self, r, c):
        # sqrt(W/L) * sqrt(N) absorbed: fft is the unnormalized DFT,
        # i.e. sqrt(N) * unitary DFT, so only sqrt(W/L) is applied here.
        return np.sqrt(self.W.entries[r, c] / self.params.L)

    def _block_index(self):
        """Row block, column block and scale of each block in row-major
        order, and the flat indices of the block rows, in that order, in
        the output and in the stacked spectra. Built on the first product:
        in the constructor they would raise its peak memory above the
        stored arrays."""
        if self._index is None:
            r, c = np.array(self._nonzero, dtype=np.intp).reshape(-1, 2).T
            nr, N = self.rows_per_block, self.cols_per_block
            # 1-D, because np.add.at runs its fast loop only for a 1-D index
            out_flat = ((r * nr)[:, np.newaxis] + np.arange(nr)).reshape(-1)
            spec_flat = (self._rows + (c * N)[:, np.newaxis]).reshape(-1)
            self._index = r, c, self._scale(r, c)[:, np.newaxis], out_flat, spec_flat
        return self._index

    def apply(self, beta):
        self._check_apply_input(beta)
        N = self.cols_per_block
        _, _, scale, out_flat, spec_flat = self._block_index()
        beta_blocks = beta.reshape(self.W.cols, N)
        # the spectrum of a column without blocks is left unset: no block reads it
        buf = np.empty((self.W.cols, N), dtype=complex)
        vals = np.empty(N, dtype=complex)
        for col, key in self._column_key.items():
            _, perm, phases = self._blocks[key]
            np.multiply(phases, beta_blocks[col], out=vals)
            buf[col][perm] = vals
        np.fft.fft(buf, out=buf)
        g = buf.reshape(-1)[spec_flat].reshape(-1, self.rows_per_block)
        g *= scale
        out = np.zeros(self.n_rows, dtype=complex)
        # add.at adds the terms one at a time in block order, as a loop would
        np.add.at(out, out_flat, g.reshape(-1))
        return out

    def apply_scaled_adjoint(self, S, z):
        self._check_adjoint_input(z)
        S = _check_scaling(S, (self.W.rows, self.W.cols))
        N = self.cols_per_block
        r, c, scale, _, spec_flat = self._block_index()
        z_blocks = z.reshape(self.W.rows, self.rows_per_block)
        # the spectra are built in the output itself: one array of this
        # size per call, not two, so the allocator keeps reusing its pages
        out = np.zeros(self.n_cols, dtype=complex)
        out_blocks = out.reshape(self.W.cols, N)
        terms = (S[r, c][:, np.newaxis] * scale) * z_blocks[r]
        # add.at: row subsets from different draws of one column may overlap
        np.add.at(out, spec_flat, terms.reshape(-1))
        # unscaled inverse DFT: the conjugate-transpose of fft
        np.fft.ifft(out_blocks, norm="forward", out=out_blocks)
        gathered = np.empty(N, dtype=complex)
        conj = np.empty(N, dtype=complex)
        for col, key in self._column_key.items():
            _, perm, phases = self._blocks[key]
            # perm is in range, so "wrap" only skips take's bounds check
            np.take(out_blocks[col], perm, out=gathered, mode="wrap")
            np.conjugate(phases, out=conj)
            np.multiply(conj, gathered, out=out_blocks[col])
        return out


def build_gaussian_design(
    params: SparcParams, W: BaseMatrix, seed, field: str = "real"
) -> DenseGaussianDesign:
    return DenseGaussianDesign(params, W, seed, field=field)


def build_dft_design(params: SparcParams, W: BaseMatrix, seed) -> DftDesign:
    return DftDesign(params, W, seed)
