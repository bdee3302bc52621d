"""Message vectors, hard decisions, and error metrics.

A message vector has L sections of M entries each, with exactly one entry
per section set to 1. The AMP decoder produces soft (posterior-mean)
estimates whose sections are probability vectors; hard decisions take the
per-section argmax with ties broken toward the lowest index.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "random_message",
    "hard_decision",
    "section_error_rate",
    "nmse",
]


def random_message(M: int, L: int, seed) -> np.ndarray:
    """Draw a uniform random message vector of length M*L.

    The nonzero position of each section is independent and uniform over
    the M entries. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    beta = np.zeros(L * M)
    idx = rng.integers(0, M, size=L)
    beta[np.arange(L) * M + idx] = 1.0
    return beta


def hard_decision(est: np.ndarray, M: int) -> np.ndarray:
    """Per-section argmax decision (ties go to the lowest index)."""
    if est.size % M != 0:
        raise ValueError("vector length must be a multiple of M")
    sections = est.reshape(-1, M)
    idx = sections.argmax(axis=1)  # np.argmax returns the first maximum
    out = np.zeros_like(sections, dtype=float)
    out[np.arange(sections.shape[0]), idx] = 1.0
    return out.ravel()


def section_error_rate(decoded: np.ndarray, truth: np.ndarray, M: int) -> float:
    """Fraction of sections where decoded and truth differ."""
    if decoded.shape != truth.shape:
        raise ValueError("decoded and truth must have the same shape")
    if decoded.size % M != 0:
        raise ValueError("vector length must be a multiple of M")
    diff = (decoded != truth).reshape(-1, M).any(axis=1)
    return float(diff.mean())


def nmse(
    est: np.ndarray, truth: np.ndarray, col_blocks: int = 1
) -> tuple[float, np.ndarray]:
    """Normalized MSE per column block and overall.

    per_block[c] = ||est_c - truth_c||^2 / (L/C) where L is the number of
    sections, inferred from the truth vector. The overall value is the mean
    of the per-block values, which equals ||est - truth||^2 / L.
    """
    if est.shape != truth.shape:
        raise ValueError("est and truth must have the same shape")
    n_sections = int(truth.sum().real)  # one unit entry per section
    if n_sections % col_blocks != 0:
        raise ValueError("number of column blocks must divide L")
    # |est - truth|^2 in place (a complex difference needs one real array)
    sq = est - truth
    if np.iscomplexobj(sq):
        sq = np.abs(sq)
    np.square(sq, out=sq)
    per_block = sq.reshape(col_blocks, -1).sum(axis=1) / (n_sections / col_blocks)
    return float(per_block.mean()), per_block
