"""AWGN channel simulation and SNR bookkeeping."""

from __future__ import annotations

import math

import numpy as np

from .params import LN2

__all__ = ["transmit", "ebn0_db", "snr_from_db"]


def transmit(x: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """y = x + w with i.i.d. Gaussian noise; deterministic under seed.

    The noise is complex exactly when x is. For the complex field, sigma2 is
    the total variance per complex symbol (split equally between real and
    imaginary parts), so snr = 1/sigma2 has the same meaning in both fields.
    """
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    rng = np.random.default_rng(seed)
    if np.iscomplexobj(x):
        std = math.sqrt(sigma2 / 2.0)
        w = std * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    else:
        w = math.sqrt(sigma2) * rng.standard_normal(x.size)
    return x + w


def ebn0_db(R: float, snr: float) -> float:
    """Eb/N0 = snr / (2 * R_bits) in dB, for rate R in nats per real dimension.

    The same formula holds in both fields: a complex symbol carries two
    real dimensions, 2 * R_bits bits, at snr = 1/sigma2.
    """
    if R <= 0:
        raise ValueError("rate must be positive")
    return 10.0 * math.log10(snr / (2.0 * R / LN2))


def snr_from_db(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)
