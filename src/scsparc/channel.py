"""AWGN channel simulation and SNR bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import LN2

__all__ = ["ChannelParams", "transmit", "ebn0_db", "snr_from_db"]


@dataclass(frozen=True)
class ChannelParams:
    """Noise variance and power for the AWGN channel.

    For the complex field, sigma2 is the total variance per complex symbol
    (split equally between real and imaginary parts), so snr = P/sigma2 has
    the same meaning in both fields.
    """

    sigma2: float
    P: float
    field: str = "real"

    def __post_init__(self):
        for name in ("sigma2", "P"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def snr(self) -> float:
        return self.P / self.sigma2


def transmit(x: np.ndarray, ch: ChannelParams, seed) -> np.ndarray:
    """y = x + w with i.i.d. Gaussian noise; deterministic under seed."""
    rng = np.random.default_rng(seed)
    if ch.field == "complex":
        std = math.sqrt(ch.sigma2 / 2.0)
        w = std * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    else:
        w = math.sqrt(ch.sigma2) * rng.standard_normal(x.size)
    return x + w


def ebn0_db(R: float, snr: float, field: str = "real") -> float:
    """Eb/N0 in dB for rate R in nats per dimension.

    Real signaling uses snr / (2 * R_bits) with R per real dimension;
    complex signaling uses snr / R_bits with R per complex dimension.
    The convention is recorded alongside experiment outputs since the two
    differ in their per-dimension accounting.
    """
    if R <= 0:
        raise ValueError("rate must be positive")
    r_bits = R / LN2
    if field == "complex":
        ratio = snr / r_bits
    else:
        ratio = snr / (2.0 * r_bits)
    return 10.0 * math.log10(ratio)


def snr_from_db(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)
