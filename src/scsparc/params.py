"""Base matrices and code parameters for spatially coupled SPARCs.

A spatially coupled SPARC is defined by a nonnegative R x C base matrix W
(a variance profile for the blocks of the design matrix) together with the
code dimensions (n, M, L). The band-diagonal family used here is
parameterised by a coupling width omega, a coupling length Lambda, and a
fraction rho of the power spread uniformly over the off-band entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CouplingParams",
    "BaseMatrix",
    "SparcParams",
    "build_base_matrix",
    "derive_code_params",
    "is_power_of_2",
]

LN2 = math.log(2.0)


def is_power_of_2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CouplingParams:
    """Band-diagonal coupling structure (omega, Lambda, rho).

    omega : coupling width, number of nonzero band entries per column
    Lambda: coupling length, number of columns of the base matrix
    rho   : fraction of power spread over the off-band entries, in [0, 1)
    """

    omega: int
    Lambda: int
    rho: float = 0.0

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        if self.Lambda < 2 * self.omega - 1:
            raise ValueError(
                f"Lambda must be >= 2*omega-1 = {2 * self.omega - 1}, got {self.Lambda}"
            )
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.rho > 0.0 and self.Lambda < 2:
            raise ValueError("rho > 0 needs Lambda >= 2 (no off-band entries otherwise)")

    @property
    def vartheta(self) -> float:
        """Rate-loss factor 1 + (omega-1)/Lambda."""
        return 1.0 + (self.omega - 1) / self.Lambda

    @property
    def rows(self) -> int:
        return self.Lambda + self.omega - 1

    @property
    def cols(self) -> int:
        return self.Lambda


@dataclass(frozen=True)
class BaseMatrix:
    """R x C variance profile with average power P.

    Entries are nonnegative and satisfy mean(W) == P (relative 1e-12).
    """

    entries: np.ndarray
    avg_power: float

    def __post_init__(self):
        W = np.asarray(self.entries, dtype=float)
        if W.ndim != 2:
            raise ValueError("base matrix must be 2-dimensional")
        if np.any(W < 0):
            raise ValueError("base matrix entries must be nonnegative")
        if not np.isclose(W.mean(), self.avg_power, rtol=1e-12, atol=0):
            raise ValueError(
                f"mean of base matrix entries ({W.mean()!r}) must equal "
                f"the average power ({self.avg_power!r})"
            )
        W = W.copy()
        W.setflags(write=False)
        object.__setattr__(self, "entries", W)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def build_base_matrix(coupling: CouplingParams, P: float) -> BaseMatrix:
    """Construct the (omega, Lambda, rho) base matrix with average power P.

    Column c has omega band entries (rows c..c+omega-1) equal to
    (1-rho)*P*(Lambda+omega-1)/omega; every other entry equals
    rho*P*(Lambda+omega-1)/(Lambda-1). The mean over all entries is P.
    """
    if P <= 0:
        raise ValueError(f"average power must be positive, got {P}")
    omega, Lambda, rho = coupling.omega, coupling.Lambda, coupling.rho
    rows = Lambda + omega - 1
    band_val = (1.0 - rho) * P * rows / omega
    if rho == 0.0:
        off_val = 0.0
    else:
        off_val = rho * P * rows / (Lambda - 1)
    W = np.full((rows, Lambda), off_val)
    for c in range(Lambda):
        W[c : c + omega, c] = band_val
    return BaseMatrix(entries=W, avg_power=P)


@dataclass(frozen=True)
class SparcParams:
    """Dimensions and rate of a spatially coupled SPARC.

    n counts real channel dimensions (a complex-field code uses n/2 complex
    symbols). R is the rate in nats per real dimension and satisfies
    R = L*ln(M)/n. P and sigma2 are the per-dimension average power and
    noise variance (per complex symbol in the complex field, which leaves
    snr = P/sigma2 unchanged).
    """

    n: int
    M: int
    L: int
    base: BaseMatrix
    P: float
    sigma2: float
    R: float = field(init=False)

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if self.L % self.base.cols != 0:
            raise ValueError(
                f"number of column blocks ({self.base.cols}) must divide L ({self.L})"
            )
        if self.n <= 0 or self.n % self.base.rows != 0:
            raise ValueError(
                f"number of row blocks ({self.base.rows}) must divide n ({self.n})"
            )
        if self.P <= 0 or self.sigma2 <= 0:
            raise ValueError("P and sigma2 must be positive")
        object.__setattr__(self, "R", self.L * math.log(self.M) / self.n)

    @property
    def row_blocks(self) -> int:
        return self.base.rows

    @property
    def col_blocks(self) -> int:
        return self.base.cols

    @property
    def sections_per_block(self) -> int:
        return self.L // self.base.cols

    @property
    def snr(self) -> float:
        return self.P / self.sigma2

    @property
    def rate_bits(self) -> float:
        return self.R / LN2


def derive_code_params(
    target_rate: float,
    M: int,
    coupling: CouplingParams,
    L: int,
    P: float,
    sigma2: float,
    even: bool = False,
) -> SparcParams:
    """Pick the code length n for a target rate (nats per real dimension).

    n = L*ln(M)/target_rate is rounded to the nearest multiple of the number
    of row blocks (Lambda+omega-1), so the realized rate L*ln(M)/n can fall
    slightly on either side of the target. With M=512, L=2048, omega=6,
    Lambda=32 and a 1.5 bit target this yields n = 12284. With even=True the
    rounding unit is doubled so n splits into complex symbol pairs.
    """
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    if M < 2:
        raise ValueError("M must be >= 2")
    if L % coupling.Lambda != 0:
        raise ValueError(f"L ({L}) must be a multiple of Lambda ({coupling.Lambda})")
    rows = coupling.rows
    unit = rows * 2 if (even and rows % 2 == 1) else rows
    n_raw = L * math.log(M) / target_rate
    n = int(round(n_raw / unit)) * unit
    if n == 0:
        raise ValueError("target rate too large: rounded code length is zero")
    base = build_base_matrix(coupling, P)
    return SparcParams(n=n, M=M, L=L, base=base, P=P, sigma2=sigma2)
