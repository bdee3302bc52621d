"""AMP for compressed sensing with spatially coupled measurement matrices.

The measurement matrix has independent Gaussian blocks with variances given
by a base matrix whose columns sum to one; the signal prior is
Bernoulli-Gauss (zero with probability 1-eps, N(0, v) otherwise). State
evolution tracks the per-column-block mean squared error, with the scalar
expectations computed by Gauss-Hermite quadrature, and predicts the
per-iteration MSE of the matching AMP recursion. It is the SPARC recursion
with other constants: the same loop, phi/tau step and `column_tau`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import _draw_gaussian_rows
from .params import CouplingParams, build_base_matrix
from .state_evolution import SeTrajectory, _iterate, _phi_tau, column_tau, normal_quadrature

__all__ = [
    "BernoulliGaussPrior",
    "bernoulli_gauss_prior",
    "BgBayesDenoiser",
    "CsModel",
    "build_cs_base_matrix",
    "cs_design_matrix",
    "cs_mse_expectation",
    "cs_se_step",
    "run_cs_se",
    "cs_amp_decode",
    "CsDecodeResult",
]

GH_NODES = 64


@dataclass(frozen=True)
class BernoulliGaussPrior:
    """Zero with probability 1-eps, N(0, v) with probability eps."""

    eps: float
    v: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if not 0.0 < self.v < math.inf:
            raise ValueError(f"v must be positive and finite, got {self.v}")

    @property
    def second_moment(self) -> float:
        return self.eps * self.v

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """A component per entry (the atom at 0 with probability 1-eps, or
        N(0, v)), then a standard normal scaled by that component's
        standard deviation. The mean 0.0 is added so that an atom reads
        +0.0, never -0.0."""
        comp = rng.choice(2, size=size, p=(1.0 - self.eps, self.eps))
        return 0.0 + np.sqrt(np.array((0.0, self.v)))[comp] * rng.standard_normal(size)


def bernoulli_gauss_prior(eps: float, v: float) -> BernoulliGaussPrior:
    """The Bernoulli-Gauss prior BG(eps, v); raises ValueError unless
    0 < eps <= 1 and 0 < v < inf."""
    return BernoulliGaussPrior(eps, v)


class BgBayesDenoiser:
    """Posterior mean under a Bernoulli-Gauss prior in Gaussian noise.

    For s = beta + N(0, tau) with beta ~ BG(eps, v), the posterior mean is
    pi * kappa * s with kappa = v/(v+tau) and pi the posterior probability
    that beta is nonzero. With eps = 1 this is the Wiener filter kappa*s.
    """

    def __init__(self, eps: float, v: float):
        bernoulli_gauss_prior(eps, v)  # raises on an invalid eps or v
        self.eps = eps
        self.v = v

    def __call__(self, s: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        s = np.asarray(s, dtype=float)
        v, eps = self.v, self.eps
        kappa = v / (v + tau)
        if eps == 1.0:
            return kappa * s, np.full_like(s, kappa)
        # exponent clipped from below only through the stable 1/(1+e^x) form
        log_ratio = (
            math.log((1.0 - eps) / eps)
            + 0.5 * math.log((v + tau) / tau)
            - s * s * v / (2.0 * tau * (v + tau))
        )
        pi = 1.0 / (1.0 + np.exp(np.clip(log_ratio, -700, 700)))
        f = pi * kappa * s
        fprime = kappa * pi + kappa * s * s * pi * (1.0 - pi) * v / (tau * (v + tau))
        return f, fprime


@dataclass(frozen=True)
class CsModel:
    """Compressed-sensing problem: n noisy Gaussian measurements of a
    length-p signal, with blockwise measurement variances W_rc * R / n."""

    W: np.ndarray
    p: int
    n: int
    sigma2: float
    prior: BernoulliGaussPrior

    def __post_init__(self):
        W = np.ascontiguousarray(np.asarray(self.W, dtype=float))
        if W.ndim != 2 or not np.all(W >= 0):
            raise ValueError("W must be a nonnegative 2-dimensional array")
        if not W.any(axis=0).all():
            raise ValueError(f"W column {np.argmin(W.any(axis=0))} is all zero")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)
        for name in ("p", "n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.p % self.cols != 0:
            raise ValueError("number of column blocks must divide p")
        if self.n % self.rows != 0:
            raise ValueError("number of row blocks must divide n")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2}")

    @property
    def rows(self) -> int:
        return self.W.shape[0]

    @property
    def cols(self) -> int:
        return self.W.shape[1]

    @property
    def rows_per_block(self) -> int:
        return self.n // self.rows

    @property
    def cols_per_block(self) -> int:
        return self.p // self.cols


def build_cs_base_matrix(coupling: CouplingParams) -> np.ndarray:
    """Coupled base matrix with unit column sums (each column averages
    1/rows), obtained by rescaling the unit-power band construction."""
    base = build_base_matrix(coupling)
    return base.entries / base.rows


def cs_design_matrix(model: CsModel, seed) -> np.ndarray:
    """Dense measurement matrix with independent N(0, W_rc/(n/rows))
    entries in block (r, c). Columns have unit expected norm when the base
    matrix columns sum to one.

    Row block r is drawn from an SFC64 generator on child r of the seed
    straight into the matrix, and each block scaled while its rows are in
    cache, so the build holds one matrix and nothing more. Large matrices
    draw their row blocks on a thread per usable CPU, with the same values
    as one thread (`design._draw_gaussian_rows`)."""
    A = np.empty((model.n, model.p))
    mr = model.rows_per_block
    scales = np.sqrt(model.W / mr)
    _draw_gaussian_rows([A[r * mr : (r + 1) * mr] for r in range(model.rows)], scales, seed)
    return A


def cs_mse_expectation(denoiser, prior: BernoulliGaussPrior, tau: float) -> float:
    """E[(f(beta + sqrt(tau) G) - beta)^2] for beta ~ prior, G ~ N(0,1),
    by tensor-product Gauss-Hermite quadrature: the atom's part is a 1D
    rule at beta = 0, added before the Gaussian part (at eps = 1 it is
    0 times a finite value, so the sum is the Gaussian part exactly).
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    g, wn = normal_quadrature(GH_NODES)

    def part(beta, wb):
        s = beta[:, np.newaxis] + math.sqrt(tau) * g[np.newaxis, :]
        f, _ = denoiser(s, tau)
        return float(wb @ ((f - beta[:, np.newaxis]) ** 2) @ wn)

    gauss = prior.eps * part(math.sqrt(prior.v) * g, wn)
    return (1.0 - prior.eps) * part(np.zeros(1), np.ones(1)) + gauss


def cs_se_step(
    psi: np.ndarray, model: CsModel, denoiser
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One state-evolution step: effective noise phi_r per row block,
    observation variance tau_c per column block, and the next per-block
    MSE psi of the denoiser on signals drawn from model.prior (which need
    not be the prior the denoiser assumes). phi and tau are SPARC's, with
    d = mr/mc and scale 1/R_blocks, so tau_c = 1 / sum_r W_rc/phi_r."""
    d = model.rows_per_block / model.cols_per_block
    phi, tau = _phi_tau(model.W, psi, model.sigma2, d, 1.0 / model.rows)
    psi_next = np.array([cs_mse_expectation(denoiser, model.prior, t) for t in tau])
    return phi, tau, psi_next


def run_cs_se(model: CsModel, denoiser, t_max: int = 50) -> SeTrajectory:
    """Iterate state evolution from psi = E[beta^2] for t_max steps."""
    psi0 = np.full(model.cols, model.prior.second_moment)
    return _iterate(lambda psi: cs_se_step(psi, model, denoiser), psi0, model.rows, t_max)


@dataclass
class CsDecodeResult:
    x_hat: np.ndarray
    iterations: int
    mse_trace: np.ndarray | None  # empirical per-coordinate MSE, if truth given
    phi_trace: np.ndarray
    tau_trace: np.ndarray


def cs_amp_decode(
    A: np.ndarray,
    y: np.ndarray,
    model: CsModel,
    denoiser,
    t_max: int = 50,
    x_true: np.ndarray | None = None,
) -> CsDecodeResult:
    """AMP with blockwise coefficients estimated online from the residual.

    z^t = y - A x^t + upsilon ⊙ z^{t-1}; the per-row-block Onsager term is
    the trace of the denoiser Jacobian weighted by the previous block
    coefficients. The effective observation is s = x^t + (Q ⊙ A)^T z^t with
    Q_rc = tau_c / phi_r, and x^{t+1} = f(s) per column block. It runs
    exactly t_max >= 0 iterations; the traces have one row per iteration.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    mr, mc = model.rows_per_block, model.cols_per_block
    W = model.W
    x = np.zeros(model.p)
    z = y.copy()
    mse_rows = []
    phis, taus = [], []

    for t in range(t_max):
        if t > 0:
            upsilon = (mc / mr) * (W @ (taus[-1] * fmean)) / phis[-1]
            z = y - A @ x + np.repeat(upsilon, mr) * z
        phi = (z * z).reshape(model.rows, mr).mean(axis=1)
        tau = column_tau(W, phi, 1.0 / model.rows)
        # Q = outer(1/phi, tau) is rank one, so (Q ⊙ A)^T z factorizes
        s = x + np.repeat(tau, mc) * (A.T @ (z / np.repeat(phi, mr)))
        x_new = np.empty_like(x)
        fmean = np.empty(model.cols)
        for c in range(model.cols):
            sl = slice(c * mc, (c + 1) * mc)
            f, fp = denoiser(s[sl], tau[c])
            x_new[sl] = f
            fmean[c] = fp.mean()
        x = x_new
        phis.append(phi)
        taus.append(tau)
        if x_true is not None:
            mse_rows.append(float(np.mean((x - x_true) ** 2)))

    return CsDecodeResult(
        x_hat=x,
        iterations=t_max,
        mse_trace=np.array(mse_rows) if x_true is not None else None,
        phi_trace=np.array(phis).reshape(t_max, model.rows),
        tau_trace=np.array(taus).reshape(t_max, model.cols),
    )
