"""Reference section-expectation estimators, used as test oracles.

`LogsumexpSectionExpectation` is the straightforward form of
`scsparc.state_evolution.SectionExpectation`: it draws the same sample for
the same (M, n_samples, seed) and evaluates each tau, one at a time, with
`scipy.special.logsumexp` over the full sample matrix and a sign-split
sigmoid. `mc_expectation_E` is the plain Monte-Carlo estimator with no
quadrature, for checks against an independent estimator.
"""

import math

import numpy as np
from scipy.special import logsumexp

from scsparc.state_evolution import DEFAULT_MC_SAMPLES


class LogsumexpSectionExpectation:
    """Drop-in oracle for `SectionExpectation` (same sample, same estimate)."""

    GH_NODES = 64

    def __init__(self, M: int, n_samples: int = DEFAULT_MC_SAMPLES, seed=0):
        if M < 2:
            raise ValueError("M must be >= 2")
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        self.M = M
        self.n_samples = n_samples
        rng = np.random.default_rng(seed)
        self._U = rng.standard_normal((n_samples, M - 1))
        nodes, wts = np.polynomial.hermite.hermgauss(self.GH_NODES)
        self._gh_x = math.sqrt(2.0) * nodes
        self._gh_w = wts / math.sqrt(math.pi)

    def __call__(self, tau):
        """E at one tau, or at each entry of a 1-D array of taus."""
        if np.ndim(tau) == 1:
            return np.array([self._one(t) for t in tau])
        return self._one(tau)

    def _one(self, tau: float) -> float:
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        b = 1.0 / math.sqrt(tau)
        log_s = logsumexp(self._U * b, axis=1)
        arg = (1.0 / tau) + self._gh_x[np.newaxis, :] * b - log_s[:, np.newaxis]
        vals = _sigmoid(arg) @ self._gh_w
        return float(vals.mean())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def mc_expectation_E(
    tau: float, M: int, n_samples: int = DEFAULT_MC_SAMPLES, seed=0
) -> float:
    """Plain Monte Carlo estimate of the section expectation at tau.

    Draws n_samples sections of M standard normals and averages the
    posterior mass on the true entry, evaluated via logsumexp. Common
    random numbers across tau values: the sample depends only on the seed.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if M < 2:
        raise ValueError("M must be >= 2")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n_samples, M))
    x = U / math.sqrt(tau)
    x[:, 0] += 1.0 / tau
    vals = np.exp(x[:, 0] - logsumexp(x, axis=1))
    return float(vals.mean())
