"""Reference state-evolution code, used as test oracles.

`LogsumexpSectionExpectation` is the straightforward form of
`scsparc.state_evolution.SectionExpectation`: it draws the same sample for
the same (M, n_samples, seed) and evaluates each tau, one at a time, with
`scipy.special.logsumexp` over the full sample matrix and a sign-split
sigmoid. `mc_expectation_E` is the plain Monte-Carlo estimator with no
quadrature, for checks against an independent estimator.

`reference_run_se` and `reference_run_cs_se` are the SPARC and the
compressed-sensing recursions as two separate loops, each with its own
phi and tau written out, against which the package's one shared loop is
checked.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import logsumexp

from scsparc.cs_amp import cs_mse_expectation
from scsparc.state_evolution import DEFAULT_MC_SAMPLES, SectionExpectation


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


def reference_run_se(
    W, params, threshold=1e-4, t_max=200, mc_samples=DEFAULT_MC_SAMPLES, seed=0
):
    """SPARC state evolution from psi = 1 until every psi_c <= threshold or
    t_max steps: phi_r = sigma2 + (1/C) sum_c W_rc psi_c, tau_c = (R/ln M)
    / mean_r(W_rc/phi_r) and psi_next_c = 1 - E(tau_c), with E evaluated
    once per step on the first tau of each 12-significant-digit key."""
    expectation = SectionExpectation(params.M, mc_samples, seed)
    Wm = W.entries
    psi_hist = [np.ones(W.cols)]
    phi_hist, tau_hist = [], []
    reached = bool(np.all(psi_hist[0] <= threshold))
    t = 0
    while not reached and t < t_max:
        phi = params.sigma2 + Wm @ psi_hist[-1] / W.cols
        tau = (params.R / math.log(params.M)) / (Wm / phi[:, np.newaxis]).mean(axis=0)
        slot_of, distinct = {}, []
        slots = np.empty(W.cols, dtype=np.intp)
        for c, tc in enumerate(tau):
            key = f"{tc:.11e}"
            if key not in slot_of:
                slot_of[key] = len(distinct)
                distinct.append(tc)
            slots[c] = slot_of[key]
        psi_next = np.clip(1.0 - expectation(np.array(distinct))[slots], 0.0, 1.0)
        phi_hist.append(phi)
        tau_hist.append(tau)
        psi_hist.append(psi_next)
        reached = bool(np.all(psi_next <= threshold))
        t += 1
    return SimpleNamespace(
        psi=np.array(psi_hist),
        phi=np.array(phi_hist).reshape(t, W.rows),
        tau=np.array(tau_hist).reshape(t, W.cols),
        reached_threshold=reached,
    )


def reference_run_cs_se(model, denoiser, t_max=50):
    """Compressed-sensing state evolution from psi = E[beta^2] for t_max
    steps: phi_r = sigma2 + (mc/mr) sum_c W_rc psi_c, tau_c = 1 / sum_r
    W_rc/phi_r and psi_next_c the denoiser's MSE at tau_c."""
    W = model.W
    psi = np.full(model.cols, model.prior.second_moment)
    psis, phis, taus = [psi], [], []
    for _ in range(t_max):
        phi = model.sigma2 + (model.cols_per_block / model.rows_per_block) * (W @ psi)
        tau = 1.0 / ((W / phi[:, np.newaxis]).sum(axis=0))
        psi = np.array([cs_mse_expectation(denoiser, model.prior, t) for t in tau])
        phis.append(phi)
        taus.append(tau)
        psis.append(psi)
    return SimpleNamespace(psi=np.array(psis), phi=np.array(phis), tau=np.array(taus))
