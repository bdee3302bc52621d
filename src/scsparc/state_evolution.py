"""State evolution for the AMP decoder.

The recursion tracks, per iteration, the residual variance phi_r of each
row block, the effective observation noise tau_c at the denoiser for each
column block, and the predicted per-block NMSE psi_c. The expectation that
drives psi is evaluated by Monte Carlo with common random numbers, so a
whole trajectory reuses one sample of section noise and the monotonicity
of the recursion is preserved. An asymptotic (large section size) variant
replaces the expectation with a 0/1 threshold and yields the analytic
decoding-wave predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import BaseMatrix, CouplingParams, SparcParams

__all__ = [
    "normal_quadrature",
    "SectionExpectation",
    "column_tau",
    "se_step",
    "run_se",
    "SeTrajectory",
    "asymptotic_se",
    "ProgressionReport",
    "progression_report",
]

DEFAULT_MC_SAMPLES = 10_000
# sample rows per block of a SectionExpectation call
_ROW_BLOCK = 256
# exponent k of the progression report's NMSE floor M^(-k delta^2); theory
# does not pin it down
NMSE_FLOOR_K = 1.0


@lru_cache(maxsize=None)
def normal_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum_k w_k f(x_k) ~ E f(G), G ~ N(0, 1):
    n-node Gauss-Hermite, computed once per node count (read-only)."""
    nodes, wts = np.polynomial.hermite.hermgauss(n_nodes)
    x = math.sqrt(2.0) * nodes
    w = wts / math.sqrt(math.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class SectionExpectation:
    """Expected posterior mass on the correct entry of a section.

    For a section observed in Gaussian noise of effective variance tau, the
    denoiser puts mass exp(U_1/sqrt(tau)) / (exp(U_1/sqrt(tau)) +
    exp(-1/tau) * sum_{j>=2} exp(U_j/sqrt(tau))) on the true entry, with
    U_1..U_M standard normal. Instances hold one fixed sample matrix, so
    repeated calls across tau values share the same randomness.

    The true-entry coordinate U_1 is integrated out exactly by
    Gauss-Hermite quadrature; Monte Carlo is only over the interference
    term sum_{j>=2} exp(U_j/sqrt(tau)). This cuts the estimator variance
    by orders of magnitude, which matters because errors in the expectation
    compound across state-evolution iterations and shift the predicted
    decoding wave.

    The sample is stored centred: each row's maximum umax is kept apart
    and subtracted from the row, so b * (U_j - umax) <= 0 for b > 0 and
    the log interference sum b * umax + log sum_j exp(b * (U_j - umax))
    never overflows (the sum is at least 1).

    A call takes one tau (and returns a float) or a 1-D array of taus (and
    returns an array of the same length). It walks the sample once: fixed
    blocks of _ROW_BLOCK rows on the outside and the taus on the inside,
    so each block is read from cache for every tau after the first. Row
    sums are products with a vector of ones, which BLAS computes faster
    than a reduction. The work goes through buffers kept between calls
    (the per-tau results grow with the largest batch seen), so a call
    allocates nothing sample-sized once a batch of its size has been seen.
    The buffers make an instance unsafe to call from two threads at once.
    """

    GH_NODES = 64

    def __init__(self, M: int, n_samples: int = DEFAULT_MC_SAMPLES, seed=0):
        if M < 2:
            raise ValueError("M must be >= 2")
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        self.M = M
        self.n_samples = n_samples
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((n_samples, M - 1))
        self._umax = U.max(axis=1)
        U -= self._umax[:, np.newaxis]
        self._Uc = U
        self._gh_x, self._gh_w = normal_quadrature(self.GH_NODES)
        rows = min(_ROW_BLOCK, n_samples)
        self._ones = np.ones(M - 1)
        self._exp_buf = np.empty((rows, M - 1))
        self._gh_buf = np.empty((rows, self.GH_NODES))
        # rows (log_s, 1): see __call__
        self._log_s1 = np.ones((2, rows))
        # one row of per-sample values per tau of a call
        self._vals = np.empty((1, n_samples))

    def __call__(self, tau):
        taus = np.asarray(tau, dtype=float)
        if taus.ndim > 1:
            raise ValueError("tau must be a number or a 1-D array")
        taus = taus.reshape(-1)
        bad = taus[~((taus > 0) & np.isfinite(taus))]
        if bad.size:
            raise ValueError(f"tau must be positive and finite, got {bad[0]}")
        if self._vals.shape[0] < taus.size:
            self._vals = np.empty((taus.size, self.n_samples))
        b = 1.0 / np.sqrt(taus)
        # E = mean over samples and quadrature nodes of sigmoid(arg), with
        # arg = 1/tau + x_k*b - log_s the log-odds of the true entry.
        # -arg = (log_s, 1) @ (1, -node_shift): a product with exact terms,
        # so each entry is the one rounded difference log_s - node_shift,
        # without numpy's slow broadcasting loop
        node_shift = (1.0 / taus)[:, np.newaxis] + self._gh_x * b[:, np.newaxis]
        nodes = np.ones((taus.size, 2, self.GH_NODES))
        np.negative(node_shift, out=nodes[:, 1])
        with np.errstate(over="ignore"):
            for lo in range(0, self.n_samples, _ROW_BLOCK):
                hi = min(lo + _ROW_BLOCK, self.n_samples)
                Uc, umax = self._Uc[lo:hi], self._umax[lo:hi]
                e = self._exp_buf[: hi - lo]
                log_s1 = self._log_s1[:, : hi - lo]
                log_s = log_s1[0]
                z = self._gh_buf[: hi - lo]
                for i in range(taus.size):
                    # log of the interference sum, per Monte Carlo sample
                    np.multiply(Uc, b[i], out=e)
                    np.exp(e, out=e)
                    np.matmul(e, self._ones, out=log_s)
                    np.log(log_s, out=log_s)
                    log_s += b[i] * umax
                    # sigmoid(arg) = 1/(1 + exp(-arg)); exp overflow gives 0
                    np.matmul(log_s1.T, nodes[i], out=z)
                    np.exp(z, out=z)
                    z += 1.0
                    np.reciprocal(z, out=z)
                    np.matmul(z, self._gh_w, out=self._vals[i, lo:hi])
        E = np.array([self._vals[i].mean() for i in range(taus.size)])
        return float(E[0]) if np.ndim(tau) == 0 else E


def column_tau(W: np.ndarray, phi: np.ndarray, scale: float) -> np.ndarray:
    """tau_c = scale * [(1/R_blocks) sum_r W_rc/phi_r]^{-1} per column block.

    SPARC state evolution passes scale = R/ln M and its decoder's sources
    L/n, equal in exact arithmetic but not always in the last bit, so each
    keeps its own; compressed sensing passes 1/R_blocks.
    """
    col_info = (W / phi[:, np.newaxis]).mean(axis=0)
    if np.any(col_info <= 0):
        raise ZeroDivisionError("a base-matrix column is identically zero")
    return scale / col_info


def _phi_tau(W: np.ndarray, psi: np.ndarray, sigma2: float, d: float, scale: float):
    """phi_r = sigma2 + (1/d) sum_c W_rc psi_c and tau_c = column_tau(W, phi,
    scale), the noise levels of SPARC and compressed-sensing SE alike."""
    phi = sigma2 + W @ psi / d
    return phi, column_tau(W, phi, scale)


def se_step(
    psi: np.ndarray, params: SparcParams, expectation: SectionExpectation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One state-evolution step of the code `params` (its base matrix W,
    sigma2, R and M); returns (phi, tau, psi_next).

    phi_r = sigma2 + (1/C) sum_c W_rc psi_c
    tau_c = (R/ln M) * [(1/R_blocks) sum_r W_rc/phi_r]^{-1}
    psi_next_c = 1 - E(tau_c)

    E is called once per step, on the distinct taus: columns whose taus
    agree to 12 significant digits share the value at the first of them.
    """
    psi = np.asarray(psi, dtype=float)
    if np.any((psi < 0) | (psi > 1)):
        raise ValueError("psi entries must lie in [0, 1]")
    W = params.base
    phi, tau = _phi_tau(W.entries, psi, params.sigma2, W.cols, params.R / math.log(params.M))
    # mirror columns get taus that differ by about 1 ulp: evaluate the
    # first tau seen for each 12-significant-digit key, all in one call
    slot_of: dict[str, int] = {}
    distinct = []
    slots = np.empty(W.cols, dtype=np.intp)
    for c, t in enumerate(tau):
        key = f"{t:.11e}"
        if key not in slot_of:
            slot_of[key] = len(distinct)
            distinct.append(t)
        slots[c] = slot_of[key]
    psi_next = 1.0 - expectation(np.array(distinct))[slots]
    return phi, tau, np.clip(psi_next, 0.0, 1.0)


@dataclass
class SeTrajectory:
    """Per-iteration arrays of `run_se` or of `cs_amp.run_cs_se`.

    psi has shape (T+1, C); phi (T, R) and tau (T, C) hold in row t the
    values used to produce psi[t+1]. For SPARC psi is the per-block NMSE
    from psi[0] = 1; sigma = phi - sigma2 and nu = 1/(tau ln M) follow. For
    compressed sensing psi is the per-coordinate MSE from the prior's
    second moment, and reached_threshold is False (no threshold applies).
    """

    psi: np.ndarray
    phi: np.ndarray
    tau: np.ndarray
    reached_threshold: bool

    @property
    def iterations(self) -> int:
        return self.phi.shape[0]

    @property
    def mse_pred(self) -> np.ndarray:
        """Predicted error per coordinate at each iteration."""
        return self.psi.mean(axis=1)


def _iterate(step, psi0: np.ndarray, rows: int, t_max: int, threshold=-math.inf) -> SeTrajectory:
    """The recursion psi -> step(psi) = (phi, tau, psi_next), phi of length
    rows, from psi0 for t_max >= 0 steps or until every psi_c <= threshold."""
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    psi_hist, phi_hist, tau_hist = [psi0], [], []
    while not np.all(psi_hist[-1] <= threshold) and len(phi_hist) < t_max:
        phi, tau, psi = step(psi_hist[-1])
        phi_hist.append(phi)
        tau_hist.append(tau)
        psi_hist.append(psi)
    t = len(phi_hist)
    return SeTrajectory(
        psi=np.array(psi_hist),
        phi=np.array(phi_hist).reshape(t, rows),
        tau=np.array(tau_hist).reshape(t, psi0.size),
        reached_threshold=bool(np.all(psi_hist[-1] <= threshold)),
    )


def run_se(
    params: SparcParams,
    threshold: float = 1e-4,
    t_max: int = 200,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed=0,
) -> SeTrajectory:
    """Iterate state evolution of the code `params` from psi = 1 until
    every psi_c <= threshold or t_max steps.

    Common random numbers are reused across all tau evaluations of the run.
    """
    # threshold == 1 is allowed as the trivial stop-at-start case
    if not 0.0 < threshold <= 1.0:
        raise ValueError("stop threshold must lie in (0, 1]")
    expectation = SectionExpectation(params.M, mc_samples, seed)
    W = params.base
    return _iterate(
        lambda psi: se_step(psi, params, expectation), np.ones(W.cols), W.rows, t_max, threshold
    )


def asymptotic_se(
    W: BaseMatrix, R: float, sigma2: float, t_max: int | None = None
) -> np.ndarray:
    """Large-M state evolution: psi is 0/1 per block.

    psi_c flips to 0 once (1/(R * R_blocks)) sum_r W_rc/phi_r exceeds 2.
    Returns the psi trajectory, shape (T+1, C); iteration stops when psi
    stops changing or everything is decoded.
    """
    Wm = W.entries
    if t_max is None:
        t_max = 2 * W.cols + 10
    psi = np.ones(W.cols)
    hist = [psi.copy()]
    for _ in range(t_max):
        phi = sigma2 + Wm @ psi / W.cols
        stat = (Wm / phi[:, np.newaxis]).sum(axis=0) / (R * W.rows)
        psi_next = np.where(stat > 2.0, 0.0, 1.0)
        hist.append(psi_next)
        if np.array_equal(psi_next, psi):
            break
        psi = psi_next
        if not psi.any():
            break
    return np.array(hist)


@dataclass(frozen=True)
class ProgressionReport:
    """Analytic decoding-progression quantities for an (omega, Lambda) code.

    Delta is the gap between the coupled capacity expression and the rate;
    g is the predicted decoding-wave speed in column blocks per iteration,
    valid when omega exceeds omega_min. f_M_delta is the NMSE floor used to
    declare a block decoded.
    """

    vartheta: float
    Delta: float
    rho_star: float
    g: float
    omega_min: float
    T_bound: int | None
    delta_star: float
    f_M_delta: float
    feasible: bool


def progression_report(
    R: float, snr: float, omega: int, Lambda: int, M: int
) -> ProgressionReport:
    """Evaluate the decoding-progression formulas (rate R in nats), with
    NMSE_FLOOR_K as the floor's exponent constant."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    coupling = CouplingParams(omega=omega, Lambda=Lambda)
    vartheta = coupling.vartheta
    Delta = 0.5 / vartheta * math.log1p(vartheta * snr) - R
    rho_star = min(Delta / (3.0 * snr), 0.5) if Delta > 0 else 0.0
    g = (1.0 + vartheta * snr) * Delta / (vartheta * snr**2) * omega
    omega_min = (vartheta * snr**2 / (1.0 + vartheta * snr)) / Delta if Delta > 0 else math.inf
    feasible = Delta > 0 and omega > omega_min
    T_bound = math.ceil(Lambda / (2.0 * g)) if g > 0 else None
    delta_star = min(Delta / (3.0 * R), 1.0 / 3.0) if Delta > 0 else 1.0 / 3.0
    f_M_delta = M ** (-NMSE_FLOOR_K * delta_star**2) / (delta_star * math.sqrt(math.log(M)))
    return ProgressionReport(
        vartheta=vartheta,
        Delta=Delta,
        rho_star=rho_star,
        g=g,
        omega_min=omega_min,
        T_bound=T_bound,
        delta_star=delta_star,
        f_M_delta=f_M_delta,
        feasible=feasible,
    )
