"""AMP decoder for spatially coupled SPARCs.

Each iteration forms a modified residual z with a blockwise memory term,
produces the effective observation s = beta + (S ⊙ A)* z, and applies the
per-section posterior-mean denoiser. The blockwise coefficients come from
state evolution, either precomputed offline or estimated online from the
decoder's own iterates (the default; it gives slightly better error
performance and needs no precomputation).

In the complex field the residual quantities are per complex symbol and the
effective observation noise is 2*tau in total, so the denoiser sees the
real part with variance tau; the same real-valued state evolution applies.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .design import DesignOperator
from .message import hard_decision, nmse, section_error_rate
from .params import BaseMatrix, SparcParams
from .state_evolution import SeTrajectory, column_tau

__all__ = [
    "AmpConfig",
    "DecoderState",
    "DecodeDiagnostics",
    "OfflineSeSource",
    "OnlineSeSource",
    "eta_denoise",
    "amp_iterate",
    "should_stop",
    "decode",
]

# amp_iterate's stages: residual (with the forward product), adjoint (the
# effective observation), denoiser, and the state-evolution source. On the
# dense operator the residual pass also forms the adjoint's products, so
# "residual" holds them and "adjoint" only their scaled sum.
STAGES = ("residual", "adjoint", "denoise", "se_update")
PHI_CLAMP_FACTOR = 1e-12
# decode stops as diverged once some phi exceeds this multiple of
# sigma2 + max_r mean_c W[r, c]
DIVERGENCE_FACTOR = 10.0
# decode stops once phi settles for this many consecutive iteration pairs
STOP_WINDOW = 2


@dataclass
class AmpConfig:
    """Decoder knobs: the iteration cap, and the relative change of phi
    below which decode counts an iteration pair as settled (STOP_WINDOW
    settled pairs in a row stop it). The tolerance is a default, not a
    value pinned by theory; a tolerance of 0 runs all t_max iterations."""

    t_max: int = 200
    stop_tol: float = 1e-4


@dataclass
class DecoderState:
    """Mutable per-trial decoder state; confined to one worker."""

    t: int
    beta: np.ndarray
    z: np.ndarray | None
    phi_trace: list = field(default_factory=list)
    tau_trace: list = field(default_factory=list)
    clamped: bool = False
    # seconds spent in each stage of amp_iterate, summed over iterations
    stage_s: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))

    @classmethod
    def initial(cls, op: DesignOperator) -> "DecoderState":
        return cls(t=0, beta=np.zeros(op.n_cols), z=None)


class OfflineSeSource:
    """sigma_r, phi_r and tau_c for iteration t from a precomputed
    state-evolution trajectory, then from its fixed point.

    For t below the trajectory's length `sigma` gives phi[t] - sigma2 and
    `values` gives (phi[t], tau[t]). The trajectory's phi/tau rows stop one
    step short of its final psi (the psi that triggered convergence never
    gets a phi of its own). Iterations past the schedule use the fixed
    point implied by that final psi instead of the mid-collapse last row,
    which gives the decoder a sharp enough denoiser to finish cleanly.

    The decoder calls `sigma` once per iteration, before z^t exists, and
    passes its result to `values`, which does not need it here.
    """

    def __init__(self, traj: SeTrajectory, W: BaseMatrix, params: SparcParams):
        if traj.iterations < 1:
            raise ValueError("trajectory has no iterations")
        self.traj = traj
        self.sigma2 = params.sigma2
        sigma_r = W.entries @ traj.psi[-1] / W.cols
        phi_r = params.sigma2 + sigma_r
        self._tail = (sigma_r, phi_r, column_tau(W.entries, phi_r, params.L / params.n))

    def sigma(self, t, state):
        if t >= self.traj.iterations:
            return self._tail[0]
        return self.traj.phi[t] - self.sigma2

    def values(self, t, state, sigma_r):
        if t >= self.traj.iterations:
            return self._tail[1:]
        return self.traj.phi[t], self.traj.tau[t]


class OnlineSeSource:
    """sigma_r, phi_r and tau_c estimated from the decoder's current iterate.

    `sigma` estimates sigma_r from the energy of the current soft estimate
    beta alone. `values(t, state, sigma_r)` gives (phi_r, tau_c): phi_r is
    params.sigma2 + sigma_r when `known_sigma` is set (or before the first
    residual exists), otherwise the empirical residual energy per row
    block; tau_c follows from phi. A nonpositive phi_r is clamped to
    PHI_CLAMP_FACTOR times the unit signal power and marks the state as
    clamped.
    """

    def __init__(self, W: BaseMatrix, params: SparcParams, known_sigma: bool):
        self.W = W
        self.params = params
        self.known_sigma = known_sigma

    def sigma(self, t, state):
        W = self.W
        block_energy = (np.abs(state.beta) ** 2).reshape(W.cols, -1).sum(axis=1)
        return W.entries @ (1.0 - block_energy / self.params.sections_per_block) / W.cols

    def values(self, t, state, sigma_r):
        W, params = self.W, self.params
        if self.known_sigma or state.z is None:
            phi_r = params.sigma2 + sigma_r
        else:
            phi_r = (np.abs(state.z) ** 2).reshape(W.rows, -1).mean(axis=1)
        if np.any(phi_r <= 0):
            phi_r = np.maximum(phi_r, PHI_CLAMP_FACTOR)
            state.clamped = True
        return phi_r, column_tau(W.entries, phi_r, params.L / params.n)


def eta_denoise(s: np.ndarray, tau: np.ndarray, M: int, col_blocks: int) -> np.ndarray:
    """Per-section softmax denoiser exp(s_j/tau_c) / sum over the section.

    tau has one entry per column block. Complex inputs are denoised on
    their real part (the imaginary part carries no signal). Computed with
    per-section max subtraction, which cannot overflow.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau > 0) & np.isfinite(tau)):
        raise ValueError("tau entries must be positive and finite")
    x = s.real if np.iscomplexobj(s) else s
    n_sections = x.size // M
    per_block = n_sections // col_blocks
    # every step after the division works in place, in the output itself
    out = (x.reshape(col_blocks, per_block * M) / tau[:, np.newaxis]).reshape(n_sections, M)
    out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out.reshape(-1)


@contextmanager
def _stage(state: DecoderState, name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        state.stage_s[name] += time.perf_counter() - start


def amp_iterate(
    state: DecoderState,
    op: DesignOperator,
    y: np.ndarray,
    se: OfflineSeSource | OnlineSeSource,
) -> DecoderState:
    """One AMP iteration, updating the state in place.

    z^t = y - A beta^t + upsilon^t ⊙ z^{t-1} with upsilon^t_r =
    sigma_r^t / phi_r^{t-1} (zero at t=0, where z^0 = y exactly), then
    beta^{t+1} = eta(beta^t + (S ⊙ A)* z^t) with S_rc = tau_c/phi_r
    (2 tau_c/phi_r in the complex field).
    """
    t = state.t
    params = op.params
    W = op.W

    # The Onsager coefficient needs sigma^t before z^t exists, so the
    # sources give sigma from beta^t here and (if measuring residual
    # energy) phi from z^t afterwards.
    with _stage(state, "se_update"):
        sigma_r = se.sigma(t, state)
    with _stage(state, "residual"):
        if t == 0:
            state.z = y.copy()
            adjoint = partial(op.apply_scaled_adjoint, z=state.z)
        else:
            # upsilon^t = sigma^t / phi^{t-1}; state.z still holds z^{t-1}
            upsilon = sigma_r / state.phi_trace[-1]
            state.z, adjoint = op.residual(state.beta, y, upsilon, state.z)
    with _stage(state, "se_update"):
        phi_r, tau_c = se.values(t, state, sigma_r)

    scale = 2.0 if op.field == "complex" else 1.0
    S = scale * tau_c[np.newaxis, :] / phi_r[:, np.newaxis]
    with _stage(state, "adjoint"):
        # the denoiser reads only the real part of s
        s = state.beta.real + adjoint(S).real
    with _stage(state, "denoise"):
        beta_next = eta_denoise(s, tau_c, params.M, W.cols)

    if not (np.all(np.isfinite(beta_next)) and np.all(np.isfinite(state.z))):
        raise FloatingPointError(f"AMP diverged at iteration {t}: non-finite values")

    state.beta = beta_next
    state.phi_trace.append(phi_r)
    state.tau_trace.append(tau_c)
    state.t = t + 1
    return state


def should_stop(phi_trace: list, tol: float) -> bool:
    """True when the max relative change of phi stayed below tol for
    STOP_WINDOW consecutive iteration pairs."""
    if len(phi_trace) < STOP_WINDOW + 1:
        return False
    for i in range(len(phi_trace) - STOP_WINDOW, len(phi_trace)):
        prev, cur = phi_trace[i - 1], phi_trace[i]
        if np.max(np.abs(cur - prev) / prev) >= tol:
            return False
    return True


@dataclass
class DecodeDiagnostics:
    iterations: int
    stop_reason: str
    phi_trace: np.ndarray
    tau_trace: np.ndarray
    diverged: bool = False
    clamped: bool = False
    ser: float | None = None
    nmse_overall: float | None = None
    nmse_per_block: np.ndarray | None = None
    beta_soft: np.ndarray | None = None
    stage_s: dict | None = None


def decode(
    op: DesignOperator,
    y: np.ndarray,
    se: OfflineSeSource | OnlineSeSource,
    cfg: AmpConfig | None = None,
    truth: np.ndarray | None = None,
) -> tuple[np.ndarray, DecodeDiagnostics]:
    """Run AMP to completion and hard-decide the final soft estimate.

    When the true message is supplied, per-iteration per-block NMSE and the
    final section error rate are recorded for instrumentation. Divergence
    aborts the trial with partial diagnostics instead of raising.
    """
    cfg = cfg or AmpConfig()
    params = op.params
    W = op.W
    state = DecoderState.initial(op)
    nmse_rows = []
    phi_ceiling = DIVERGENCE_FACTOR * (
        params.sigma2 + W.entries.mean(axis=1).max()
    )
    stop_reason = "t_max"
    diverged = False

    for _ in range(cfg.t_max):
        try:
            amp_iterate(state, op, y, se)
        except FloatingPointError:
            diverged = True
            stop_reason = "diverged"
            break
        if truth is not None:
            _, per_block = nmse(state.beta, truth, W.cols)
            nmse_rows.append(per_block)
        if np.max(state.phi_trace[-1]) > phi_ceiling:
            diverged = True
            stop_reason = "diverged"
            break
        if should_stop(state.phi_trace, cfg.stop_tol):
            stop_reason = "converged"
            break

    decoded = hard_decision(state.beta, params.M)
    diag = DecodeDiagnostics(
        iterations=state.t,
        stop_reason=stop_reason,
        phi_trace=np.array(state.phi_trace),
        tau_trace=np.array(state.tau_trace),
        diverged=diverged,
        clamped=state.clamped,
        beta_soft=state.beta,
        stage_s=dict(state.stage_s),
    )
    if truth is not None:
        diag.ser = section_error_rate(decoded, truth, params.M)
        diag.nmse_overall, _ = nmse(state.beta, truth, W.cols)
        diag.nmse_per_block = np.array(nmse_rows)
    return decoded, diag
