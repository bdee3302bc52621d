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

import numpy as np

from .design import DesignOperator
from .message import hard_decision, nmse, section_error_rate
from .params import BaseMatrix, SparcParams
from .state_evolution import SeTrajectory

__all__ = [
    "AmpConfig",
    "DecoderState",
    "DecodeDiagnostics",
    "SeSource",
    "OfflineSeSource",
    "OnlineSeSource",
    "eta_denoise",
    "online_se_update",
    "amp_iterate",
    "should_stop",
    "decode",
]

# amp_iterate's stages: residual (with the forward product), adjoint (the
# effective observation), denoiser, and the state-evolution source
STAGES = ("residual", "adjoint", "denoise", "se_update")
PHI_CLAMP_FACTOR = 1e-12
# decode stops as diverged once some phi exceeds this multiple of
# sigma2 + max_r mean_c W[r, c]
DIVERGENCE_FACTOR = 10.0


@dataclass
class AmpConfig:
    """Decoder knobs. The stopping tolerance and window are configuration
    defaults, not values pinned by theory."""

    t_max: int = 200
    stop_tol: float = 1e-4
    stop_window: int = 2


@dataclass
class DecoderState:
    """Mutable per-trial decoder state; confined to one worker."""

    t: int
    beta: np.ndarray
    z: np.ndarray | None
    z_prev: np.ndarray | None
    phi_prev: np.ndarray | None
    phi_trace: list = field(default_factory=list)
    tau_trace: list = field(default_factory=list)
    clamped: bool = False
    # seconds spent in each stage of amp_iterate, summed over iterations
    stage_s: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))

    @classmethod
    def initial(cls, op: DesignOperator) -> "DecoderState":
        return cls(
            t=0,
            beta=np.zeros(op.n_cols),
            z=None,
            z_prev=None,
            phi_prev=None,
        )


class SeSource:
    """Provides (sigma_r, phi_r, tau_c) for iteration t."""

    def values(self, t: int, state: DecoderState, op: DesignOperator):
        raise NotImplementedError


class OfflineSeSource(SeSource):
    """Precomputed state-evolution trajectory, then its fixed point.

    The trajectory's phi/tau lists stop one step short of its final psi
    (the psi that triggered convergence never gets a phi of its own).
    Iterations past the schedule use the fixed point implied by that final
    psi instead of the mid-collapse last row, which gives the decoder a
    sharp enough denoiser to finish cleanly.
    """

    def __init__(self, traj: SeTrajectory, W: BaseMatrix, params: SparcParams):
        if traj.iterations < 1:
            raise ValueError("trajectory has no iterations")
        self.traj = traj
        Wm = W.entries
        sigma_r = Wm @ traj.psi[-1] / W.cols
        phi_r = params.sigma2 + sigma_r
        col_info = (Wm / phi_r[:, np.newaxis]).mean(axis=0)
        tau_c = (params.L / params.n) / col_info
        self._tail = (sigma_r, phi_r, tau_c)

    def values(self, t, state, op):
        if t >= self.traj.iterations:
            return self._tail
        return self.traj.sigma[t], self.traj.phi[t], self.traj.tau[t]


class OnlineSeSource(SeSource):
    """Runtime estimates from the decoder iterates.

    sigma_r is estimated from the energy of the current soft estimate;
    phi_r is sigma2 + sigma_r when the noise variance is known, otherwise
    the empirical residual energy per row block; tau_c follows from phi.
    """

    def __init__(self, W: BaseMatrix, params: SparcParams, sigma2_known: float | None):
        if sigma2_known is not None and not (np.isfinite(sigma2_known) and sigma2_known > 0):
            raise ValueError(f"sigma2_known must be positive and finite, got {sigma2_known}")
        self.W = W
        self.params = params
        self.sigma2_known = sigma2_known

    def values(self, t, state, op):
        sigma_r, phi_r, tau_c = online_se_update(
            state, self.W, self.params, op, self.sigma2_known
        )
        return sigma_r, phi_r, tau_c


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


def online_se_update(
    state: DecoderState,
    W: BaseMatrix,
    params: SparcParams,
    op: DesignOperator,
    sigma2_known: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Online estimates (sigma_r, phi_r, tau_c) at the current iterate."""
    Wm = W.entries
    secs = params.sections_per_block
    block_energy = (np.abs(state.beta) ** 2).reshape(W.cols, -1).sum(axis=1)
    sigma_r = Wm @ (1.0 - block_energy / secs) / W.cols
    if sigma2_known is not None or state.z is None:
        sigma2 = params.sigma2 if sigma2_known is None else sigma2_known
        phi_r = sigma2 + sigma_r
    else:
        phi_r = (np.abs(state.z) ** 2).reshape(W.rows, -1).mean(axis=1)
    eps = PHI_CLAMP_FACTOR * params.P
    if np.any(phi_r <= 0):
        phi_r = np.maximum(phi_r, eps)
        state.clamped = True
    col_info = (Wm / phi_r[:, np.newaxis]).mean(axis=0)
    tau_c = (params.L / params.n) / col_info
    return sigma_r, phi_r, tau_c


@contextmanager
def _stage(state: DecoderState, name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        state.stage_s[name] += time.perf_counter() - start


def amp_iterate(
    state: DecoderState, op: DesignOperator, y: np.ndarray, se: SeSource
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

    if t == 0:
        with _stage(state, "residual"):
            state.z = y.copy()
        with _stage(state, "se_update"):
            sigma_r, phi_r, tau_c = se.values(t, state, op)
    else:
        # The Onsager coefficient needs sigma^t before z^t exists, so the
        # sources compute sigma from beta^t and (if measuring residual
        # energy) phi from z^t afterwards.
        with _stage(state, "se_update"):
            sigma_r, _, _ = se.values(t, state, op)
        with _stage(state, "residual"):
            upsilon = sigma_r / state.phi_prev
            state.z = y - op.apply(state.beta)
            state.z.reshape(W.rows, -1)[...] += upsilon[:, np.newaxis] * state.z_prev.reshape(W.rows, -1)
        with _stage(state, "se_update"):
            sigma_r, phi_r, tau_c = se.values(t, state, op)

    scale = 2.0 if op.field == "complex" else 1.0
    S = scale * tau_c[np.newaxis, :] / phi_r[:, np.newaxis]
    with _stage(state, "adjoint"):
        # the denoiser reads only the real part of s
        s = state.beta.real + op.apply_scaled_adjoint(S, state.z).real
    with _stage(state, "denoise"):
        beta_next = eta_denoise(s, tau_c, params.M, W.cols)

    if not (np.all(np.isfinite(beta_next)) and np.all(np.isfinite(state.z))):
        raise FloatingPointError(f"AMP diverged at iteration {t}: non-finite values")

    state.beta = beta_next
    state.z_prev = state.z
    state.phi_prev = phi_r
    state.phi_trace.append(phi_r)
    state.tau_trace.append(tau_c)
    state.t = t + 1
    return state


def should_stop(phi_trace: list, tol: float, window: int) -> bool:
    """True when the max relative change of phi stayed below tol for
    `window` consecutive iteration pairs."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(phi_trace) < window + 1:
        return False
    for i in range(len(phi_trace) - window, len(phi_trace)):
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
    se: SeSource,
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
        if should_stop(state.phi_trace, cfg.stop_tol, cfg.stop_window):
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
