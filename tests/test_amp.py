"""AMP decoder: denoiser, online estimates, iterations against a
straight-line dense reference, stopping, and end-to-end decoding."""

import math
import time

import numpy as np
import pytest

from scsparc.amp import (
    STAGES,
    AmpConfig,
    DecoderState,
    OfflineSeSource,
    OnlineSeSource,
    amp_iterate,
    decode,
    eta_denoise,
    should_stop,
)
from scsparc.channel import transmit
from scsparc.design import build_dft_design, build_gaussian_design
from scsparc.message import hard_decision, random_message
from scsparc.params import CouplingParams, SparcParams, build_base_matrix
from scsparc.state_evolution import run_se
from design_oracles import dense_form


def small_setup(M=4, L=8, omega=2, Lambda=4, n=40, snr=15.0, seed=0, field="real"):
    base = build_base_matrix(CouplingParams(omega, Lambda))
    params = SparcParams(n=n, M=M, L=L, base=base, sigma2=1.0 / snr)
    op = build_gaussian_design(params, base, seed=seed, field=field)
    beta = random_message(M, L, seed=seed + 1)
    y = transmit(op.apply(beta), params.sigma2, seed=seed + 2)
    return params, base, op, beta, y


def test_eta_denoise_m2_logistic():
    # oracle: scalar logistic formula for a 2-entry section
    a, b, tau = 0.9, 0.1, 0.3
    out = eta_denoise(np.array([a, b]), np.array([tau]), M=2, col_blocks=1)
    expected = 1.0 / (1.0 + math.exp((b - a) / tau))
    assert math.isclose(out[0], expected, rel_tol=1e-12)
    assert math.isclose(out.sum(), 1.0, rel_tol=1e-12)


def test_eta_denoise_properties():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(4 * 8) * 50  # large values: no overflow allowed
    tau = np.array([0.5, 2.0])
    out = eta_denoise(s, tau, M=4, col_blocks=2)
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0) & (out <= 1))
    assert np.allclose(out.reshape(8, 4).sum(axis=1), 1.0)
    # complex input is denoised on its real part
    out_c = eta_denoise(s + 1j * rng.standard_normal(s.size), tau, 4, 2)
    assert np.allclose(out, out_c)
    with pytest.raises(ValueError):
        eta_denoise(s, np.array([0.0, 1.0]), 4, 2)
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="tau"):
            eta_denoise(np.ones(8), np.array([bad]), 4, 1)
        with pytest.raises(ValueError, match="tau"):
            eta_denoise(s, np.array([1.0, bad]), 4, 2)


def test_online_estimates_at_start():
    params, base, op, beta, y = small_setup()
    state = DecoderState.initial(op)
    se = OnlineSeSource(base, params, known_sigma=False)
    sigma_r = se.sigma(0, state)
    phi_r, tau_c = se.values(0, state, sigma_r)
    # beta = 0: sigma_r is the full row average of W
    assert np.allclose(sigma_r, base.entries.mean(axis=1))
    assert np.allclose(phi_r, params.sigma2 + sigma_r)
    # tau follows from phi by the information identity
    info = (base.entries / phi_r[:, None]).mean(axis=0)
    assert np.allclose(tau_c, (params.L / params.n) / info)


def test_online_estimates_at_truth():
    params, base, op, beta, y = small_setup()
    state = DecoderState.initial(op)
    state.beta = beta.astype(float)
    se = OnlineSeSource(base, params, known_sigma=True)
    sigma_r = se.sigma(0, state)
    phi_r, _ = se.values(0, state, sigma_r)
    assert np.allclose(sigma_r, 0.0)
    assert np.allclose(phi_r, params.sigma2)


def test_amp_iterate_matches_dense_reference():
    # oracle: straight-line reference of one full iteration
    params, base, op, beta, y = small_setup(seed=3)
    A = dense_form(op)
    se = OnlineSeSource(base, params, known_sigma=True)

    state = DecoderState.initial(op)
    amp_iterate(state, op, y, se)
    amp_iterate(state, op, y, se)

    # reference: replay the same recursion with explicit matrices
    W = base.entries
    nr, nc = op.rows_per_block, op.cols_per_block
    beta_t = np.zeros(op.n_cols)
    z_prev = None
    phi_prev = None
    for t in range(2):
        block_energy = (beta_t**2).reshape(base.cols, -1).sum(axis=1)
        sigma_r = W @ (1 - block_energy / params.sections_per_block) / base.cols
        if t == 0:
            z = y.copy()
        else:
            upsilon = sigma_r / phi_prev
            z = y - A @ beta_t + np.repeat(upsilon, nr) * z_prev
        phi_r = params.sigma2 + sigma_r
        tau_c = (params.L / params.n) / (W / phi_r[:, None]).mean(axis=0)
        S = np.repeat(np.repeat(tau_c[None, :] / phi_r[:, None], nr, axis=0), nc, axis=1)
        s = beta_t + (S * A).T @ z
        beta_t = eta_denoise(s, tau_c, params.M, base.cols)
        z_prev, phi_prev = z, phi_r

    assert np.linalg.norm(state.beta - beta_t) <= 1e-9 * max(np.linalg.norm(beta_t), 1)
    assert np.linalg.norm(state.z - z_prev) <= 1e-9 * np.linalg.norm(z_prev)


def test_noiseless_single_block_decodes_fast():
    # oracle: with no noise and a huge snr proxy, AMP locks onto the truth
    base = build_base_matrix(CouplingParams(1, 1))
    params = SparcParams(n=60, M=2, L=2, base=base, sigma2=1e-8)
    op = build_gaussian_design(params, base, seed=0)
    beta = random_message(2, 2, seed=1)
    y = op.apply(beta)  # noiseless
    se = OnlineSeSource(base, params, known_sigma=True)
    decoded, diag = decode(op, y, se, AmpConfig(t_max=3), truth=beta)
    assert np.array_equal(decoded, beta)
    assert diag.ser == 0.0


def test_decode_offline_matches_trajectory_source():
    params, base, op, beta, y = small_setup(M=8, L=16, n=120, seed=5)
    traj = run_se(base, params, t_max=8, mc_samples=2000, seed=0)
    se = OfflineSeSource(traj, base, params)
    decoded, diag = decode(op, y, se, AmpConfig(t_max=8), truth=beta)
    assert diag.iterations >= 1
    assert diag.phi_trace.shape[1] == base.rows
    # the offline source replays the trajectory values exactly
    assert np.allclose(diag.phi_trace[0], traj.phi[0])
    state = DecoderState.initial(op)
    for t in range(traj.iterations):
        sigma_r = se.sigma(t, state)
        phi_r, tau_c = se.values(t, state, sigma_r)
        assert np.array_equal(sigma_r, traj.phi[t] - params.sigma2)
        assert np.array_equal(phi_r, traj.phi[t])
        assert np.array_equal(tau_c, traj.tau[t])
    # past the schedule: the fixed point of the final psi
    sigma_fp = base.entries @ traj.psi[-1] / base.cols
    phi_fp = params.sigma2 + sigma_fp
    tau_fp = (params.L / params.n) / (base.entries / phi_fp[:, None]).mean(axis=0)
    for t in (traj.iterations, traj.iterations + 5):
        sigma_r = se.sigma(t, state)
        phi_r, tau_c = se.values(t, state, sigma_r)
        assert np.array_equal(sigma_r, sigma_fp)
        assert np.array_equal(phi_r, phi_fp) and np.array_equal(tau_c, tau_fp)


def test_decode_complex_field():
    params, base, op, beta, y = small_setup(
        M=4, L=8, n=40, seed=7, field="complex"
    )
    se = OnlineSeSource(base, params, known_sigma=True)
    decoded, diag = decode(op, y, se, AmpConfig(t_max=15), truth=beta)
    assert diag.ser is not None and diag.ser <= 0.5
    assert not diag.diverged


def test_decode_dft_operator():
    base = build_base_matrix(CouplingParams(2, 4))
    params = SparcParams(n=40, M=4, L=8, base=base, sigma2=1.0 / 20)
    op = build_dft_design(params, base, seed=11)
    beta = random_message(4, 8, seed=12)
    y = transmit(op.apply(beta), params.sigma2, seed=13)
    se = OnlineSeSource(base, params, known_sigma=True)
    decoded, diag = decode(op, y, se, AmpConfig(t_max=15), truth=beta)
    assert not diag.diverged
    assert diag.ser <= 0.5


def test_ser_nmse_inequality():
    # a wrong hard decision implies squared error >= 1/2 in that section,
    # so SER <= 4 * NMSE on every trial, deterministically
    rng = np.random.default_rng(0)
    violations = 0
    for trial in range(1000):
        M = int(rng.choice([2, 4, 8]))
        L = int(rng.choice([4, 8]))
        truth = random_message(M, L, seed=trial)
        # random soft estimate: valid per-section probability vectors
        soft = rng.dirichlet(np.ones(M), size=L).ravel()
        decoded = hard_decision(soft, M)
        ser = (decoded != truth).reshape(L, M).any(axis=1).mean()
        nm = np.sum((soft - truth) ** 2) / L
        if ser > 4 * nm + 1e-12:
            violations += 1
    assert violations == 0


def test_should_stop():
    phi0 = np.array([1.0, 2.0])
    # constant trace stops once the window is filled
    assert not should_stop([phi0], tol=1e-2)
    assert not should_stop([phi0, phi0], tol=1e-2)
    assert should_stop([phi0, phi0, phi0], tol=1e-2)
    # strictly improving run does not stop until it plateaus for two pairs
    trace = [phi0 * (0.5**k) for k in range(5)]
    assert not should_stop(trace, tol=1e-2)
    trace += [trace[-1]]
    assert not should_stop(trace, tol=1e-2)
    trace += [trace[-1]]
    assert should_stop(trace, tol=1e-2)


def test_decode_divergence_guard():
    # feeding a wildly wrong noise level makes the residual blow past the
    # ceiling; decode must flag divergence instead of raising
    params, base, op, beta, y = small_setup(seed=9)
    se = OnlineSeSource(base, params, known_sigma=False)
    decoded, diag = decode(op, 1e12 * y, se, AmpConfig(t_max=5), truth=beta)
    assert diag.diverged
    assert diag.stop_reason == "diverged"


def test_eta_denoise_matches_repeat_formula():
    # the per-column-block tau is broadcast, not repeated to full length
    rng = np.random.default_rng(4)
    M, col_blocks, per_block = 8, 5, 3
    tau = rng.uniform(0.05, 3.0, col_blocks)
    s = rng.standard_normal(M * col_blocks * per_block) * 10
    for x in (s, s + 1j * rng.standard_normal(s.size)):
        scaled = (x.real / np.repeat(tau, per_block * M)).reshape(-1, M)
        scaled -= scaled.max(axis=1, keepdims=True)
        e = np.exp(scaled)
        ref = (e / e.sum(axis=1, keepdims=True)).ravel()
        assert np.array_equal(eta_denoise(x, tau, M, col_blocks), ref)


@pytest.mark.parametrize("operator", ["dense", "dft"])
def test_amp_iterate_residual_matches_repeat_formula(operator):
    # z^t = y - A beta^t + repeat(upsilon, rows_per_block) * z^{t-1}, bit for bit
    if operator == "dense":
        params, base, op, beta, y = small_setup(seed=2)
    else:
        base = build_base_matrix(CouplingParams(2, 4))
        params = SparcParams(n=40, M=4, L=8, base=base, sigma2=1.0 / 20)
        op = build_dft_design(params, base, seed=11)
        y = transmit(op.apply(random_message(4, 8, seed=12)), params.sigma2, seed=13)
    se = OnlineSeSource(base, params, known_sigma=True)
    state = DecoderState.initial(op)
    for _ in range(2):
        amp_iterate(state, op, y, se)
    beta_t, z_prev, phi_prev = state.beta, state.z, state.phi_trace[-1]
    amp_iterate(state, op, y, se)
    # upsilon^t = sigma^t / phi^{t-1}, with sigma^t from beta^t
    probe = DecoderState.initial(op)
    probe.beta = beta_t
    sigma_r = se.sigma(0, probe)
    upsilon = sigma_r / phi_prev
    ref = y - op.apply(beta_t) + np.repeat(upsilon, op.rows_per_block) * z_prev
    assert np.array_equal(state.z, ref)


def test_decode_reports_clamped_phi():
    params, base, op, beta, y = small_setup(seed=4)
    _, diag = decode(op, y, OnlineSeSource(base, params, known_sigma=True), AmpConfig(t_max=3))
    assert not diag.clamped
    # an all-zero y has zero residual energy, so the measured phi_r is 0
    se = OnlineSeSource(base, params, known_sigma=False)
    _, diag = decode(op, np.zeros_like(y), se, AmpConfig(t_max=3))
    assert diag.clamped


def test_decode_reports_time_per_stage():
    params, base, op, beta, y = small_setup(seed=5)
    start = time.perf_counter()
    se = OnlineSeSource(base, params, known_sigma=False)
    _, diag = decode(op, y, se, AmpConfig(t_max=6), truth=beta)
    elapsed = time.perf_counter() - start
    assert diag.iterations >= 2
    assert tuple(diag.stage_s) == STAGES == ("residual", "adjoint", "denoise", "se_update")
    assert all(v > 0 for v in diag.stage_s.values())
    assert sum(diag.stage_s.values()) <= elapsed
    # a decode's times are its own, not carried over from an earlier one
    _, again = decode(op, y, se, AmpConfig(t_max=1), truth=beta)
    assert again.iterations == 1
    assert sum(again.stage_s.values()) < sum(diag.stage_s.values())


def test_amp_iterate_adds_the_real_part_of_the_adjoint():
    # s = beta + (S ⊙ A)* z, of which the denoiser reads the real part:
    # beta^{t+1} is bit-identical to denoising the full complex sum
    base = build_base_matrix(CouplingParams(2, 4))
    params = SparcParams(n=40, M=4, L=8, base=base, sigma2=1.0 / 20)
    op = build_dft_design(params, base, seed=3)
    y = transmit(op.apply(random_message(4, 8, seed=4)), params.sigma2, seed=5)
    se = OnlineSeSource(base, params, known_sigma=True)
    state = DecoderState.initial(op)
    for _ in range(3):
        beta_t = state.beta
        amp_iterate(state, op, y, se)
    tau_c, phi_r = state.tau_trace[-1], state.phi_trace[-1]
    S = 2.0 * tau_c[np.newaxis, :] / phi_r[:, np.newaxis]
    s = beta_t + op.apply_scaled_adjoint(S, state.z)
    assert np.iscomplexobj(s)
    assert np.array_equal(state.beta, eta_denoise(s, tau_c, params.M, base.cols))


def counting(source_cls):
    """`source_cls` with a count of its `sigma` calls."""

    class Counting(source_cls):
        sigma_calls = 0

        def sigma(self, t, state):
            self.sigma_calls += 1
            return super().sigma(t, state)

    return Counting


def test_online_source_sigma_runs_once_per_iteration():
    params, base, op, beta, y = small_setup(seed=5)
    for known_sigma in (False, True):
        se = counting(OnlineSeSource)(base, params, known_sigma)
        _, diag = decode(op, y, se, AmpConfig(t_max=6))
        assert diag.iterations >= 2
        assert se.sigma_calls == diag.iterations


def test_offline_source_sigma_runs_once_per_iteration():
    # past the 3-step schedule the source gives its fixed point
    params, base, op, beta, y = small_setup(M=8, L=16, n=120, seed=5)
    traj = run_se(base, params, t_max=3, mc_samples=2000, seed=0)
    se = counting(OfflineSeSource)(traj, base, params)
    _, diag = decode(op, y, se, AmpConfig(t_max=6))
    assert diag.iterations > traj.iterations
    assert se.sigma_calls == diag.iterations
