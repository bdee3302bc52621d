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
    online_se_update,
    should_stop,
)
from scsparc.channel import ChannelParams, transmit
from scsparc.design import build_dft_design, build_gaussian_design
from scsparc.message import hard_decision, random_message
from scsparc.params import CouplingParams, SparcParams, build_base_matrix
from scsparc.state_evolution import run_se


def small_setup(M=4, L=8, omega=2, Lambda=4, n=40, snr=15.0, seed=0, field="real"):
    base = build_base_matrix(CouplingParams(omega, Lambda), 1.0)
    params = SparcParams(n=n, M=M, L=L, base=base, P=1.0, sigma2=1.0 / snr)
    op = build_gaussian_design(params, base, seed=seed, field=field)
    beta = random_message(M, L, seed=seed + 1)
    ch = ChannelParams(params.sigma2, params.P, field=field)
    y = transmit(op.apply(beta), ch, seed=seed + 2)
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
    sigma_r, phi_r, tau_c = online_se_update(state, base, params, op, None)
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
    sigma_r, phi_r, _ = online_se_update(state, base, params, op, params.sigma2)
    assert np.allclose(sigma_r, 0.0)
    assert np.allclose(phi_r, params.sigma2)


def test_amp_iterate_matches_dense_reference():
    # oracle: straight-line reference of one full iteration
    params, base, op, beta, y = small_setup(seed=3)
    A = op.materialize()
    se = OnlineSeSource(base, params, params.sigma2)

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
    base = build_base_matrix(CouplingParams(1, 1), 1.0)
    params = SparcParams(n=60, M=2, L=2, base=base, P=1.0, sigma2=1e-8)
    op = build_gaussian_design(params, base, seed=0)
    beta = random_message(2, 2, seed=1)
    y = op.apply(beta)  # noiseless
    se = OnlineSeSource(base, params, params.sigma2)
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


def test_decode_complex_field():
    params, base, op, beta, y = small_setup(
        M=4, L=8, n=40, seed=7, field="complex"
    )
    se = OnlineSeSource(base, params, params.sigma2)
    decoded, diag = decode(op, y, se, AmpConfig(t_max=15), truth=beta)
    assert diag.ser is not None and diag.ser <= 0.5
    assert not diag.diverged


def test_decode_dft_operator():
    base = build_base_matrix(CouplingParams(2, 4), 1.0)
    params = SparcParams(n=40, M=4, L=8, base=base, P=1.0, sigma2=1.0 / 20)
    op = build_dft_design(params, base, seed=11)
    beta = random_message(4, 8, seed=12)
    ch = ChannelParams(params.sigma2, params.P, field="complex")
    y = transmit(op.apply(beta), ch, seed=13)
    se = OnlineSeSource(base, params, params.sigma2)
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
    assert not should_stop([phi0], tol=1e-2, window=2)
    assert not should_stop([phi0, phi0], tol=1e-2, window=2)
    assert should_stop([phi0, phi0, phi0], tol=1e-2, window=2)
    # strictly improving run does not stop until it plateaus
    trace = [phi0 * (0.5**k) for k in range(5)]
    assert not should_stop(trace, tol=1e-2, window=2)
    trace += [trace[-1], trace[-1]]
    assert should_stop(trace, tol=1e-2, window=2)
    with pytest.raises(ValueError):
        should_stop(trace, tol=1e-2, window=0)


def test_decode_divergence_guard():
    # feeding a wildly wrong noise level makes the residual blow past the
    # ceiling; decode must flag divergence instead of raising
    params, base, op, beta, y = small_setup(seed=9)
    se = OnlineSeSource(base, params, sigma2_known=None)
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
        base = build_base_matrix(CouplingParams(2, 4), 1.0)
        params = SparcParams(n=40, M=4, L=8, base=base, P=1.0, sigma2=1.0 / 20)
        op = build_dft_design(params, base, seed=11)
        ch = ChannelParams(params.sigma2, params.P, field="complex")
        y = transmit(op.apply(random_message(4, 8, seed=12)), ch, seed=13)
    se = OnlineSeSource(base, params, params.sigma2)
    state = DecoderState.initial(op)
    for _ in range(3):
        beta_t, z_prev, phi_prev = state.beta, state.z, state.phi_prev
        amp_iterate(state, op, y, se)
    # upsilon^t = sigma^t / phi^{t-1}, with sigma^t from beta^t
    probe = DecoderState.initial(op)
    probe.beta = beta_t
    sigma_r = online_se_update(probe, base, params, op, params.sigma2)[0]
    upsilon = sigma_r / phi_prev
    ref = y - op.apply(beta_t) + np.repeat(upsilon, op.rows_per_block) * z_prev
    assert np.array_equal(state.z, ref)


def test_decode_reports_clamped_phi():
    params, base, op, beta, y = small_setup(seed=4)
    _, diag = decode(op, y, OnlineSeSource(base, params, params.sigma2), AmpConfig(t_max=3))
    assert not diag.clamped
    # an all-zero y has zero residual energy, so the measured phi_r is 0
    se = OnlineSeSource(base, params, sigma2_known=None)
    _, diag = decode(op, np.zeros_like(y), se, AmpConfig(t_max=3))
    assert diag.clamped


@pytest.mark.parametrize("sigma2_known", [0.0, -10.0, np.nan, np.inf])
def test_online_source_rejects_a_bad_known_noise_variance(sigma2_known):
    params, base, *_ = small_setup()
    with pytest.raises(ValueError, match="sigma2_known"):
        OnlineSeSource(base, params, sigma2_known)


def test_decode_reports_time_per_stage():
    params, base, op, beta, y = small_setup(seed=5)
    start = time.perf_counter()
    _, diag = decode(op, y, OnlineSeSource(base, params, None), AmpConfig(t_max=6), truth=beta)
    elapsed = time.perf_counter() - start
    assert diag.iterations >= 2
    assert tuple(diag.stage_s) == STAGES == ("residual", "adjoint", "denoise", "se_update")
    assert all(v > 0 for v in diag.stage_s.values())
    assert sum(diag.stage_s.values()) <= elapsed
    # a decode's times are its own, not carried over from an earlier one
    _, again = decode(op, y, OnlineSeSource(base, params, None), AmpConfig(t_max=1), truth=beta)
    assert again.iterations == 1
    assert sum(again.stage_s.values()) < sum(diag.stage_s.values())


def test_amp_iterate_adds_the_real_part_of_the_adjoint():
    # s = beta + (S ⊙ A)* z, of which the denoiser reads the real part:
    # beta^{t+1} is bit-identical to denoising the full complex sum
    base = build_base_matrix(CouplingParams(2, 4), 1.0)
    params = SparcParams(n=40, M=4, L=8, base=base, P=1.0, sigma2=1.0 / 20)
    op = build_dft_design(params, base, seed=3)
    ch = ChannelParams(params.sigma2, params.P, field="complex")
    y = transmit(op.apply(random_message(4, 8, seed=4)), ch, seed=5)
    se = OnlineSeSource(base, params, params.sigma2)
    state = DecoderState.initial(op)
    for _ in range(3):
        beta_t = state.beta
        amp_iterate(state, op, y, se)
    tau_c, phi_r = state.tau_trace[-1], state.phi_trace[-1]
    S = 2.0 * tau_c[np.newaxis, :] / phi_r[:, np.newaxis]
    s = beta_t + op.apply_scaled_adjoint(S, state.z)
    assert np.iscomplexobj(s)
    assert np.array_equal(state.beta, eta_denoise(s, tau_c, params.M, base.cols))
