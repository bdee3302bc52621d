"""Compressed-sensing AMP: priors, denoisers, state evolution, decoding."""

import math
import tracemalloc

import numpy as np
import pytest

from scsparc import design
from scsparc.cs_amp import (
    GH_NODES,
    BgBayesDenoiser,
    CsModel,
    bernoulli_gauss_prior,
    build_cs_base_matrix,
    cs_amp_decode,
    cs_design_matrix,
    cs_mse_expectation,
    cs_se_step,
    run_cs_se,
)
from scsparc.params import CouplingParams
from scsparc.state_evolution import normal_quadrature
from design_oracles import reference_cs_matrix
from se_oracles import reference_run_cs_se


def test_prior_moments_and_sampling():
    prior = bernoulli_gauss_prior(0.2, 1.5)
    assert math.isclose(prior.second_moment, 0.2 * 1.5)
    rng = np.random.default_rng(0)
    x = prior.sample(200_000, rng)
    assert abs(np.mean(x != 0) - 0.2) < 0.01
    assert abs(np.mean(x**2) - 0.3) / 0.3 < 0.03
    with pytest.raises(ValueError):
        bernoulli_gauss_prior(0.0, 1.0)
    with pytest.raises(ValueError):
        bernoulli_gauss_prior(0.5, -1.0)
    with pytest.raises(ValueError):
        bernoulli_gauss_prior(1.5, 1.0)


@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_prior_matches_the_mixture_formulas(eps):
    # the draw, second moment and MSE expectation of the Gaussian-mixture
    # forms, bit for bit: a component per entry, then a scaled normal; the
    # moment and the quadrature summed over the components in order. An
    # atom is a component with zero variance; eps = 1 has none.
    v = 1.7
    if eps == 1.0:
        weights, means, variances = (1.0,), (0.0,), (v,)
    else:
        weights, means, variances = (1.0 - eps, eps), (0.0, 0.0), (0.0, v)
    rng = np.random.default_rng(5)
    comp = rng.choice(len(weights), size=5000, p=weights)
    stds = np.sqrt(np.asarray(variances))
    want = np.asarray(means)[comp] + stds[comp] * rng.standard_normal(5000)
    prior = bernoulli_gauss_prior(eps, v)
    got = prior.sample(5000, np.random.default_rng(5))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert prior.second_moment == sum(w * (m * m + s) for w, m, s in zip(weights, means, variances))
    den, tau = BgBayesDenoiser(0.2, v), 0.3
    g, wn = normal_quadrature(GH_NODES)
    total = 0.0
    for w, m, s in zip(weights, means, variances):
        beta, wb = (np.array([m]), np.array([1.0])) if s == 0.0 else (m + math.sqrt(s) * g, wn)
        f, _ = den(beta[:, None] + math.sqrt(tau) * g[None, :], tau)
        total += w * float(wb @ ((f - beta[:, None]) ** 2) @ wn)
    assert cs_mse_expectation(den, prior, tau) == total


def test_cs_model_and_tau_validation():
    prior = bernoulli_gauss_prior(0.1, 1.0)
    with pytest.raises(ValueError):
        CsModel(W=-np.ones((2, 2)), p=4, n=4, sigma2=0.1, prior=prior)
    with pytest.raises(ValueError):
        CsModel(W=np.ones(2), p=4, n=4, sigma2=0.1, prior=prior)
    den = BgBayesDenoiser(0.1, 1.0)
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            cs_mse_expectation(den, prior, tau)


def test_bg_denoiser_symmetry_and_wiener():
    den = BgBayesDenoiser(0.3, 2.0)
    f, _ = den(np.array([0.0]), 0.5)
    assert f[0] == 0.0
    f_pos, _ = den(np.array([1.3]), 0.5)
    f_neg, _ = den(np.array([-1.3]), 0.5)
    assert math.isclose(f_pos[0], -f_neg[0])
    # eps = 1 reduces to the Wiener filter
    wiener = BgBayesDenoiser(1.0, 2.0)
    s = np.array([-1.0, 0.5, 3.0])
    f, fp = wiener(s, 0.5)
    assert np.allclose(f, 2.0 / 2.5 * s)
    assert np.allclose(fp, 2.0 / 2.5)


def test_bg_denoiser_derivative_finite_difference():
    den = BgBayesDenoiser(0.1, 1.0)
    tau = 0.3
    grid = np.linspace(-4, 4, 41)
    h = 1e-6
    _, fp = den(grid, tau)
    f_hi, _ = den(grid + h, tau)
    f_lo, _ = den(grid - h, tau)
    fd = (f_hi - f_lo) / (2 * h)
    assert np.max(np.abs(fp - fd)) < 1e-6


def test_cs_base_matrix_columns_sum_to_one():
    Wcs = build_cs_base_matrix(CouplingParams(3, 8, rho=0.25))
    assert np.allclose(Wcs.sum(axis=0), 1.0)
    assert np.all(Wcs >= 0)


def test_cs_design_column_norms():
    Wcs = build_cs_base_matrix(CouplingParams(2, 4))
    prior = bernoulli_gauss_prior(0.2, 1.0)
    model = CsModel(W=Wcs, p=400, n=200, sigma2=1e-3, prior=prior)
    A = cs_design_matrix(model, seed=0)
    # unit expected column norm; averaged over columns, tight
    norms = (A**2).sum(axis=0)
    assert abs(norms.mean() - 1.0) < 0.02
    # block (r, c) variance = W_rc / rows_per_block
    mr, mc = model.rows_per_block, model.cols_per_block
    blk = A[:mr, :mc]
    expected = Wcs[0, 0] / mr
    assert abs(blk.var() - expected) / expected < 0.1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cs_design_matrix_matches_repeat_formula(seed):
    # oracle: each row block one whole draw from its child seed, scaled by
    # the block scales repeated over the columns
    W = build_cs_base_matrix(CouplingParams(3, 8, 0.1))
    model = CsModel(W=W, p=400, n=200, sigma2=0.01, prior=bernoulli_gauss_prior(0.1, 1.0))
    assert np.array_equal(cs_design_matrix(model, seed), reference_cs_matrix(model, seed))


def test_cs_design_matrix_holds_no_array_beyond_the_matrix(monkeypatch):
    # 600 x 2000 doubles, 9.2 MiB, drawn on two threads
    monkeypatch.setattr(design, "_usable_cpus", lambda: 2)
    W = build_cs_base_matrix(CouplingParams(3, 8, 0.25))
    model = CsModel(W=W, p=2000, n=600, sigma2=0.01, prior=bernoulli_gauss_prior(0.1, 1.0))
    np.random.default_rng(0)  # numpy.random's import stays out of the peak
    tracemalloc.start()
    try:
        A = cs_design_matrix(model, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.shape == (600, 2000)
    # 256 KiB covers the seeds, generators and helper thread; a temporary
    # of one row block (940 KiB) or of the matrix would not fit
    assert peak <= A.nbytes + 2**18


def test_mse_expectation_gaussian_closed_form():
    # oracle: Gaussian-prior MMSE is v*tau/(v+tau)
    v = 1.7
    prior = bernoulli_gauss_prior(1.0, v)
    den = BgBayesDenoiser(1.0, v)
    for tau in (0.05, 0.4, 2.0):
        got = cs_mse_expectation(den, prior, tau)
        assert abs(got - v * tau / (v + tau)) < 1e-8


def test_cs_se_step_psi_zero():
    Wcs = build_cs_base_matrix(CouplingParams(2, 4))
    prior = bernoulli_gauss_prior(0.2, 1.0)
    model = CsModel(W=Wcs, p=400, n=200, sigma2=1e-3, prior=prior)
    den = BgBayesDenoiser(0.2, 1.0)
    phi, tau, psi_next = cs_se_step(np.zeros(model.cols), model, den)
    assert np.allclose(phi, model.sigma2)
    assert np.all(psi_next >= 0)


def test_cs_se_step_averages_over_the_signal_prior():
    # a denoiser tuned to another prior is scored on the signal's prior
    Wcs = build_cs_base_matrix(CouplingParams(2, 4))
    model = CsModel(W=Wcs, p=400, n=200, sigma2=1e-3, prior=bernoulli_gauss_prior(0.2, 1.0))
    den = BgBayesDenoiser(0.1, 1.0)
    _, tau, psi_next = cs_se_step(np.full(model.cols, 0.1), model, den)
    want = [cs_mse_expectation(den, model.prior, t) for t in tau]
    assert np.array_equal(psi_next, want)


def test_cs_se_wiener_closed_form_trajectory():
    # eps = 1: the SE recursion has the closed Wiener form
    # psi' = v * tau / (v + tau) with tau from phi
    v = 1.0
    Wcs = build_cs_base_matrix(CouplingParams(2, 4))
    prior = bernoulli_gauss_prior(1.0, v)
    model = CsModel(W=Wcs, p=400, n=120, sigma2=1e-2, prior=prior)
    den = BgBayesDenoiser(1.0, v)
    traj = run_cs_se(model, den, t_max=15)
    psi = np.full(model.cols, v)
    for t in range(15):
        phi = model.sigma2 + (model.cols_per_block / model.rows_per_block) * (Wcs @ psi)
        tau = 1.0 / (Wcs / phi[:, None]).sum(axis=0)
        psi = v * tau / (v + tau)
        assert np.allclose(traj.psi[t + 1], psi, atol=1e-6)


def test_cs_amp_noiseless_support_recovery():
    # tiny noiseless, very sparse instance: exact recovery
    rng = np.random.default_rng(4)
    Wcs = np.ones((1, 1))
    prior = bernoulli_gauss_prior(0.05, 1.0)
    model = CsModel(W=Wcs, p=64, n=48, sigma2=1e-12, prior=prior)
    A = cs_design_matrix(model, seed=5)
    x = prior.sample(64, rng)
    y = A @ x + math.sqrt(model.sigma2) * rng.standard_normal(48)
    res = cs_amp_decode(A, y, model, BgBayesDenoiser(0.05, 1.0), t_max=60, x_true=x)
    assert np.allclose(res.x_hat, x, atol=1e-4)


def test_cs_amp_single_block_matches_reference():
    # oracle: straight-line scalar-AMP reference for the uncoupled case
    rng = np.random.default_rng(7)
    Wcs = np.ones((1, 1))
    prior = bernoulli_gauss_prior(1.0, 1.0)
    model = CsModel(W=Wcs, p=128, n=64, sigma2=1e-2, prior=prior)
    A = cs_design_matrix(model, seed=8)
    x_true = prior.sample(128, rng)
    y = A @ x_true + math.sqrt(model.sigma2) * rng.standard_normal(64)
    den = BgBayesDenoiser(1.0, 1.0)
    res = cs_amp_decode(A, y, model, den, t_max=10)

    # reference: classic AMP with scalar coefficients
    n, p = 64, 128
    x = np.zeros(p)
    z = y.copy()
    prev = None
    for t in range(10):
        if prev is not None:
            tau_prev, fmean_prev, phi_prev = prev
            upsilon = (p / n) * tau_prev * fmean_prev / phi_prev
            z = y - A @ x + upsilon * z
        phi = float(np.mean(z * z))
        tau = phi  # single block with W = 1
        s = x + tau * (A.T @ (z / phi))
        f, fp = den(s, tau)
        x = f
        prev = (tau, float(fp.mean()), phi)
    assert np.linalg.norm(res.x_hat - x) <= 1e-9 * max(np.linalg.norm(x), 1.0)


def test_cs_amp_tracks_se_small():
    # coupled, moderate size; empirical MSE within a loose band of SE
    coupling = CouplingParams(3, 8, rho=0.25)
    Wcs = build_cs_base_matrix(coupling)
    eps, v, delta = 0.1, 1.0, 0.3
    prior = bernoulli_gauss_prior(eps, v)
    p = 4000
    n = int(round(delta * p / Wcs.shape[0])) * Wcs.shape[0]
    model = CsModel(W=Wcs, p=p, n=n, sigma2=1e-3, prior=prior)
    den = BgBayesDenoiser(eps, v)
    traj = run_cs_se(model, den, t_max=12)
    rng = np.random.default_rng(10)
    acc = None
    trials = 5
    for tr in range(trials):
        A = cs_design_matrix(model, seed=100 + tr)
        x = prior.sample(p, rng)
        y = A @ x + math.sqrt(model.sigma2) * rng.standard_normal(n)
        res = cs_amp_decode(A, y, model, den, t_max=12, x_true=x)
        acc = res.mse_trace if acc is None else acc + res.mse_trace
    emp = acc / trials
    pred = traj.mse_pred[1:13]
    assert np.max(np.abs(emp - pred)) < 0.08


def criterion_9_models():
    """The compressed-sensing problem of criterion 9 and its Wiener case."""
    Wcs = build_cs_base_matrix(CouplingParams(3, 8, rho=0.25))
    rows = Wcs.shape[0]
    n = int(round(0.3 * 20_000 / rows)) * rows
    model = CsModel(W=Wcs, p=20_000, n=n, sigma2=1e-3, prior=bernoulli_gauss_prior(0.1, 1.0))
    wiener = CsModel(
        W=Wcs, p=800, n=n * 800 // 20_000 // rows * rows, sigma2=1e-3,
        prior=bernoulli_gauss_prior(1.0, 1.0),
    )
    return [(model, BgBayesDenoiser(0.1, 1.0)), (wiener, BgBayesDenoiser(1.0, 1.0))]


@pytest.mark.parametrize("case", [0, 1], ids=["criterion-9", "wiener"])
def test_run_cs_se_matches_the_reference_loop(case):
    # the shared SE loop moves the CS-only loop's values by rounding only
    model, den = criterion_9_models()[case]
    traj = run_cs_se(model, den, t_max=15)
    ref = reference_run_cs_se(model, den, t_max=15)
    for name in ("psi", "phi", "tau"):
        np.testing.assert_allclose(getattr(traj, name), getattr(ref, name), rtol=1e-12, atol=0)
    assert not traj.reached_threshold
    np.testing.assert_array_equal(traj.mse_pred, traj.psi.mean(axis=1))


def test_run_cs_se_with_no_steps_keeps_the_block_shapes():
    model, den = criterion_9_models()[1]
    traj = run_cs_se(model, den, t_max=0)
    assert traj.psi.shape == (1, model.cols)
    assert traj.phi.shape == (0, model.rows)
    assert traj.tau.shape == (0, model.cols)


def test_cs_model_rejects_an_all_zero_column():
    # a zero column has no measurement, so its tau would be infinite
    with pytest.raises(ValueError, match="column 1"):
        CsModel(
            W=np.array([[0.5, 0.0], [0.5, 0.0]]), p=4, n=4, sigma2=1e-2,
            prior=bernoulli_gauss_prior(1.0, 1.0),
        )
