"""State evolution: section expectation, recursion, asymptotic wave."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from scsparc import state_evolution
from scsparc.harness import ExperimentConfig
from scsparc.params import (
    LN2, BaseMatrix, CouplingParams, SparcParams, build_base_matrix, derive_code_params,
)
from scsparc.state_evolution import (
    SectionExpectation,
    asymptotic_se,
    normal_quadrature,
    progression_report,
    run_se,
    se_step,
)
from se_oracles import LogsumexpSectionExpectation, mc_expectation_E, reference_run_se


def test_normal_quadrature_is_computed_once_and_read_only():
    x, w = normal_quadrature(64)
    nodes, wts = np.polynomial.hermite.hermgauss(64)
    assert np.array_equal(x, math.sqrt(2.0) * nodes)
    assert np.array_equal(w, wts / math.sqrt(math.pi))
    assert normal_quadrature(64)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0


def quad_expectation_M2(tau):
    """1-D quadrature oracle for M=2: the posterior mass on the true entry
    depends only on the Gaussian difference D = (U2 - U1)/sqrt(2)."""

    def integrand(u):
        d = math.sqrt(2.0) * u  # U2 - U1 ~ N(0, 2)
        return (
            1.0 / (1.0 + math.exp(d / math.sqrt(tau) - 1.0 / tau))
        ) * math.exp(-u * u / 2.0) / math.sqrt(2 * math.pi)

    val, err = quad(integrand, -12, 12, limit=200)
    assert err < 1e-7
    return val


@pytest.mark.parametrize("tau", [0.05, 0.2, 1.0])
def test_expectation_matches_quadrature_M2(tau):
    n = 100_000
    est = mc_expectation_E(tau, 2, n_samples=n, seed=0)
    oracle = quad_expectation_M2(tau)
    # binomial-style standard error bound for a [0,1] variable
    se = 0.5 / math.sqrt(n)
    assert abs(est - oracle) < 3 * se
    # the low-variance estimator must agree much more tightly
    cond = SectionExpectation(2, n_samples=20_000, seed=1)(tau)
    assert abs(cond - oracle) < 5e-3


def test_expectation_tau_to_zero():
    # as tau -> 0 the true entry dominates and E -> 1
    assert mc_expectation_E(1e-4, 4, n_samples=10_000, seed=0) >= 1 - 1e-3
    assert SectionExpectation(4, 10_000, seed=0)(1e-4) >= 1 - 1e-3


def test_expectation_monotone_in_tau():
    # common random numbers across a 20-point grid
    exp = SectionExpectation(16, n_samples=5_000, seed=2)
    grid = np.geomspace(0.01, 5.0, 20)
    vals = [exp(t) for t in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_expectation_estimators_agree():
    for tau, M in [(0.1, 8), (0.3, 64), (1.0, 512)]:
        a = SectionExpectation(M, 20_000, seed=3)(tau)
        b = mc_expectation_E(tau, M, 200_000, seed=4)
        assert abs(a - b) < 5e-3


def test_se_step_interior_phi():
    # with psi = 1 an interior row of the band matrix sees
    # phi = sigma2 + vartheta (only when every band column is interior,
    # i.e. row r collects omega band entries of value (1-rho)R/omega)
    coupling = CouplingParams(omega=3, Lambda=12)
    sigma2 = 0.25
    W = build_base_matrix(coupling)
    psi = np.ones(W.cols)
    phi = sigma2 + W.entries @ psi / W.cols
    # interior row r in [omega-1, Lambda-1]: omega entries of rows/omega
    interior = phi[3:11]
    expected = sigma2 + W.rows / W.cols
    assert np.allclose(interior, expected)
    assert math.isclose(W.rows / W.cols, coupling.vartheta)


def test_se_step_tau_formula():
    params = derive_code_params(
        1.0 * LN2, 8, CouplingParams(2, 4), 32, sigma2=0.1
    )
    W = params.base
    exp = SectionExpectation(8, 2000, seed=0)
    psi = np.full(W.cols, 0.5)
    phi, tau, psi_next = se_step(psi, params, exp)
    # oracle: direct loop evaluation of the definitions
    for r in range(W.rows):
        assert math.isclose(phi[r], params.sigma2 + W.entries[r].dot(psi) / W.cols)
    for c in range(W.cols):
        info = np.mean(W.entries[:, c] / phi)
        assert math.isclose(tau[c], (params.R / math.log(8)) / info)
        assert math.isclose(psi_next[c], 1.0 - exp(tau[c]), abs_tol=1e-12)
    assert np.all((psi_next >= 0) & (psi_next <= 1))


def test_run_se_threshold_one():
    params = derive_code_params(
        1.0 * LN2, 8, CouplingParams(2, 4), 32, sigma2=0.1
    )
    traj = run_se(params, threshold=1.0, t_max=10)
    assert traj.iterations == 0
    assert traj.reached_threshold


def test_run_se_rejects_a_negative_t_max():
    params = derive_code_params(1.0 * LN2, 8, CouplingParams(2, 4), 32, sigma2=0.1)
    with pytest.raises(ValueError, match="t_max"):
        run_se(params, t_max=-1)
    traj = run_se(params, t_max=0)  # zero steps stay a trajectory
    assert traj.psi.shape == (1, params.base.cols) and traj.phi.shape == (0, params.base.rows)


def test_run_se_decodes_well_below_capacity():
    # snr=15 (capacity 2 bits), rate 1 bit: psi must hit the floor
    params = derive_code_params(
        1.0 * LN2, 32, CouplingParams(3, 8), 64, sigma2=1 / 15
    )
    traj = run_se(params, threshold=1e-2, t_max=60, mc_samples=4000)
    assert traj.reached_threshold
    # wave decodes from the edges inward: edge blocks fall first
    mid_t = max(1, traj.iterations // 2)
    psi_mid = traj.psi[mid_t]
    assert psi_mid[0] <= psi_mid[len(psi_mid) // 2] + 1e-12
    assert psi_mid[-1] <= psi_mid[len(psi_mid) // 2] + 1e-12


def test_run_se_uncoupled_stall():
    # a 1x1 base matrix at a rate near capacity stalls above threshold
    snr = 15.0
    R = 0.98 * 0.5 * math.log1p(snr)
    params = derive_code_params(
        R, 64, CouplingParams(1, 1), 64, sigma2=1 / snr
    )
    traj = run_se(params, threshold=1e-2, t_max=60, mc_samples=4000)
    assert not traj.reached_threshold
    assert traj.psi[-1][0] > 0.5


def test_run_se_psi_monotone():
    params = derive_code_params(
        1.2 * LN2, 16, CouplingParams(3, 8), 64, sigma2=1 / 15
    )
    traj = run_se(params, threshold=1e-4, t_max=30, mc_samples=4000)
    diffs = np.diff(traj.psi, axis=0)
    assert np.all(diffs <= 1e-9)


def test_asymptotic_se_monotone_and_symmetric():
    W = build_base_matrix(CouplingParams(4, 16))
    hist = asymptotic_se(W, R=0.6, sigma2=1 / 15)
    assert np.all(np.diff(hist, axis=0) <= 0)  # 0/1, nonincreasing
    for row in hist:
        assert np.array_equal(row, row[::-1])  # symmetric wave


def test_asymptotic_one_shot_rate():
    # rate low enough that the very first iteration decodes every block
    snr = 15.0
    coupling = CouplingParams(6, 32)
    vt = coupling.vartheta
    delta = 0.1
    R = 0.9 * (1.0 - 0.0) / (2.0 + delta) * snr / (1.0 + vt * snr)
    W = build_base_matrix(coupling)
    hist = asymptotic_se(W, R=R, sigma2=1 / snr)
    assert np.all(hist[1] == 0.0)


def test_progression_report_flagship():
    snr = 15.0
    rep = progression_report(R=1.5 * LN2, snr=snr, omega=6, Lambda=32, M=512)
    vt = 1 + 5 / 32
    assert math.isclose(rep.vartheta, vt)
    assert math.isclose(rep.Delta, 0.5 / vt * math.log1p(vt * snr) - 1.5 * LN2)
    assert math.isclose(rep.g, (1 + vt * snr) * rep.Delta / (vt * snr**2) * 6)
    assert rep.feasible == (rep.Delta > 0 and 6 > rep.omega_min)
    if rep.feasible:
        assert rep.T_bound == math.ceil(32 / (2 * rep.g))


def test_expectation_validation():
    with pytest.raises(ValueError):
        SectionExpectation(1)
    with pytest.raises(ValueError):
        SectionExpectation(4)(0.0)
    with pytest.raises(ValueError):
        SectionExpectation(4, 100)(float("nan"))
    with pytest.raises(ValueError):
        SectionExpectation(4, 100)(np.ones((2, 2)))
    with pytest.raises(ValueError):
        mc_expectation_E(-1.0, 4)


@pytest.mark.parametrize("M", [2, 16, 128, 512])
def test_expectation_matches_logsumexp_oracle(M):
    # the offline_sweep sample size: full row blocks and a partial one
    n = 1000
    fast = SectionExpectation(M, n, seed=11)
    oracle = LogsumexpSectionExpectation(M, n, seed=11)
    for tau in np.geomspace(1e-5, 50, 60):
        assert abs(fast(tau) - oracle(tau)) <= 1e-12, tau


def test_expectation_buffers_do_not_leak_between_calls():
    exp = SectionExpectation(32, 700, seed=5)
    first = exp(0.3)
    exp(4.0)
    assert exp(0.3) == first
    # batched and scalar calls share the buffers; a longer batch grows them
    batch = np.array([2.0, 0.3, 0.01])
    out = exp(batch)
    assert exp(0.3) == first
    exp(np.geomspace(0.01, 9.0, 12))
    assert np.array_equal(exp(batch), out)
    assert exp(0.3) == first


@pytest.mark.parametrize("M", [2, 16, 128, 512])
def test_batched_expectation_matches_per_tau_calls(M):
    # one pass over the sample for all taus; duplicates included
    taus = np.array([0.4, 1e-3, 7.0, 0.4, 0.05, 1e-3, 2.5, 0.4])
    exp = SectionExpectation(M, 1000, seed=2)
    batched = exp(taus)
    assert isinstance(batched, np.ndarray) and batched.shape == taus.shape
    per_tau = np.array([exp(t) for t in taus])
    assert all(isinstance(exp(t), float) for t in taus[:2])
    np.testing.assert_allclose(batched, per_tau, rtol=0, atol=1e-15)
    assert batched[0] == batched[3] == batched[7]


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_batched_expectation_rejects_one_bad_tau(bad, where):
    taus = np.array([0.3, 1.0, 2.0, 0.1, 0.7])
    taus[where] = bad
    with pytest.raises(ValueError, match="tau"):
        SectionExpectation(8, 300, seed=0)(taus)


class CountingExpectation(SectionExpectation):
    """Records every tau it is asked to evaluate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def __call__(self, tau):
        self.calls.append(np.atleast_1d(np.asarray(tau, dtype=float)).copy())
        return super().__call__(tau)


def test_se_step_evaluates_mirror_columns_once():
    params = derive_code_params(1.5 * LN2, 128, CouplingParams(6, 32), 1024, 1 / 15)
    W = params.base
    exp = CountingExpectation(params.M, 500, seed=1)
    # a mid-wave psi, symmetric about the centre like SE's own
    psi = np.minimum(1.0, np.abs(np.arange(W.cols) - (W.cols - 1) / 2) / 8)
    _, tau, psi_next = se_step(psi, params, exp)
    assert len(exp.calls) == 1  # one pass over the sample per step
    (evaluated,) = exp.calls
    keys = {f"{t:.11e}" for t in tau}
    assert len(evaluated) == len(keys) <= W.cols // 2 + 1
    # mirror taus may differ in the last digits, yet share one evaluation
    mirror = tau[::-1]
    assert np.any(tau != mirror)
    np.testing.assert_allclose(tau, mirror, rtol=1e-12)
    assert np.array_equal(psi_next, psi_next[::-1])
    for t in evaluated:  # the first exact tau of each key
        assert t == tau[[f"{u:.11e}" for u in tau].index(f"{t:.11e}")]


def test_se_step_separates_taus_beyond_twelve_digits():
    # tau_c is proportional to 1/W_c on one row: columns 0 and 1 differ by
    # one ulp, columns 2 and 3 by 1e-10 and 1e-11 relative (tens and a few
    # units of the 12th significant digit)
    row = np.array([1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-10, 1.0 + 1e-11])
    W = BaseMatrix(entries=row[np.newaxis, :])
    params = SparcParams(n=11, M=4, L=4, base=W, sigma2=0.1)  # R = 4 ln 4 / 11, near 0.5
    exp = CountingExpectation(4, 200, seed=0)
    _, tau, psi_next = se_step(np.ones(4), params, exp)
    assert len(set(tau.tolist())) == 4
    assert np.array_equal(exp.calls[0], tau[[0, 2, 3]])
    assert psi_next[0] == psi_next[1]
    assert len(set(psi_next[[0, 2, 3]].tolist())) == 3


def test_run_se_matches_logsumexp_oracle(monkeypatch):
    # the offline_sweep benchmark code: M=128, L=1024, 1.5 bits, complex DFT
    cfg = ExperimentConfig(
        M=128, L=1024, omega=6, Lambda=32, rho=0.0, rate_bits=(1.5,),
        snr_db=(10.0 * math.log10(15.0),), field_kind="complex",
        se_mode="offline", operator="dft", t_max=40, mc_samples=1000,
    )
    params, W = cfg.code_params(*cfg.sweep[0])
    fast = run_se(params, t_max=40, mc_samples=1000, seed=3)
    monkeypatch.setattr(
        state_evolution, "SectionExpectation", LogsumexpSectionExpectation
    )
    oracle = run_se(params, t_max=40, mc_samples=1000, seed=3)
    assert fast.iterations == oracle.iterations > 10
    for name in ("psi", "phi", "tau"):
        np.testing.assert_allclose(
            getattr(fast, name), getattr(oracle, name), rtol=0, atol=1e-12
        )


def assert_same_trajectory(traj, ref):
    for name in ("psi", "phi", "tau", "reached_threshold"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


@pytest.mark.parametrize("rate_bits", [1.0, 1.5])
def test_run_se_matches_the_reference_loop_at_the_offline_sweep_points(rate_bits):
    # the shared SE loop reproduces the SPARC-only loop bit for bit
    cfg = ExperimentConfig(
        M=128, L=1024, omega=6, Lambda=32, rho=0.0, rate_bits=(rate_bits,),
        snr_db=(10.0 * math.log10(15.0),), field_kind="complex",
        se_mode="offline", operator="dft", t_max=40, mc_samples=1000,
    )
    params, W = cfg.code_params(*cfg.sweep[0])
    traj = run_se(params, t_max=40, mc_samples=1000, seed=5)
    assert traj.reached_threshold and traj.iterations > 5
    assert_same_trajectory(traj, reference_run_se(W, params, t_max=40, mc_samples=1000, seed=5))


def test_run_se_matches_the_reference_loop_at_threshold_one_and_on_a_stall():
    params = derive_code_params(1.0 * LN2, 8, CouplingParams(2, 4), 32, sigma2=0.1)
    traj = run_se(params, threshold=1.0, t_max=10)
    assert traj.phi.shape == (0, params.base.rows) and traj.tau.shape == (0, params.base.cols)
    assert_same_trajectory(traj, reference_run_se(params.base, params, threshold=1.0, t_max=10))
    # the uncoupled stall of test_run_se_uncoupled_stall, run to t_max
    snr = 15.0
    params = derive_code_params(0.98 * 0.5 * math.log1p(snr), 64, CouplingParams(1, 1), 64, 1 / snr)
    traj = run_se(params, threshold=1e-2, t_max=30, mc_samples=2000)
    assert traj.iterations == 30 and not traj.reached_threshold
    ref = reference_run_se(params.base, params, threshold=1e-2, t_max=30, mc_samples=2000)
    assert_same_trajectory(traj, ref)
