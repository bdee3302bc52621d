"""Property-based tests for the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scsparc.amp import eta_denoise
from scsparc.design import build_dft_design, build_gaussian_design
from scsparc.message import hard_decision, nmse, random_message
from scsparc.params import CouplingParams, SparcParams, build_base_matrix
from scsparc.state_evolution import SectionExpectation
from design_oracles import dense_form
from se_oracles import LogsumexpSectionExpectation

coupling_st = st.tuples(
    st.integers(1, 6), st.integers(1, 40), st.floats(0.0, 0.9)
).filter(lambda t: t[1] >= 2 * t[0] - 1 and (t[2] == 0.0 or t[1] >= 2))


@settings(max_examples=50, deadline=None)
@given(coupling_st)
def test_base_matrix_power_and_symmetry(ct):
    omega, Lambda, rho = ct
    W = build_base_matrix(CouplingParams(omega, Lambda, rho)).entries
    assert np.isclose(W.mean(), 1.0, rtol=1e-12)
    assert np.all(W >= 0)
    assert np.allclose(W, W[::-1, ::-1])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 16), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_message_roundtrip(M, L, seed):
    beta = random_message(M, L, seed)
    assert np.array_equal(hard_decision(beta, M), beta)
    overall, per_block = nmse(beta, beta, col_blocks=1)
    assert overall == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 6),
    st.floats(0.01, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_eta_denoise_is_simplex_valued(M, L, tau, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(M * L) * 100
    out = eta_denoise(s, np.array([tau]), M, col_blocks=1)
    sections = out.reshape(L, M)
    assert np.all(out >= 0)
    assert np.allclose(sections.sum(axis=1), 1.0)
    # denoiser favors the largest observation in each section
    assert np.array_equal(sections.argmax(axis=1), s.reshape(L, M).argmax(axis=1))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 200),
    st.integers(1, 600),
    st.integers(0, 2**32 - 1),
    st.floats(1e-5, 50.0),
)
def test_section_expectation_in_unit_interval_and_matches_oracle(M, n, seed, tau):
    val = SectionExpectation(M, n, seed)(tau)
    assert 0.0 <= val <= 1.0
    assert abs(val - LogsumexpSectionExpectation(M, n, seed)(tau)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 6), st.floats(0.0, 0.9)).filter(
        lambda t: t[1] >= 2 * t[0] - 1 and (t[2] == 0.0 or t[1] >= 2)
    ),
    st.sampled_from([2, 4, 8]),
    st.sampled_from([1, 2, 4]),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_operators_match_their_dense_form(ct, M, sections, k, seed):
    # every operator the harness builds: dense real, dense complex, DFT;
    # L = sections * Lambda and k complex rows per row block
    omega, Lambda, rho = ct
    W = build_base_matrix(CouplingParams(omega, Lambda, rho))
    params = SparcParams(n=2 * k * W.rows, M=M, L=sections * Lambda, base=W, sigma2=0.1)
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.5, 2.0, size=(W.rows, W.cols))
    for op in (
        build_gaussian_design(params, W, seed),
        build_gaussian_design(params, W, seed, field="complex"),
        build_dft_design(params, W, seed),
    ):
        A = dense_form(op)

        def draw(size):
            x = rng.standard_normal(size)
            return x + 1j * rng.standard_normal(size) if op.field == "complex" else x

        beta, z = draw(op.n_cols), draw(op.n_rows)
        ref = A @ beta
        assert np.linalg.norm(op.apply(beta) - ref) <= 1e-10 * np.linalg.norm(ref)
        S_full = np.repeat(np.repeat(S, op.rows_per_block, axis=0), op.cols_per_block, axis=1)
        ref = (S_full * A).conj().T @ z
        got = op.apply_scaled_adjoint(S, z)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        ones = np.ones((W.rows, W.cols))
        lhs = np.vdot(z, op.apply(beta))
        rhs = np.vdot(op.apply_scaled_adjoint(ones, z), beta)
        scale = np.linalg.norm(z) * np.linalg.norm(A) * np.linalg.norm(beta)
        assert abs(lhs - rhs) <= 1e-10 * scale
