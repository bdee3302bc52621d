"""Base-matrix construction and code sizing."""

import math

import numpy as np
import pytest

from scsparc.params import (
    LN2,
    CouplingParams,
    build_base_matrix,
    derive_code_params,
    is_power_of_2,
)


def test_band_matrix_shape_and_values():
    # oracle: direct evaluation of the band formula
    W = build_base_matrix(CouplingParams(omega=3, Lambda=7), P=1.0)
    assert W.entries.shape == (9, 7)
    for c in range(7):
        col = W.entries[:, c]
        band = col[c : c + 3]
        assert np.all(band == 3.0)  # (1-0)*1*9/3
        off = np.delete(col, np.s_[c : c + 3])
        assert np.all(off == 0.0)


def test_uncoupled_base_matrix():
    W = build_base_matrix(CouplingParams(omega=1, Lambda=1), P=2.5)
    assert W.entries.shape == (1, 1)
    assert W.entries[0, 0] == 2.5


def test_power_identity_with_rho():
    # oracle: direct double sum over all entries
    W = build_base_matrix(CouplingParams(omega=2, Lambda=4, rho=0.5), P=1.0)
    assert W.entries.shape == (5, 4)
    total = 0.0
    for r in range(5):
        for c in range(4):
            total += W.entries[r, c]
    assert math.isclose(total / (5 * 4), 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("omega,Lambda,rho", [(1, 1, 0.0), (3, 7, 0.0), (2, 4, 0.5), (6, 32, 0.1)])
def test_power_identity_general(omega, Lambda, rho):
    W = build_base_matrix(CouplingParams(omega, Lambda, rho), P=1.0)
    assert math.isclose(W.entries.mean(), 1.0, rel_tol=1e-12)


def test_column_support_and_symmetry():
    W = build_base_matrix(CouplingParams(omega=4, Lambda=12), P=1.0).entries
    for c in range(12):
        nz = np.flatnonzero(W[:, c])
        assert np.array_equal(nz, np.arange(c, c + 4))
    # invariant under simultaneous reversal of rows and columns
    assert np.array_equal(W, W[::-1, ::-1])


def test_coupling_validation():
    with pytest.raises(ValueError):
        CouplingParams(omega=3, Lambda=4)  # Lambda < 2*omega-1
    with pytest.raises(ValueError):
        CouplingParams(omega=2, Lambda=4, rho=1.0)
    with pytest.raises(ValueError):
        CouplingParams(omega=0, Lambda=1)


def test_flagship_code_sizing():
    # n must divide into 37 row blocks and land on the published size
    params = derive_code_params(
        target_rate=1.5 * LN2,
        M=512,
        coupling=CouplingParams(omega=6, Lambda=32),
        L=2048,
        P=1.0,
        sigma2=1.0 / 15.0,
    )
    assert params.n == 12284
    assert params.n % 37 == 0
    assert math.isclose(params.rate_bits, 2048 * math.log(512) / 12284 / LN2)
    assert abs(params.rate_bits - 1.5005) < 1e-3


def test_code_sizing_fixed_point():
    # a rate whose raw n is already a multiple of the row count is unchanged
    coupling = CouplingParams(omega=2, Lambda=4)  # 5 row blocks
    L, M, n = 64, 16, 250
    R = L * math.log(M) / n
    params = derive_code_params(R, M, coupling, L, P=1.0, sigma2=0.1)
    assert params.n == n
    assert math.isclose(params.R, R, rel_tol=1e-12)


def test_code_sizing_nearest_multiple():
    # raw n = 64*ln(16)/ln(2) = 256; nearest multiple of 5 is 255
    params = derive_code_params(
        LN2, 16, CouplingParams(omega=2, Lambda=4), 64, P=1.0, sigma2=0.1
    )
    assert params.n == 255
    assert params.n % 5 == 0


def test_code_sizing_even_option():
    coupling = CouplingParams(omega=2, Lambda=4)  # 5 rows (odd)
    params = derive_code_params(LN2, 16, coupling, 64, 1.0, 0.1, even=True)
    assert params.n % 10 == 0


def test_rate_identity():
    params = derive_code_params(
        1.0, 8, CouplingParams(omega=2, Lambda=4), 32, P=1.0, sigma2=0.5
    )
    assert abs(params.R - 32 * math.log(8) / params.n) <= 1e-12


def test_code_sizing_errors():
    with pytest.raises(ValueError):
        derive_code_params(1.0, 8, CouplingParams(2, 4), 33, 1.0, 0.5)  # L % Lambda
    with pytest.raises(ValueError):
        derive_code_params(1e9, 8, CouplingParams(2, 4), 32, 1.0, 0.5)  # n rounds to 0


def test_is_power_of_2():
    assert is_power_of_2(1) and is_power_of_2(64)
    assert not is_power_of_2(0) and not is_power_of_2(12)
