"""AWGN channel and SNR conversions."""

import math

import numpy as np
import pytest

from scsparc.channel import ebn0_db, snr_from_db, transmit


def test_transmit_determinism_and_variance():
    x = np.ones(100_000)
    y1 = transmit(x, 0.25, seed=5)
    y2 = transmit(x, 0.25, seed=5)
    assert np.array_equal(y1, y2)
    w = y1 - x
    # oracle: sample variance within 2%
    assert abs(w.var() - 0.25) / 0.25 < 0.02
    assert abs(w.mean()) < 3 * math.sqrt(0.25 / x.size)


def test_transmit_near_zero_noise():
    x = np.arange(10.0)
    y = transmit(x, 1e-30, seed=0)
    assert np.allclose(y, x, atol=1e-12)


def test_transmit_complex_field():
    x = np.zeros(200_000, dtype=complex)
    y = transmit(x, 0.5, seed=1)
    assert np.iscomplexobj(y)
    # total variance per complex symbol, split evenly between parts
    assert abs(np.mean(np.abs(y) ** 2) - 0.5) / 0.5 < 0.02
    assert abs(y.real.var() - 0.25) / 0.25 < 0.03
    assert abs(y.imag.var() - 0.25) / 0.25 < 0.03


@pytest.mark.parametrize("dtype", [float, complex])
def test_transmit_is_the_explicit_draw(dtype):
    # the noise is complex exactly when x is, drawn from one generator:
    # sqrt(sigma2) g in the real field, sqrt(sigma2/2) (g1 + 1j g2) in the
    # complex field
    x = np.linspace(-1.0, 1.0, 64).astype(dtype)
    sigma2, seed = 0.3, np.random.SeedSequence(entropy=9, spawn_key=(0, 1, 2))
    rng = np.random.default_rng(seed)
    if dtype is complex:
        g1, g2 = rng.standard_normal(x.size), rng.standard_normal(x.size)
        w = math.sqrt(sigma2 / 2.0) * (g1 + 1j * g2)
    else:
        w = math.sqrt(sigma2) * rng.standard_normal(x.size)
    y = transmit(x, sigma2, seed)
    assert y.dtype == np.dtype(dtype)
    assert np.array_equal(y, x + w)


def test_snr_db_roundtrip():
    for snr in (0.5, 1.0, 15.0):
        assert math.isclose(snr_from_db(10.0 * math.log10(snr)), snr)
    assert math.isclose(snr_from_db(10.0), 10.0)


def test_ebn0():
    # snr=15 at R=0.75 bits per real dim -> 15/(2*0.75) = 10 dB
    R = 0.75 * math.log(2)
    assert math.isclose(ebn0_db(R, 15.0), 10.0)
    # monotone in snr at fixed rate
    vals = [ebn0_db(R, s) for s in (1.0, 2.0, 5.0, 15.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_channel_validation():
    x = np.zeros(4)
    for bad in (0.0, float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match="sigma2 must"):
            transmit(x, bad, seed=0)
