"""AWGN channel and SNR conversions."""

import math

import numpy as np
import pytest

from scsparc.channel import ChannelParams, ebn0_db, snr_from_db, transmit


def test_transmit_determinism_and_variance():
    x = np.ones(100_000)
    ch = ChannelParams(sigma2=0.25, P=1.0, field="real")
    y1 = transmit(x, ch, seed=5)
    y2 = transmit(x, ch, seed=5)
    assert np.array_equal(y1, y2)
    w = y1 - x
    # oracle: sample variance within 2%
    assert abs(w.var() - 0.25) / 0.25 < 0.02
    assert abs(w.mean()) < 3 * math.sqrt(0.25 / x.size)


def test_transmit_near_zero_noise():
    x = np.arange(10.0)
    ch = ChannelParams(sigma2=1e-30, P=1.0)
    y = transmit(x, ch, seed=0)
    assert np.allclose(y, x, atol=1e-12)


def test_transmit_complex_field():
    x = np.zeros(200_000, dtype=complex)
    ch = ChannelParams(sigma2=0.5, P=1.0, field="complex")
    y = transmit(x, ch, seed=1)
    assert np.iscomplexobj(y)
    # total variance per complex symbol, split evenly between parts
    assert abs(np.mean(np.abs(y) ** 2) - 0.5) / 0.5 < 0.02
    assert abs(y.real.var() - 0.25) / 0.25 < 0.03
    assert abs(y.imag.var() - 0.25) / 0.25 < 0.03


def test_snr_db_roundtrip():
    for snr in (0.5, 1.0, 15.0):
        assert math.isclose(snr_from_db(10.0 * math.log10(snr)), snr)
    assert math.isclose(snr_from_db(10.0), 10.0)


def test_ebn0():
    # snr=15 at R=1.5 bits per complex dim -> 15/1.5 = 10 dB
    R = 1.5 * math.log(2)
    assert math.isclose(ebn0_db(R, 15.0, field="complex"), 10.0)
    # monotone in snr at fixed rate
    vals = [ebn0_db(R, s) for s in (1.0, 2.0, 5.0, 15.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelParams(sigma2=0.0, P=1.0)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="sigma2 must"):
            ChannelParams(sigma2=bad, P=1.0)
        with pytest.raises(ValueError, match="P must"):
            ChannelParams(sigma2=1.0, P=bad)
    with pytest.raises(ValueError):
        ChannelParams(sigma2=1.0, P=1.0, field="ternary")
