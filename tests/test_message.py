"""Message vectors, hard decisions, and error metrics."""

import numpy as np
import pytest
from scipy.stats import chi2

from scsparc.message import (
    hard_decision,
    nmse,
    random_message,
    section_error_rate,
)


def test_random_message_structure_and_determinism():
    a = random_message(2, 3, seed=11)
    b = random_message(2, 3, seed=11)
    assert np.array_equal(a, b)
    # one unit entry per section, zeros elsewhere
    sections = a.reshape(3, 2)
    assert np.all((sections == 0.0) | (sections == 1.0))
    assert np.all(sections.sum(axis=1) == 1.0)


def test_random_message_uniformity():
    # oracle: chi-square test on position counts over many draws
    M, L, n_draws = 8, 4, 10_000 // 4
    counts = np.zeros(M)
    for s in range(n_draws):
        beta = random_message(M, L, seed=s)
        counts += beta.reshape(L, M).sum(axis=0)
    total = counts.sum()
    expected = total / M
    stat = ((counts - expected) ** 2 / expected).sum()
    # fail with probability ~1e-4 under the null
    assert stat < chi2.ppf(1 - 1e-4, df=M - 1)


def test_hard_decision():
    est = np.array([0.7, 0.2, 0.1, 0.0])
    assert np.array_equal(hard_decision(est, 4), [1, 0, 0, 0])
    # ties go to the lowest index
    est = np.full(4, 0.25)
    assert np.array_equal(hard_decision(est, 4), [1, 0, 0, 0])
    # idempotent on message vectors
    msg = random_message(4, 5, seed=0)
    assert np.array_equal(hard_decision(msg, 4), msg)
    with pytest.raises(ValueError):
        hard_decision(np.zeros(5), 4)


def test_section_error_rate():
    truth = random_message(2, 8, seed=3)
    assert section_error_rate(truth, truth, 2) == 0.0
    flipped = truth.reshape(8, 2)[:, ::-1].ravel()
    assert section_error_rate(flipped, truth, 2) == 1.0
    one_wrong = truth.copy().reshape(8, 2)
    one_wrong[0] = one_wrong[0, ::-1]
    assert section_error_rate(one_wrong.ravel(), truth, 2) == 0.125
    with pytest.raises(ValueError):
        section_error_rate(truth[:-2], truth, 2)


def test_nmse():
    truth = random_message(4, 8, seed=1)
    overall, per_block = nmse(truth, truth, col_blocks=2)
    assert overall == 0.0
    assert np.all(per_block == 0.0)
    # hand-computed: perturb one entry of the first half by 0.5
    est = truth.astype(float).copy()
    est[0] += 0.5
    overall, per_block = nmse(est, truth, col_blocks=2)
    assert np.isclose(per_block[0], 0.25 / 4)  # L/C = 4 sections per block
    assert per_block[1] == 0.0
    assert np.isclose(overall, per_block.mean())
    # overall equals ||est - truth||^2 / L regardless of block count
    o1, _ = nmse(est, truth, col_blocks=1)
    assert np.isclose(o1, overall)


def test_nmse_complex_input():
    truth = random_message(2, 4, seed=0)
    est = truth + 1j * 0.1
    overall, _ = nmse(est, truth, col_blocks=1)
    assert np.isclose(overall, 4 * 0.01 * 2 / 4)  # |i*0.1|^2 per entry, 8 entries
