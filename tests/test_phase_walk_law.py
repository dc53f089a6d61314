"""Oracle tests for the law of the per-path random-walk phase.

The walk is drawn every ``K = PHASE_WALK_KNOT_SPACING`` samples and is linear
in between.  These tests check what that promises against independent
computations: the knot phases are ``initial + cumsum(knot steps)`` with
variance ``sigma**2 * lag``, every sample has unit magnitude, and the phase
between two knots moves linearly from one to the other.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from repro.channel.channel import (
    ChannelConfig,
    phase_random_walk,
    phase_random_walk_batch,
)
from repro.kernels.backend import PHASE_WALK_KNOT_SPACING as K

SIGMA = 0.02


def _knot_draws(generator, num_walks, num_samples, sigma):
    """The walks' draws, redone by hand in the documented order."""
    num_knots = int(np.ceil((num_samples - 1) / K)) + 1
    initials, steps = [], []
    for _ in range(num_walks):
        initials.append(generator.uniform(0.0, 2.0 * np.pi))
        knot_steps = generator.normal(0.0, sigma * np.sqrt(K), size=num_knots)
        knot_steps[0] = 0.0
        steps.append(knot_steps)
    return np.array(initials), np.array(steps)


@pytest.mark.parametrize("knots", [1, 4, 16])
def test_knot_increments_have_variance_sigma_squared_lag(knots):
    num_walks = 4000
    lag = knots * K
    walks = phase_random_walk_batch(num_walks, 2 * lag + 1, SIGMA,
                                    np.random.default_rng(11))
    # Two disjoint increments per walk; |increment| << pi, so angle() does
    # not wrap.
    increments = np.concatenate([
        np.angle(walks[:, lag] * walks[:, 0].conj()),
        np.angle(walks[:, 2 * lag] * walks[:, lag].conj()),
    ])
    n = increments.size
    statistic = np.sum(increments ** 2) / (SIGMA ** 2 * lag)
    assert chi2.ppf(1e-6, n) < statistic < chi2.ppf(1 - 1e-6, n)


def test_unit_magnitude():
    walks = phase_random_walk_batch(64, 1920, 0.5, np.random.default_rng(5))
    assert np.max(np.abs(np.abs(walks) - 1.0)) < 1e-12


@pytest.mark.parametrize("num_samples", [1, K - 1, K, K + 1, 3 * K + 5, 1920])
def test_knot_samples_are_the_cumulative_knot_phases(num_samples):
    walks = phase_random_walk_batch(5, num_samples, SIGMA,
                                    np.random.default_rng(8))
    replay = np.random.default_rng(8)
    initials, steps = _knot_draws(replay, 5, num_samples, SIGMA)
    phases = initials[:, None] + np.cumsum(steps, axis=1)
    expected = np.cos(phases) + 1j * np.sin(phases)
    knots_in_range = (num_samples - 1) // K + 1
    assert np.array_equal(walks[:, ::K], expected[:, :knots_in_range])


def test_draws_consume_exactly_the_knot_steps():
    generator = np.random.default_rng(3)
    phase_random_walk_batch(4, 1920, SIGMA, generator)
    replay = np.random.default_rng(3)
    _knot_draws(replay, 4, 1920, SIGMA)
    assert generator.random() == replay.random()


def test_phase_is_linear_between_knots():
    num_samples = 10 * K + 1
    walks = phase_random_walk_batch(6, num_samples, 0.3,
                                    np.random.default_rng(4))
    _, steps = _knot_draws(np.random.default_rng(4), 6, num_samples, 0.3)
    offsets = np.arange(K)
    for knot in range(10):
        segment = walks[:, knot * K:(knot + 1) * K]
        linear = np.exp(1j * steps[:, knot + 1, None] * offsets / K)
        np.testing.assert_allclose(segment, segment[:, :1] * linear,
                                   rtol=0, atol=1e-12)


def test_zero_std_is_constant():
    walks = phase_random_walk_batch(3, 200, 0.0, np.random.default_rng(2))
    assert np.all(walks == walks[:, :1])


@pytest.mark.parametrize("num_samples", [1, K - 1, K, K + 1, 1920])
def test_returns_exactly_num_samples(num_samples):
    assert phase_random_walk_batch(3, num_samples, SIGMA, 1).shape == (3, num_samples)
    assert phase_random_walk(num_samples, SIGMA, 1).shape == (num_samples,)


@pytest.mark.parametrize("std", [float("nan"), float("inf"), -0.1])
def test_walk_rejects_a_non_finite_or_negative_std(std):
    with pytest.raises(ValueError, match="step_std_rad"):
        phase_random_walk_batch(2, 100, std, 1)


@pytest.mark.parametrize("std", [float("nan"), float("inf"), -0.1])
def test_channel_config_rejects_a_non_finite_or_negative_std(std):
    with pytest.raises(ValueError, match="path_phase_walk_std_rad"):
        ChannelConfig(path_phase_walk_std_rad=std)
