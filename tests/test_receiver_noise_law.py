"""Oracle tests for the array receiver's front end and thermal-noise law.

Every radio chain adds i.i.d. complex Gaussian noise, N(0, sigma**2) per
quadrature with 2 * sigma**2 = kTB * NF from the chain's config, after
applying its gain and its oscillator's phase offset.  A packet's noise comes
from that packet's own generator (stream 24 of its capture ordinal), so it
does not depend on the batch around it.  These tests check that against
independent statistics: a chi-square test of each chain's variance, sample
correlations, and the simulator's own stream address.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from repro.api import Deployment, single_ap_scenario
from repro.arrays.geometry import OctagonalArray
from repro.hardware.radiochain import RadioChain, RadioChainConfig
from repro.hardware.receiver import ArrayReceiver, ReceiverConfig
from repro.testbed.scenario import CaptureRequest
from repro.utils.rng import keyed_noise_rng

NUM_SAMPLES = 1920
ROOT = 2024


def _noise_rngs(ordinals, root=ROOT):
    return [keyed_noise_rng(root, ordinal, 24) for ordinal in ordinals]


def _received_noise(receiver, rngs, num_samples=NUM_SAMPLES):
    """What the receiver captures from silence: its noise alone, (B, N, S)."""
    silence = np.zeros((len(rngs), receiver.num_chains, num_samples), dtype=complex)
    captures = receiver.capture_batch(silence, rngs=rngs)
    return np.stack([capture.samples for capture in captures])


def _variance_in_chi2_bounds(values, sigma):
    """True when ``sum(values**2) / sigma**2`` is a plausible chi2(n) draw."""
    n = values.size
    statistic = float(np.sum(values ** 2)) / sigma ** 2
    return chi2.ppf(1e-6, n) < statistic < chi2.ppf(1 - 1e-6, n)


def _max_abs_correlation(pairs):
    """Largest |sample correlation| over ``(x, y)`` pairs of 1-D arrays."""
    return max(abs(float(np.corrcoef(x, y)[0, 1])) for x, y in pairs)


@pytest.fixture(scope="module")
def receiver():
    return ArrayReceiver(OctagonalArray(), rng=3)


@pytest.fixture(scope="module")
def noise(receiver):
    return _received_noise(receiver, _noise_rngs(range(16)))


class TestFrontEnd:
    def test_noiseless_output_is_gain_times_phase_offset(self):
        receiver = ArrayReceiver(OctagonalArray(),
                                 config=ReceiverConfig(add_noise=False), rng=5)
        capture = receiver.capture(np.ones((8, 64), dtype=complex))
        for chain, row in zip(receiver.chains, capture.samples):
            expected = chain.gain_linear * np.exp(
                -1j * chain.oscillator.phase_offset_rad)
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0.0)

    def test_noise_power_is_ktb_times_noise_figure(self, receiver, noise):
        config = receiver.chains[0].config
        measured = float(np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(config.noise_power_watts, rel=0.02)


class TestNoiseLaw:
    def test_each_quadrature_of_each_chain_has_variance_sigma_squared(
            self, receiver, noise):
        for index, chain in enumerate(receiver.chains):
            sigma = chain.noise_sigma
            for quadrature in (noise[:, index].real, noise[:, index].imag):
                assert _variance_in_chi2_bounds(quadrature, sigma)
                # A zero mean too: |mean| within 5 standard errors.
                assert abs(quadrature.mean()) < 5 * sigma / np.sqrt(quadrature.size)

    def test_quadratures_and_neighbouring_samples_are_uncorrelated(self, noise):
        rows = noise.reshape(-1, NUM_SAMPLES)
        bound = 5.0 / np.sqrt(rows.size)
        real, imag = rows.real, rows.imag
        assert _max_abs_correlation([
            (real.ravel(), imag.ravel()),
            (real[:, :-1].ravel(), real[:, 1:].ravel()),
            (imag[:, :-1].ravel(), imag[:, 1:].ravel()),
            (imag[:, :-1].ravel(), real[:, 1:].ravel()),
        ]) < bound
        # Neighbouring chains of one packet draw independently too.
        chains = noise.real
        assert _max_abs_correlation([
            (chains[:, index].ravel(), chains[:, index + 1].ravel())
            for index in range(chains.shape[1] - 1)
        ]) < 5.0 / np.sqrt(chains[:, 0].size)

    def test_unequal_chain_sigmas_scale_their_own_rows(self):
        receiver = ArrayReceiver(OctagonalArray(), rng=3)
        figures_db = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0]
        receiver.chains = [
            RadioChain(chain.oscillator, RadioChainConfig(noise_figure_db=nf),
                       gain_db=0.0)
            for chain, nf in zip(receiver.chains, figures_db)
        ]
        noise = _received_noise(receiver, _noise_rngs(range(4)))
        sigmas = [chain.noise_sigma for chain in receiver.chains]
        assert len(set(sigmas)) == len(sigmas)
        for index, sigma in enumerate(sigmas):
            row = noise[:, index]
            assert _variance_in_chi2_bounds(row.real, sigma)
            assert _variance_in_chi2_bounds(row.imag, sigma)


class TestNoiseAddressing:
    def test_a_packet_draws_the_same_noise_in_a_batch_of_1_or_64(self, receiver):
        batch = _received_noise(receiver, _noise_rngs(range(64)))
        for ordinal in (0, 1, 31, 63):
            alone = _received_noise(receiver, _noise_rngs([ordinal]))[0]
            assert alone.tobytes() == batch[ordinal].tobytes()

    def test_distinct_ordinals_draw_distinct_noise(self, receiver):
        noise = _received_noise(receiver, _noise_rngs(range(4)))
        rows = noise.reshape(4, -1)
        assert _max_abs_correlation([
            (rows[a].real, rows[b].real)
            for a in range(4) for b in range(a + 1, 4)
        ]) < 5.0 / np.sqrt(rows[0].size)

    def test_the_simulator_draws_stream_24_of_each_capture_ordinal(self):
        spec = single_ap_scenario()
        noiseless = replace(spec, simulator=replace(
            spec.simulator, receiver=ReceiverConfig(add_noise=False)))
        noisy_simulator = Deployment(spec).simulator()
        quiet_simulator = Deployment(noiseless).simulator()
        request = CaptureRequest(position=noisy_simulator.environment.client_position(4))
        noisy = noisy_simulator.capture_batch([request] * 3)
        quiet = quiet_simulator.capture_batch([request] * 3)
        receiver = noisy_simulator.receiver
        sigmas = np.array([chain.noise_sigma for chain in receiver.chains])
        root = noisy_simulator._capture_root
        for ordinal, (a, b) in enumerate(zip(noisy, quiet)):
            # The two simulators share every stream but the noise, so the
            # difference of their captures is the noise up to rounding.
            draws = keyed_noise_rng(root, ordinal, 24).standard_normal(
                2 * b.samples.size).view(complex).reshape(b.samples.shape)
            np.testing.assert_allclose(a.samples - b.samples,
                                       sigmas[:, None] * draws,
                                       rtol=0.0, atol=1e-6 * sigmas.min())
