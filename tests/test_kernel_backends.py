"""The kernel tier: the numpy kernel module.

The kernels are the literal inline numpy code the call sites used to carry,
so these tests assert byte-level agreement with the direct numpy
expressions.
"""

import importlib
import inspect

import numpy as np
import pytest
from scipy.linalg.blas import zherk

from repro.aoa.estimator import EstimatorConfig
from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import steering_vector
from repro.channel.channel import (
    ArrayChannel,
    fractional_delay_batch,
    phase_random_walk_batch,
)
from repro.hardware.receiver import ArrayReceiver
from repro.kernels import NumpyBackend, delay_ramps, kernels
from repro.kernels.backend import PHASE_WALK_KNOT_SPACING
from repro.phy.ofdm import OfdmModulator
from repro.phy.packet import make_packet_waveform, make_packet_waveforms
from repro.testbed.scenario import SimulatorConfig

#: Modules whose hot loops call the shared kernel instance.
KERNEL_CALL_SITES = (
    "repro.aoa.batch",
    "repro.aoa.subspace",
    "repro.aoa.covariance",
    "repro.core.beamforming",
    "repro.channel.channel",
    "repro.phy.ofdm",
)

#: Kernels the stage ledger wraps on the class (``vars(NumpyBackend)[name]``).
LEDGER_KERNELS = (
    "eigh",
    "correlation_stack",
    "music_projection_power",
    "phase_walk",
    "fractional_delay",
    "matmul",
    "ifft",
)


@pytest.fixture
def numpy_backend():
    return kernels


# ---------------------------------------------------------- one implementation
class TestSingleImplementation:
    """There is one kernel instance, and no knob selects another."""

    @pytest.mark.parametrize("module_name", KERNEL_CALL_SITES)
    def test_call_site_uses_the_module_instance(self, module_name):
        module = importlib.import_module(module_name)
        assert module.kernels is kernels
        assert type(module.kernels) is NumpyBackend

    @pytest.mark.parametrize("name", LEDGER_KERNELS)
    def test_ledger_kernel_is_a_plain_instance_method(self, name):
        # A wrapper installed on the class must reach every call site.
        assert inspect.isfunction(vars(NumpyBackend)[name])
        bound = getattr(kernels, name)
        assert bound.__self__ is kernels
        assert bound.__func__ is vars(NumpyBackend)[name]

    @pytest.mark.parametrize("target", [
        EstimatorConfig, SimulatorConfig, ArrayChannel, ArrayReceiver,
        OfdmModulator, make_packet_waveform, make_packet_waveforms,
        fractional_delay_batch, phase_random_walk_batch,
    ], ids=lambda target: target.__name__)
    def test_no_compute_backend_knob(self, target):
        # Neither a compute backend nor an arithmetic precision is selectable:
        # every path runs the one float64 numpy pipeline.
        parameters = inspect.signature(target).parameters
        assert "backend" not in parameters
        assert "precision" not in parameters
        assert "dtype" not in parameters


# ------------------------------------------------------------- numpy kernels
class TestNumpyKernels:
    """NumpyBackend kernels are byte-identical to the direct expressions."""

    def test_eigh_inv_matmul(self, numpy_backend, rng):
        x = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        hermitian = x @ x.conj().transpose(0, 2, 1)
        values, vectors = numpy_backend.eigh(hermitian)
        ref_values, ref_vectors = np.linalg.eigh(hermitian)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(vectors, ref_vectors)
        loaded = hermitian + np.eye(6)
        assert np.array_equal(numpy_backend.inv(loaded), np.linalg.inv(loaded))
        assert np.array_equal(numpy_backend.matmul(x, hermitian),
                              np.matmul(x, hermitian))

    def test_correlation_stack_matches_definition(self, numpy_backend, rng):
        samples = [rng.standard_normal((4, t)) + 1j * rng.standard_normal((4, t))
                   for t in (64, 100)]
        stack = numpy_backend.correlation_stack(samples)
        for index, x in enumerate(samples):
            np.testing.assert_allclose(stack[index], x @ x.conj().T / x.shape[1],
                                       rtol=1e-12)
            # Hermitian by construction (the conjugate triangle fill).
            assert np.array_equal(stack[index], stack[index].conj().T)

    def test_correlation_stack_is_the_triangle_fill_to_the_bit(self, numpy_backend, rng):
        """The in-place fill gives the bytes of ``conj(triu(Z)) +
        triu(Z, 1)^T`` over a float division, signed zeros and NaNs too."""
        zeros = np.zeros((8, 64), dtype=complex)
        zeros[0], zeros[3], zeros[5], zeros[6] = 1.0, -1j, -1.0, -0.0 - 0.0j
        nonfinite = zeros.copy()
        nonfinite[1, 3], nonfinite[2, 4] = np.inf, np.nan
        cases = [
            [rng.standard_normal((8, t)) + 1j * rng.standard_normal((8, t))
             for t in (1920, 960, 5)],
            [rng.standard_normal((3, 7)).astype(complex)],
            [zeros, -zeros, 1j * zeros, zeros.conj()],
            [nonfinite],
        ]
        for samples in cases:
            stack = numpy_backend.correlation_stack(samples)
            for index, x in enumerate(samples):
                z = zherk(1.0, x.T, trans=2, lower=0)
                expected = (np.triu(z).conj() + np.triu(z, 1).T) / float(x.shape[1])
                assert stack[index].tobytes() == expected.tobytes()

    def test_correlation_stack_widens_complex64_input(self, numpy_backend, rng):
        samples = (rng.standard_normal((4, 64))
                   + 1j * rng.standard_normal((4, 64))).astype(np.complex64)
        stack = numpy_backend.correlation_stack([samples])
        assert stack.dtype == np.complex128
        wide = numpy_backend.correlation_stack([samples.astype(complex)])
        assert stack.tobytes() == wide.tobytes()

    def test_music_and_beamscan_contractions(self, numpy_backend, rng):
        steering = rng.standard_normal((6, 19)) + 1j * rng.standard_normal((6, 19))
        signal = rng.standard_normal((2, 6, 2)) + 1j * rng.standard_normal((2, 6, 2))
        power = numpy_backend.music_projection_power(signal, steering)
        projections = signal.conj().transpose(0, 2, 1) @ steering
        assert np.array_equal(power, np.sum(np.abs(projections) ** 2, axis=1))
        matrices = rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))
        numerator = numpy_backend.beamscan_numerator(matrices, steering)
        expected = np.sum((steering.conj() * (matrices @ steering)).real, axis=1)
        assert np.array_equal(numerator, expected)

    def test_steering_stack_matches_scalar_loop(self, numpy_backend):
        array = UniformLinearArray(num_elements=5)
        angles = [-40.0, 0.0, 62.5]
        stack = numpy_backend.steering_stack(array.element_positions, angles,
                                             array.wavelength)
        for row, angle in zip(stack, angles):
            assert np.array_equal(
                row, steering_vector(array.element_positions, angle,
                                     array.wavelength))

    def test_fractional_delay_and_passthrough(self, numpy_backend, rng):
        waveforms = rng.standard_normal((1, 1, 128)) + \
            1j * rng.standard_normal((1, 1, 128))
        delays = np.array([[0.0, 1.25, 3.5]])
        out = numpy_backend.fractional_delay(waveforms, delays, (1, 3, 128))
        # Zero delay bypasses the FFT round trip entirely.
        assert np.array_equal(out[0, 0], waveforms[0, 0])
        # A whole-sample delay is a circular shift (windows are padded upstream).
        spectra = np.fft.fft(waveforms[0, 0])
        ramp = np.exp(-2j * np.pi * np.fft.fftfreq(128) * 3.5)
        np.testing.assert_allclose(out[0, 2], np.fft.ifft(spectra * ramp),
                                   rtol=1e-9, atol=1e-12)

    def test_phase_walk_unit_magnitude(self, numpy_backend, rng):
        # Knot-rate contract: knot j is sample j*K, exactly cos/sin of the
        # cumulative phase, and the walk ends at the last knot.
        initials = rng.random(3) * 2 * np.pi
        steps = rng.standard_normal((3, 50)) * 0.01
        steps[:, 0] = 0.0
        walks = numpy_backend.phase_walk(initials, steps)
        assert walks.shape == (3, 49 * PHASE_WALK_KNOT_SPACING + 1)
        np.testing.assert_allclose(np.abs(walks), 1.0, rtol=1e-12)
        phases = initials[:, None] + np.cumsum(steps, axis=1)
        assert np.array_equal(walks[:, ::PHASE_WALK_KNOT_SPACING],
                              np.cos(phases) + 1j * np.sin(phases))

    def test_ifft(self, numpy_backend, rng):
        spectra = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        assert np.array_equal(numpy_backend.ifft(spectra),
                              np.fft.ifft(spectra, axis=-1))

    def test_delay_ramps_dedup(self):
        delays = np.array([[1.5, 0.25], [1.5, 0.25]])
        ramps = delay_ramps(delays, 32)
        # One unique row: a broadcast view, not two materialised copies.
        assert ramps.shape == (2, 2, 32)
        assert np.array_equal(ramps[0], ramps[1])
