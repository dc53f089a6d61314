"""Independent oracles for the AoA engine.

The bit-identity suites show that the engine's paths agree with each other;
they cannot show that the engine is right.  The reference below is a
textbook noise-projector MUSIC written from the geometry alone: element
positions as an N×3 array (the doamusic ``Estimator`` convention), the
carrier wavelength, and plane waves ``a_n(θ) = exp(-j 2π/λ p_n · u(θ))``.  It
uses neither ``AntennaArray.steering_matrix`` nor anything in
:mod:`repro.aoa`, so it cross-checks the engine's steering sign and angle
conventions.  The test signals are synthesised from the same independent
model.

Angle conventions (the reference's own statement of them): a planar array's
bearing is counter-clockwise from the local +x axis, ``u = (cos θ, sin θ,
0)``; a linear array's bearing is measured from broadside (the local +y
axis) towards the array axis, ``u = (sin θ, cos θ, 0)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aoa import AoAEstimator, EstimatorConfig
from repro.arrays.geometry import OctagonalArray, UniformCircularArray, UniformLinearArray
from repro.utils.angles import angular_difference

RESOLUTION_DEG = 1.0

ARRAYS = {
    "ula": lambda: UniformLinearArray(num_elements=8),
    "octagon": OctagonalArray,
    "uca": lambda: UniformCircularArray(num_elements=6),
}


def positions_xyz(array) -> np.ndarray:
    """The array's element positions as an (N, 3) array, z = 0."""
    planar = array.element_positions
    return np.hstack([planar, np.zeros((planar.shape[0], 1))])


def directions(angles_deg, linear: bool) -> np.ndarray:
    """Unit arrival directions, shape (3, A), per the module's conventions."""
    theta = np.deg2rad(np.atleast_1d(np.asarray(angles_deg, dtype=float)))
    first, second = (np.sin(theta), np.cos(theta)) if linear else (np.cos(theta), np.sin(theta))
    return np.stack([first, second, np.zeros_like(theta)])


def plane_waves(positions: np.ndarray, wavelength: float, angles_deg,
                linear: bool) -> np.ndarray:
    """Steering vectors ``exp(-j 2π/λ p · u)``, shape (N, A)."""
    return np.exp(-2j * np.pi / wavelength * (positions @ directions(angles_deg, linear)))


def reference_music(samples: np.ndarray, positions: np.ndarray, wavelength: float,
                    angles_deg: np.ndarray, num_sources: int, linear: bool) -> np.ndarray:
    """Textbook MUSIC: ``1 / (a^H E_n E_n^H a)`` over the noise subspace."""
    correlation = samples @ samples.conj().T / samples.shape[1]
    _, vectors = np.linalg.eigh(correlation)  # ascending eigenvalues
    noise = vectors[:, :positions.shape[0] - num_sources]
    projector = noise @ noise.conj().T
    steering = plane_waves(positions, wavelength, angles_deg, linear)
    denominator = np.einsum("na,nm,ma->a", steering.conj(), projector, steering).real
    return 1.0 / denominator


def single_source(array, bearing_deg: float, rng, amplitude: complex = 1.0,
                  snr_db: float = 30.0, num_samples: int = 400) -> np.ndarray:
    """Samples of one plane wave built from the independent model, plus noise."""
    linear = isinstance(array, UniformLinearArray)
    steering = plane_waves(positions_xyz(array), array.wavelength, [bearing_deg], linear)
    signal = (rng.normal(size=num_samples) + 1j * rng.normal(size=num_samples)) / np.sqrt(2)
    noise_std = 10 ** (-snr_db / 20.0) / np.sqrt(2)
    noise = noise_std * (rng.normal(size=(array.num_elements, num_samples))
                         + 1j * rng.normal(size=(array.num_elements, num_samples)))
    return amplitude * (steering * signal[None, :] + noise)


def random_bearings(array, rng, count: int = 6) -> np.ndarray:
    """Off-grid bearings inside the array's unambiguous field of view."""
    if isinstance(array, UniformLinearArray):
        return rng.uniform(-70.0, 70.0, size=count)
    return rng.uniform(0.0, 360.0, size=count)


def engine_bearing(array, samples, **config) -> float:
    return AoAEstimator(array, EstimatorConfig(**config)).process_samples(samples).bearing_deg


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_engine_music_matches_the_reference_and_the_truth(name):
    array = ARRAYS[name]()
    linear = isinstance(array, UniformLinearArray)
    rng = np.random.default_rng(2024)
    grid = array.angle_grid(RESOLUTION_DEG)
    for truth in random_bearings(array, rng):
        samples = single_source(array, truth, rng)
        reference = reference_music(samples, positions_xyz(array), array.wavelength,
                                    grid, num_sources=1, linear=linear)
        reference_peak = float(grid[int(np.argmax(reference))])
        engine_peak = engine_bearing(array, samples, num_sources=1,
                                     resolution_deg=RESOLUTION_DEG)
        assert float(angular_difference(reference_peak, truth)) <= RESOLUTION_DEG
        assert float(angular_difference(engine_peak, reference_peak)) <= RESOLUTION_DEG
        assert float(angular_difference(engine_peak, truth)) <= RESOLUTION_DEG


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_bartlett_capon_and_music_agree_on_one_strong_source(name):
    array = ARRAYS[name]()
    rng = np.random.default_rng(7)
    for truth in random_bearings(array, rng, count=3):
        samples = single_source(array, truth, rng, snr_db=40.0)
        bearings = [engine_bearing(array, samples, method=method)
                    for method in ("music", "bartlett", "capon")]
        for bearing in bearings:
            assert float(angular_difference(bearing, truth)) <= RESOLUTION_DEG
            assert float(angular_difference(bearing, bearings[0])) <= RESOLUTION_DEG


@pytest.mark.parametrize("name", sorted(ARRAYS))
@pytest.mark.parametrize("amplitude", [1e-3, 1e3, 5.0 * np.exp(1j * 0.7)])
def test_scaling_the_amplitude_leaves_the_bearing_unchanged(name, amplitude):
    array = ARRAYS[name]()
    rng = np.random.default_rng(11)
    truth = float(random_bearings(array, rng, count=1)[0])
    samples = single_source(array, truth, rng)
    for method in ("music", "bartlett", "capon"):
        assert (engine_bearing(array, amplitude * samples, method=method)
                == engine_bearing(array, samples, method=method))
