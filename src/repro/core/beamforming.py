"""Downlink directional transmission from uplink AoA (Section 5, future work).

"With AoA information obtained, high efficiency downlink directional
transmission will also be feasible resulting in higher throughput and better
reliability."  This module implements that extension: the access point reuses
the uplink angle-of-arrival information (either the direct-path bearing alone
or the full spatial structure of the uplink capture) to steer its downlink
transmission towards the client.

Two weight designs are provided:

* **Steering-vector (conjugate) beamforming** — point the array at the
  direct-path bearing.  Needs only the bearing, which is exactly what the
  SecureAngle pipeline already produces per packet.
* **Eigen-beamforming (maximum ratio transmission)** — transmit along the
  dominant eigenvector of the uplink spatial covariance, which by reciprocity
  also captures energy delivered via reflections.

``beamforming_gain_db`` evaluates either design against the true downlink
channel (the same multipath paths, used in reverse) and compares it with a
single-antenna / omnidirectional transmission, which is the quantity the
paper's claim is about.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arrays.geometry import AntennaArray
from repro.arrays.steering import steering_vector
from repro.channel.path import PropagationPath
from repro.kernels.backend import kernels
from repro.utils.validation import require_positive


def steering_weights(array: AntennaArray, bearing_deg: float) -> np.ndarray:
    """Unit-norm conjugate-steering transmit weights towards ``bearing_deg``.

    The bearing is given in the array's local azimuth convention (the same
    convention the AoA estimator reports for unambiguous arrays).
    """
    response = array.steering_vector(bearing_deg)
    weights = np.conj(response)
    return weights / np.linalg.norm(weights)


def eigen_weights(uplink_covariance: np.ndarray) -> np.ndarray:
    """Unit-norm maximum-ratio-transmission weights from an uplink covariance.

    By channel reciprocity the dominant eigenvector of the uplink spatial
    covariance is the transmit direction that delivers the most power to the
    client over the same set of paths.
    """
    covariance = np.asarray(uplink_covariance, dtype=complex)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise ValueError(f"covariance must be square, got {covariance.shape}")
    # Routed through the kernel module so the ledger times the scalar path
    # too; kernels.eigh is literally np.linalg.eigh (bit-identical).
    eigenvalues, eigenvectors = kernels.eigh(covariance)
    principal = eigenvectors[:, int(np.argmax(eigenvalues))]
    weights = np.conj(principal)
    return weights / np.linalg.norm(weights)


def downlink_channel_vector(array: AntennaArray, paths: Sequence[PropagationPath],
                            orientation_deg: float = 0.0) -> np.ndarray:
    """The downlink array-to-client channel implied by a set of uplink paths.

    By reciprocity each uplink path is also a downlink path: the client
    receives the superposition, over paths, of the transmit weights projected
    onto that path's steering vector, scaled by the path's amplitude and
    carrier phase.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("at least one propagation path is required")
    lambda_m = array.wavelength
    channel = np.zeros(array.num_elements, dtype=complex)
    for path in paths:
        local_azimuth = path.aoa_deg - orientation_deg
        response = steering_vector(array.element_positions, local_azimuth, lambda_m)
        channel += path.amplitude * np.exp(-1j * path.carrier_phase_rad(lambda_m)) * response
    return channel


def received_power(weights: np.ndarray, channel: np.ndarray) -> float:
    """Power delivered to the client for unit total transmit power."""
    weights = np.asarray(weights, dtype=complex).ravel()
    channel = np.asarray(channel, dtype=complex).ravel()
    if weights.shape != channel.shape:
        raise ValueError("weights and channel must have the same length")
    norm = np.linalg.norm(weights)
    if norm == 0:
        raise ValueError("weights must not be all zero")
    return float(np.abs(np.vdot(weights / norm, np.conj(channel))) ** 2)


def beamforming_gain_db(weights: np.ndarray, channel: np.ndarray) -> float:
    """Gain (dB) of beamformed transmission over a single-antenna transmission.

    The single-antenna reference transmits the same total power from element 0
    only; the array gain of an N-element array towards a single path is
    therefore upper-bounded by ``10 log10(N)`` plus any multipath combining
    gain.
    """
    channel = np.asarray(channel, dtype=complex).ravel()
    beamformed = received_power(weights, channel)
    reference_weights = np.zeros_like(channel)
    reference_weights[0] = 1.0
    reference = received_power(reference_weights, channel)
    require_positive(reference, "reference received power")
    return float(10.0 * np.log10(beamformed / reference))
