"""The Capon (minimum-variance distortionless response, MVDR) beamformer.

Better resolution than Bartlett without needing to know the number of sources:
``P(theta) = 1 / (a^H R^{-1} a)``.  Included as a second baseline for the
estimator-comparison ablation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.aoa.covariance import diagonal_loading
from repro.aoa.spectrum import Pseudospectrum
from repro.arrays.geometry import AntennaArray
from repro.kernels.backend import kernels


def capon_pseudospectrum(correlation: np.ndarray, array: AntennaArray,
                         angles_deg: Optional[Sequence[float]] = None,
                         loading_factor: float = 1e-3) -> Pseudospectrum:
    """Compute the Capon/MVDR pseudospectrum.

    ``loading_factor`` controls the diagonal loading applied before inversion;
    short or nearly noiseless captures give ill-conditioned correlation
    matrices that need it.
    """
    correlation = np.asarray(correlation, dtype=complex)
    if correlation.ndim != 2 or correlation.shape != (array.num_elements, array.num_elements):
        raise ValueError(
            f"correlation must be ({array.num_elements}, {array.num_elements}), "
            f"got {correlation.shape}")
    if angles_deg is None:
        angles_deg = array.angle_grid()
    angles = np.asarray(angles_deg, dtype=float)
    loaded = diagonal_loading(correlation, loading_factor)
    # Routed through the kernel module so the ledger times the scalar path
    # too; kernels.inv is literally np.linalg.inv (bit-identical).
    inverse = kernels.inv(loaded)
    steering = array.steering_matrix(angles)
    denominator = np.real(np.einsum("na,nm,ma->a", steering.conj(), inverse, steering))
    values = 1.0 / np.maximum(denominator, 1e-15)
    return Pseudospectrum(angles, values, metadata={"estimator": "capon"})
