"""The raw-speed kernel tier: one numpy kernel module and precision modes.

See :mod:`repro.kernels.backend` for the :data:`kernels` instance the hot
numerical kernels route through, and the ``precision`` helpers the
reduced-precision (complex64/float32) mode is built on.
"""

from repro.kernels.backend import (
    NumpyBackend,
    PRECISIONS,
    complex_dtype,
    delay_ramps,
    kernels,
    real_dtype,
    validate_precision,
)

__all__ = [
    "NumpyBackend",
    "PRECISIONS",
    "complex_dtype",
    "delay_ramps",
    "kernels",
    "real_dtype",
    "validate_precision",
]
