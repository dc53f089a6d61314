"""The raw-speed kernel tier: one numpy kernel module.

See :mod:`repro.kernels.backend` for the :data:`kernels` instance the hot
numerical kernels route through.
"""

from repro.kernels.backend import NumpyBackend, delay_ramps, kernels

__all__ = ["NumpyBackend", "delay_ramps", "kernels"]
