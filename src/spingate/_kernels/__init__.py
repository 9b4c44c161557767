"""Numeric kernels: the hot loops as flat-array numpy functions.

``kernels`` is the module every caller goes through (dispersion, group
velocity, wavenumber inversion, per-bin waveguide gain, detector
low-pass); see ``_core_py`` for the conventions.
"""

from . import _core_py as kernels
from ._core_py import BRANCH_BV, BRANCH_S


def backend_name() -> str:
    """Name of the kernel backend; the numpy kernels are the only one."""
    return "python"
