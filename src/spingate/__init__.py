"""Phase-encoded spin-wave majority-gate simulator.

Subpackages: ``physics`` (film dispersion and damping), ``signal``
(complex envelopes, detection, rise-time metrology), ``circuit`` (the
gate record: microwave conditioning and film waveguides), ``logic``
(phase encoding and majority logic), ``experiment`` (calibration,
switching and scaling procedures), ``cli`` (command-line front end).
"""

from ._kernels import backend_name

__version__ = "0.1.0"

__all__ = ["backend_name", "__version__"]
