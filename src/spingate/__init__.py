"""Phase-encoded spin-wave majority-gate simulator.

Modules: ``physics`` (film dispersion and damping), ``signal`` (the
switching transient's drive, detector and rise-time metrology, complex
envelopes and transfer functions), ``circuit`` (the gate record:
microwave conditioning and film waveguides), ``logic`` (phase encoding
and majority logic), ``experiment`` (calibration, switching and scaling
procedures), ``config`` (the run configuration, its parser and the
records every command runs on), ``table`` (the CSV writers of every
artifact table), ``cli`` (command-line front end).
"""

from ._kernels import backend_name

__version__ = "0.1.0"

__all__ = ["backend_name", "__version__"]
