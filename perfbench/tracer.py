"""Per-layer self times and work counters, recorded from outside the package.

The tracer replaces each traced function at every place the package binds
it: a module attribute, a name imported into another module, or an
attribute of the shared ``kernels`` object (whose own internal calls go
through the same attributes).  Every wrapper records calls, its work
counters and its self time, the span's duration minus the time covered by
traced calls made inside it.  ``uninstall`` puts the original objects
back, so untraced passes run the package exactly as shipped.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _fft_points(b) -> int:
    """FFT length apply_transfer uses: next power of two of the padded record."""
    env = b["env"]
    n = len(env) + max(0, int(math.ceil(b["pad_time"] / env.dt)))
    return 1 << (n - 1).bit_length()


def _at_carrier(b) -> int:
    f = b["f"]
    return int(np.ndim(f) == 0 and float(f) == b["nl"].settings.f_c)


# layer -> traced functions -> {counter: function of the bound arguments}
TRACED = {
    "kernels": {
        "solve_k": {"points": lambda b: _size(b["f"])},
        "waveguide_gain": {},
        "dispersion_f": {},
        "group_velocity": {},
        "lowpass_1pole": {"samples": lambda b: _size(b["x"])},
    },
    "physics": {
        "solve_k": {},
        "solve_k_grid": {"points": lambda b: _size(b["f"])},
    },
    "circuit": {
        "channel_transfer": {"carrier_calls": _at_carrier},
        "transmission_spectrum": {},
        "spectrum_to_csv": {},
    },
    "signal": {
        "apply_transfer": {"fft_points": _fft_points},
        "diode_detect": {},
        "rise_time": {},
        "trace_to_csv": {"rows": lambda b: len(b["trace"])},
    },
    "logic": {"run_logic_state": {}, "truth_table": {}},
    "experiment": {
        "calibrate": {},
        "run_switching": {},
        "scaling_study": {},
        "fit_effective_path": {},
    },
    "config": {"parse_config": {}, "build_netlist": {}},
    "cli": {"main": {}},
}

PACKAGE = "spingate"
FIT = "experiment.fit_effective_path"
SWITCH = "experiment.run_switching"


def span_name(layer: str, func: str) -> str:
    return "cli" if layer == "cli" else f"{layer}.{func}"


class Tracer:
    """Self time and work counters of the traced package functions."""

    def __init__(self):
        self.active = True
        self.missing: list[str] = []
        self.stats: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # per open span: time covered by traced calls made inside it
        self._child_ns: list[int] = []
        self._fit_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _owner(self, layer: str):
        if layer == "kernels":
            return sys.modules[f"{PACKAGE}._kernels"].kernels
        return sys.modules[f"{PACKAGE}.{layer}"]

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, funcs in TRACED.items():
            owner = self._owner(layer)
            for func, counters in funcs.items():
                original = getattr(owner, func, None)
                if original is None:
                    self.missing.append(span_name(layer, func))
                    continue
                wrapper = self._wrap(span_name(layer, func), original, counters)
                places = [owner] + [m for m in modules if m is not owner]
                for place in places:
                    for attr, value in list(vars(place).items()):
                        if value is original:
                            self._patches.append((place, attr, original))
                            setattr(place, attr, wrapper)

    def uninstall(self) -> None:
        for place, attr, original in reversed(self._patches):
            setattr(place, attr, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.stats.clear()

    def _wrap(self, name: str, fn, counters: dict):
        signature = inspect.signature(fn) if counters else None
        stats = self.stats
        stack = self._child_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st = stats[name]
            st["calls"] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, count in counters.items():
                    st[counter] += count(bound.arguments)
            if name == SWITCH and self._fit_depth:
                stats[FIT]["switch_runs"] += 1
            if name == FIT:
                self._fit_depth += 1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                st["self_ns"] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                if name == FIT:
                    self._fit_depth -= 1

        traced.__wrapped__ = fn
        return traced

    def counters(self) -> dict[str, int]:
        """Every work counter, keyed 'span.counter' (self time excluded)."""
        return {f"{name}.{key}": value
                for name, st in sorted(self.stats.items())
                for key, value in sorted(st.items()) if key != "self_ns"}

    def self_ms(self) -> dict[str, float]:
        return {name: st["self_ns"] / 1e6 for name, st in self.stats.items()}
