"""Complex baseband envelopes and the detection chain.

An envelope holds samples of the slowly varying complex amplitude about a
carrier; transfer functions act on it spectrally; the step-phase drive of
the switching transient and its causal box average are computed sample
by sample; the diode detector squares, low-passes and hands a real trace
to the rise-time metrology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import kernels

TWO_PI = 2.0 * math.pi

# ceiling of the drive and the responsivity: with the couplings capped
# (circuit.MAX_GAIN_DB), the detected power stays below 1e73, far from overflow
MAX_LEVEL = 1.0e10
# share of a trace, at its end, that rise_time averages for the settled level
PLATEAU_FRACTION = 0.25


class NoTransitionError(ValueError):
    """Trace never crosses the rise-time thresholds."""


def wrap_phase(x):
    """Wrap an angle into (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(x), TWO_PI)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class ComplexEnvelope:
    """Sampled complex amplitude about a carrier frequency.

    f_carrier : absolute carrier (Hz)
    dt : sample interval (s)
    samples : complex amplitudes (dimensionless voltage-like units)
    """

    f_carrier: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        arr = np.asarray(self.samples, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a flat sample vector of length >= 2")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class DetectedTrace:
    """Real nonnegative detector voltage samples."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        arr = np.asarray(self.samples, dtype=np.float64).copy()
        if np.any(arr < 0):
            raise ValueError("detected trace must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dt


# trapezoid nodes per record sample over the ramp: the error of the
# cumulative integral falls as the node spacing squared, and at 8 it sits
# far below that of the spectral moving average on the record's samples
_RAMP_NODES_PER_SAMPLE = 8
# a fill below this share of a sample is none: the average is the drive to
# within rounding there, and dividing by a subnormal fill overflows
_NEGLIGIBLE_FILL = 1e-9


def step_phase_drive(amplitude: float, phase_a: float, phase_b: float,
                     t_toggle: float, ramp: float, duration: float, dt: float,
                     fill: float = 0.0,
                     window: tuple[int, int] | None = None) -> np.ndarray:
    """Window of a drive record whose phase ramps from phase_a to phase_b.

    The record holds round(duration/dt) samples at t = j*dt; window=(lo,
    hi) picks the samples returned (default: all).  The drive has constant
    modulus and a raised-cosine phase ramp of width ramp starting at
    t_toggle, so its trajectory is phase-continuous.  A fill above
    _NEGLIGIBLE_FILL * dt returns instead the causal box average over the
    last fill seconds, y(t) = a0 + (C(t) - C(t - fill))/fill, where a0 is
    the pre-toggle value and C the integral of drive - a0: zero before
    the toggle, the trapezoid rule on the ramp (_RAMP_NODES_PER_SAMPLE
    nodes per sample, both ends included) read by linear interpolation,
    and linear after the ramp.  The drive is held at a0 before the
    toggle, also before the record begins, so the average never wraps,
    and only the requested samples are computed.
    """
    lo, hi = window or (0, int(round(duration / dt)))
    t = np.arange(lo, hi) * dt

    def drive(u):
        phase = phase_a + (phase_b - phase_a) * 0.5 * (1.0 - np.cos(math.pi * u))
        return amplitude * np.exp(1j * phase)

    if fill <= _NEGLIGIBLE_FILL * dt:
        return drive(np.clip((t - t_toggle) / ramp, 0.0, 1.0))
    a0 = amplitude * complex(math.cos(phase_a), math.sin(phase_a))
    a1 = amplitude * complex(math.cos(phase_b), math.sin(phase_b))
    u = np.linspace(0.0, 1.0, _RAMP_NODES_PER_SAMPLE * math.ceil(ramp / dt) + 1)
    nodes = t_toggle + ramp * u
    excess = drive(u) - a0
    ramp_integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * (excess[1:] + excess[:-1]) * np.diff(nodes))))
    # C(t) - C(t - fill): the ramp part by interpolation (0 before the
    # toggle, its total after the ramp), the linear part after the ramp
    # clipped in one step so it does not cancel
    swept = (np.interp(t, nodes, ramp_integral)
             - np.interp(t - fill, nodes, ramp_integral)
             + (a1 - a0) * np.clip(t - nodes[-1], 0.0, fill))
    return a0 + swept / fill


def apply_transfer(env: ComplexEnvelope, tf: Callable[[np.ndarray], np.ndarray],
                   pad_time: float = 0.0) -> ComplexEnvelope:
    """Apply a transfer function spectrally; returns an envelope of equal length.

    tf maps absolute frequency (Hz, an array) to complex gain.  The sample
    vector is zero-padded to a power of two (plus at least pad_time of
    guard, for suppressing wrap-around of long group delays), transformed,
    multiplied bin-wise by tf(f_carrier + offset) and transformed back.
    Linear in the envelope.  With no padding on a power-of-two grid, an
    ideal delay of m samples is an exact circular shift.
    """
    n = len(env)
    n_fft = _next_pow2(n + max(0, int(math.ceil(pad_time / env.dt))))
    x = np.zeros(n_fft, dtype=np.complex128)
    x[:n] = env.samples
    spectrum = np.fft.fft(x)
    f_abs = env.f_carrier + np.fft.fftfreq(n_fft, env.dt)
    gain = np.asarray(tf(f_abs), dtype=np.complex128)
    out = np.fft.ifft(spectrum * gain)[:n]
    return ComplexEnvelope(env.f_carrier, env.dt, out)


def check_detection(lp_cutoff: float | None, responsivity: float,
                    dt: float) -> None:
    """Raise ValueError, naming the argument, for a detector diode_detect
    cannot run on samples dt apart."""
    if lp_cutoff is not None and not 0 < lp_cutoff < 0.5 / dt:
        raise ValueError("lp_cutoff must lie in (0, 1/(2*dt))")
    if not 0 < responsivity <= MAX_LEVEL:
        raise ValueError(f"responsivity must lie in (0, {MAX_LEVEL:g}]")


def diode_detect(env: ComplexEnvelope, lp_cutoff: float | None = 5.0e8,
                 responsivity: float = 1.0) -> DetectedTrace:
    """Square-law detection of the envelope.

    |s(t)|^2 scaled by the responsivity (V per squared amplitude unit),
    then a single-pole low-pass at lp_cutoff; pass None to skip the
    filter.
    """
    check_detection(lp_cutoff, responsivity, env.dt)
    power = responsivity * np.abs(env.samples) ** 2
    if lp_cutoff is None:
        return DetectedTrace(env.dt, power)
    a = math.exp(-TWO_PI * lp_cutoff * env.dt)
    # pre-charged at the first sample so a constant input stays constant
    out = kernels.lowpass_1pole(power, a, float(power[0]))
    return DetectedTrace(env.dt, out)


@dataclass(frozen=True)
class RiseTimeResult:
    t_rise: float
    f_clock: float
    v_max: float


def plateau_start(n: int) -> int:
    """First sample of the trailing plateau rise_time reads v_max from."""
    return n - max(1, int(round(PLATEAU_FRACTION * n)))


def rise_time(trace: DetectedTrace) -> RiseTimeResult:
    """1/3 -> 2/3 rise time of a low-to-high transition.

    v_max is the settled level, estimated as the mean of the trailing
    PLATEAU_FRACTION of the trace.  The crossing pair is the last
    1/3*v_max crossing before the first 2/3*v_max crossing, both linearly
    interpolated between samples; f_clock = 1/t_rise.
    """
    v = trace.samples
    v_max = float(np.mean(v[plateau_start(v.size):]))
    if v_max <= 0:
        raise NoTransitionError("no transition: settled level is zero")
    th_lo = v_max / 3.0
    th_hi = 2.0 * v_max / 3.0

    above_hi = np.nonzero(v >= th_hi)[0]
    if above_hi.size == 0 or above_hi[0] == 0:
        raise NoTransitionError("no transition: 2/3 level never crossed")
    j = int(above_hi[0])

    below_lo = np.nonzero(v[:j] <= th_lo)[0]
    if below_lo.size == 0:
        raise NoTransitionError("no transition: trace never sits below 1/3 level")
    i = int(below_lo[-1])

    t_lo = (i + (th_lo - v[i]) / (v[i + 1] - v[i])) * trace.dt
    t_hi = (j - 1 + (th_hi - v[j - 1]) / (v[j] - v[j - 1])) * trace.dt
    t_rise_val = t_hi - t_lo
    return RiseTimeResult(t_rise=t_rise_val, f_clock=1.0 / t_rise_val, v_max=v_max)


# rows formatted per % operation: one block's argument tuple and text stay
# a few MB, where formatting a 2^17-row table at once holds all of it
_TABLE_BLOCK_ROWS = 4096


def format_table(header: str, *columns) -> str:
    """CSV text: the header line, then one row per index of the columns.

    Every value is written as f"{v:.12g}" would write it (nan, inf, -0 and
    subnormals included): printf-style %.12g of a Python float gives the
    same bytes, and one % operation formats a whole block of rows.
    """
    table = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    parts = [header + "\n"]
    for start in range(0, table.shape[0], _TABLE_BLOCK_ROWS):
        block = table[start:start + _TABLE_BLOCK_ROWS]
        parts.append((row * block.shape[0]) % tuple(block.ravel().tolist()))
    return "".join(parts)


def trace_to_csv(trace: DetectedTrace) -> str:
    """CSV text with columns time_s, value."""
    return format_table("time_s,value", trace.times, trace.samples)
