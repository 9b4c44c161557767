"""Complex baseband envelopes and the detection chain.

The switching transient is one chain of three stages: step_phase_drive
yields the window of the step-phase drive (or its causal box average)
block by block, computed sample by sample; diode_detect squares, scales
and low-passes such blocks into a real trace; rise_time times the trace.
An envelope holds samples of the slowly varying complex amplitude about a
carrier, and apply_transfer acts on it spectrally: the transit fill
applied that way is the oracle of the drive's time-domain average.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from ._kernels import kernels
from .record import fields, record
from .table import BLOCK_ROWS, write_rows

TWO_PI = 2.0 * math.pi

# ceiling of the drive and the responsivity: with the couplings capped
# (circuit.MAX_GAIN_DB), the detected power stays below 1e73, far from overflow
MAX_LEVEL = 1.0e10
# share of a trace, at its end, that rise_time averages for the settled level
PLATEAU_FRACTION = 0.25


class NoTransitionError(ValueError):
    """Trace never crosses the rise-time thresholds."""


def wrap_phase(x):
    """Wrap an angle into (-pi, pi].

    A float comes back a float, an array an array: % is np.mod on an
    array, and Python's float % rounds as np.mod does.
    """
    return math.pi - (math.pi - x) % TWO_PI


def phase_setting(x: float, name: str) -> float:
    """A phase field of a record: x as given in (-pi, pi], else the angle
    of its phasor, atan2(sin x, cos x), with -pi taken to pi.

    Far outside the range a float cannot hold what is added to it (at
    1e17, x + pi == x), so a phase is reduced once, where it enters.  A
    NaN or infinite x raises ValueError naming the field.
    """
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    if -math.pi < x <= math.pi:
        return x
    angle = math.atan2(math.sin(x), math.cos(x))
    return math.pi if angle == -math.pi else angle


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


@record
class ComplexEnvelope:
    """Sampled complex amplitude about a carrier frequency.

    f_carrier : absolute carrier (Hz)
    dt : sample interval (s)
    samples : complex amplitudes (dimensionless voltage-like units)
    """

    f_carrier: float
    dt: float
    samples: np.ndarray

    def __post_init__(self, copy: bool = True):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        arr = np.asarray(self.samples, dtype=np.complex128)
        if copy:
            arr = arr.copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a flat sample vector of length >= 2")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


@record
class DetectedTrace:
    """Real nonnegative detector voltage samples."""

    dt: float
    samples: np.ndarray

    def __post_init__(self, copy: bool = True):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        arr = np.asarray(self.samples, dtype=np.float64)
        if copy:
            arr = arr.copy()
        # not arr.min() < 0, which a NaN sample would hide a negative from:
        # fmin skips NaNs, and unlike np.any(arr < 0) it makes no mask
        if np.fmin.reduce(arr, initial=0.0) < 0:
            raise ValueError("detected trace must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


# samples a search over a whole trace reads at a time, so that its bool
# mask stays 8 KiB long whatever the trace's length
_SCAN_BLOCK = 8192


def _first_hit(v: np.ndarray, test, reverse: bool = False) -> int:
    """Index of the first sample of v (the last, if reverse) in whose place
    the bool array test(block) of a block of v is True, or -1 if none is:
    v is read _SCAN_BLOCK samples at a time."""
    starts = range(0, v.size, _SCAN_BLOCK)
    for start in reversed(starts) if reverse else starts:
        hit = test(v[start:start + _SCAN_BLOCK])
        # any() reads a block of misses faster than argmax does
        if hit.any():
            if reverse:
                return start + hit.size - 1 - int(np.argmax(hit[::-1]))
            return start + int(np.argmax(hit))
    return -1


def _adopted(cls, *values):
    """cls(*values) without the copy cls makes of its sample array, with
    the same checks; the array is frozen in place.  For a producer in
    this package that hands over an array it made and holds no more."""
    obj = object.__new__(cls)
    for name, value in zip(fields(cls), values):
        object.__setattr__(obj, name, value)
    obj.__post_init__(copy=False)
    return obj


# trapezoid nodes per record sample over the ramp: the error of the
# cumulative integral falls as the node spacing squared, and at 8 it sits
# far below that of the spectral moving average on the record's samples
_RAMP_NODES_PER_SAMPLE = 8
# a fill below this share of a sample is none: the average is the drive to
# within rounding there, and dividing by a subnormal fill overflows
_NEGLIGIBLE_FILL = 1e-9
# samples step_phase_drive yields at a time: every sample is computed from
# its own time alone, so a window is made block by block, and the
# temporaries stay a block long whatever the window's length.  On a
# 79,872-sample window with a fill, run_switching peaks at 0.89 MiB and
# takes 2.9 ms at 4096; 2048 saves 0.06 MiB but takes 12% longer, and
# 8192 costs 0.23 MiB more for 1% (best of 60 in-process runs, 2 CPUs)
_DRIVE_BLOCK = 4096


def step_phase_drive(amplitude: float, phase_a: float, phase_b: float,
                     t_toggle: float, ramp: float, dt: float,
                     window: tuple[int, int],
                     fill: float = 0.0) -> Iterator[np.ndarray]:
    """Window of a drive record whose phase ramps from phase_a to phase_b,
    yielded in order as fresh complex arrays of _DRIVE_BLOCK samples (the
    last one shorter).

    The record is sampled at t = j*dt; window=(lo, hi) picks the samples
    j in [lo, hi) that are computed.  The drive has constant modulus and
    a raised-cosine phase ramp of width ramp starting at t_toggle, so its
    trajectory is phase-continuous.  A fill above _NEGLIGIBLE_FILL * dt
    yields instead the causal box average over the last fill seconds,
    y(t) = a0 + (C(t) - C(t - fill))/fill, where a0 is the pre-toggle
    value and C the integral of drive - a0: zero before the toggle, the
    trapezoid rule on the ramp (_RAMP_NODES_PER_SAMPLE nodes per sample,
    both ends included) read by linear interpolation, and linear after
    the ramp.  The drive is held at a0 before the toggle, also before the
    record begins, so the average never wraps, and only the requested
    samples are computed.

    Each block is worked in place on the array it is yielded in and one
    real one, and with a fill one more complex one: a tracemalloc peak of
    24 bytes per block sample (40 with a fill), 96 (160) KiB at
    _DRIVE_BLOCK.  With a fill the generator holds the ramp table as
    well, three float arrays of the nodes (0.12 MiB for the 5,121 nodes
    of a 2 ns ramp at 3.125 ps, 9.6 MB for the 400,001 of a 50 ns ramp at
    1 ps), built with a block's temporaries.
    """
    half_swing = (phase_b - phase_a) * 0.5

    def drive(u):
        # amplitude * exp(1j * phase) with phase = phase_a + half_swing *
        # (1 - cos(pi * u)), worked in place on u and then on one complex
        # array that holds the phase as the product would cast it, each
        # operation with the operands of the formula in its order
        np.multiply(math.pi, u, out=u)
        np.cos(u, out=u)
        np.subtract(1.0, u, out=u)
        np.multiply(half_swing, u, out=u)
        z = np.empty(u.size, dtype=np.complex128)
        np.add(phase_a, u, out=z.real)
        z.imag = 0.0
        np.multiply(1j, z, out=z)
        np.exp(z, out=z)
        np.multiply(amplitude, z, out=z)
        return z

    def times(start, stop):
        # the sample times j*dt (the float arange holds the integers exactly)
        t = np.arange(start, stop, dtype=np.float64)
        t *= dt
        return t

    if fill <= _NEGLIGIBLE_FILL * dt:
        def block(start, stop):
            u = times(start, stop)
            # a subnormal ramp overflows the quotient to +-inf, which the
            # clip takes to the right end
            np.subtract(u, t_toggle, out=u)
            with np.errstate(over="ignore"):
                np.divide(u, ramp, out=u)
            np.clip(u, 0.0, 1.0, out=u)
            return drive(u)
    else:
        a0 = amplitude * complex(math.cos(phase_a), math.sin(phase_a))
        a1 = amplitude * complex(math.cos(phase_b), math.sin(phase_b))
        nodes, ramp_integral = _ramp_table(
            drive, a0, t_toggle, ramp,
            _RAMP_NODES_PER_SAMPLE * math.ceil(ramp / dt) + 1)

        def block(start, stop):
            # C(t) - C(t - fill): the ramp part by interpolation (0 before
            # the toggle, its total after the ramp), the linear part after
            # the ramp clipped in one step so it does not cancel; in place
            # on the two interpolations, in the order of the formula
            # (interp(t) - interp(t - fill) + (a1 - a0) * clip) / fill + a0
            t = times(start, stop)
            swept = np.interp(t, nodes, ramp_integral)
            np.subtract(t, fill, out=t)
            late = np.interp(t, nodes, ramp_integral)
            del t
            np.subtract(swept, late, out=swept)
            # the clipped time after the ramp, as the complex the product
            # casts it to: the sample times again, in the real part of late
            linear = late.real
            np.multiply(np.arange(start, stop, dtype=np.float64), dt,
                        out=linear)
            np.subtract(linear, nodes[-1], out=linear)
            np.clip(linear, 0.0, fill, out=linear)
            late.imag = 0.0
            np.multiply(a1 - a0, late, out=late)
            np.add(swept, late, out=swept)
            del late, linear
            np.divide(swept, fill, out=swept)
            np.add(a0, swept, out=swept)
            return swept

    lo, hi = window
    for start in range(lo, hi, _DRIVE_BLOCK):
        yield block(start, min(start + _DRIVE_BLOCK, hi))


def _ramp_table(drive, a0: complex, t_toggle: float, ramp: float,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n nodes t_toggle + ramp * linspace(0, 1, n) and the cumulative
    trapezoid integral of drive(u) - a0 over them (0 at the first node).

    Built _DRIVE_BLOCK intervals at a time into the two arrays it returns:
    each chunk's first term is seeded with the running sum before its
    cumsum, which keeps the left-to-right order of one cumsum over all the
    terms, so every bit is that of the whole-table formula
    concatenate(([0], cumsum(0.5 * (e[1:] + e[:-1]) * diff(nodes)))).
    """
    nodes = np.linspace(0.0, 1.0, n)
    ramp_integral = np.empty(n, dtype=np.complex128)
    ramp_integral[0] = 0.0
    for first in range(0, n - 1, _DRIVE_BLOCK):
        last = min(first + _DRIVE_BLOCK, n - 1)
        u = nodes[first:last + 1]
        excess = drive(u.copy())
        np.subtract(excess, a0, out=excess)
        term = np.add(excess[1:], excess[:-1])
        # the node spacings, as the complex the product casts them to, in
        # the excess array that is no longer needed
        span = np.multiply(ramp, u)
        span += t_toggle
        spacing = excess[:-1]
        np.subtract(span[1:], span[:-1], out=spacing.real)
        spacing.imag = 0.0
        del span
        np.multiply(0.5, term, out=term)
        np.multiply(term, spacing, out=term)
        del excess, spacing
        term[0] += ramp_integral[first]
        np.cumsum(term, out=ramp_integral[first + 1:last + 1])
    nodes *= ramp
    nodes += t_toggle
    return nodes, ramp_integral


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
    return _adopted(ComplexEnvelope, env.f_carrier, env.dt, out)


def check_detection(lp_cutoff: float | None, responsivity: float,
                    dt: float) -> None:
    """Raise ValueError, naming the argument, for a detector diode_detect
    cannot run on samples dt apart."""
    if lp_cutoff is not None and not 0 < lp_cutoff < 0.5 / dt:
        raise ValueError("lp_cutoff must lie in (0, 1/(2*dt))")
    if not 0 < responsivity <= MAX_LEVEL:
        raise ValueError(f"responsivity must lie in (0, {MAX_LEVEL:g}]")


def diode_detect(blocks, n: int, dt: float, lp_cutoff: float | None = 5.0e8,
                 responsivity: float = 1.0) -> DetectedTrace:
    """Square-law detection of n complex samples dt apart, which the
    blocks (arrays) hold in order.

    |s(t)|^2 scaled by the responsivity (V per squared amplitude unit),
    then a single-pole low-pass at lp_cutoff, pre-charged at the first
    sample so a constant input stays constant; pass None to skip the
    filter.  Each block is squared and scaled into one real array as it
    comes, so no complex array of all n samples need exist; the low-pass
    then runs once over that array, in place, and the trace takes it
    without a copy.  Blocks that do not hold exactly n samples raise
    ValueError.
    """
    check_detection(lp_cutoff, responsivity, dt)
    power = np.empty(n)
    start = 0
    for block in blocks:
        part = power[start:start + block.size]
        start += block.size
        if part.size != block.size:
            break
        np.abs(block, out=part)
        np.square(part, out=part)
        part *= responsivity
        # the block goes before the next one is made
        del block
    if start != n:
        raise ValueError(f"n = {n} is not the number of samples the "
                         "blocks hold")
    if lp_cutoff is not None:
        a = math.exp(-TWO_PI * lp_cutoff * dt)
        kernels.lowpass_1pole(power, a, float(power[0]))
    return _adopted(DetectedTrace, dt, power)


@record
class RiseTimeResult:
    t_rise: float
    v_max: float


def plateau_start(n: int) -> int:
    """First sample of the trailing plateau rise_time reads v_max from."""
    return n - max(1, int(round(PLATEAU_FRACTION * n)))


def rise_time(trace: DetectedTrace) -> RiseTimeResult:
    """1/3 -> 2/3 rise time of a low-to-high transition.

    v_max is the settled level, estimated as the mean of the trailing
    PLATEAU_FRACTION of the trace.  The crossing pair is the last
    1/3*v_max crossing before the first 2/3*v_max crossing, both linearly
    interpolated between samples.  The trace must start at or below
    1/3*v_max: one that starts above it has no low level to rise from,
    and a dip below 1/3 is no transition.  Neither is a settled level of
    zero or below the smallest normal float.
    """
    v = trace.samples
    v_max = float(np.mean(v[plateau_start(v.size):]))
    if v_max <= 0:
        raise NoTransitionError("no transition: settled level is zero")
    # a subnormal level, and the samples read against its thresholds,
    # have lost their precision: t_rise drifts with the responsivity
    if v_max < np.finfo(np.float64).tiny:
        raise NoTransitionError(
            f"no transition: settled level {v_max:.3g} is below the "
            "smallest normal float")
    th_lo = v_max / 3.0
    th_hi = 2.0 * v_max / 3.0

    # a crossing at the first sample is no transition either
    j = _first_hit(v, lambda block: block >= th_hi)
    if j <= 0:
        raise NoTransitionError("no transition: 2/3 level never crossed")
    # a NaN first sample is refused too: the last 1/3 crossing is found
    # below on the promise that v[0] is one
    if not v[0] <= th_lo:
        raise NoTransitionError("no transition: trace starts above 1/3 level")
    i = _first_hit(v[:j], lambda block: block <= th_lo, reverse=True)

    t_lo = (i + (th_lo - v[i]) / (v[i + 1] - v[i])) * trace.dt
    t_hi = (j - 1 + (th_hi - v[j - 1]) / (v[j] - v[j - 1])) * trace.dt
    return RiseTimeResult(t_rise=t_hi - t_lo, v_max=v_max)


def trace_to_csv(trace: DetectedTrace, path) -> None:
    """Write the trace to path as CSV with columns time_s, value.

    The times j*dt are computed BLOCK_ROWS rows at a time, as the writer
    asks for them, so the call makes no column of times beside the trace;
    COMPUTE_ROWS at a time would raise the call's peak from 0.31 to 0.41 MB
    on 79,872 rows.
    """
    samples, dt = trace.samples, trace.dt

    def columns(lo: int, hi: int):
        return np.arange(lo, hi) * dt, samples[lo:hi]

    write_rows([path], "time_s,value", 0, samples.size, columns,
               rows=BLOCK_ROWS)
