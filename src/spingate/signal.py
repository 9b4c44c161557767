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
                     t_toggle: float, ramp: float, dt: float,
                     window: tuple[int, int],
                     fill: float = 0.0) -> np.ndarray:
    """Window of a drive record whose phase ramps from phase_a to phase_b.

    The record is sampled at t = j*dt; window=(lo, hi) picks the samples
    j in [lo, hi) that are computed and returned.  The drive has constant
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
    t = np.arange(*window) * dt

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
    interpolated between samples; f_clock = 1/t_rise.  The trace must
    start at or below 1/3*v_max: one that starts above it has no low
    level to rise from, and a dip below 1/3 is no transition.
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
    if v[0] > th_lo:
        raise NoTransitionError("no transition: trace starts above 1/3 level")
    i = int(np.nonzero(v[:j] <= th_lo)[0][-1])

    t_lo = (i + (th_lo - v[i]) / (v[i + 1] - v[i])) * trace.dt
    t_hi = (j - 1 + (th_hi - v[j - 1]) / (v[j] - v[j - 1])) * trace.dt
    t_rise_val = t_hi - t_lo
    return RiseTimeResult(t_rise=t_rise_val, f_clock=1.0 / t_rise_val, v_max=v_max)


# -- the %.12g table writer ---------------------------------------------

# rows per written block: the fastest of 1024-8192 on both benchmark
# workloads' tables, whose slots and temporaries stay within the cache
# where a whole 2^17-row table at once would hold several MB
_BLOCK_ROWS = 2048
# the vectorized path takes |x| in this range, where the scaling by a
# power of ten neither overflows nor leaves the normal floats
_FAST_RANGE = (1e-280, 1e280)
# ... and a scaled value y at least this far from a rounding tie: y is
# |x| times a power of ten within an ulp of exact (numpy's power), then
# rounded, so |error| < 1e12 * 3 * 2**-53 ~ 3.3e-4
_TIE_MARGIN = 1e-3


def _words(chars) -> np.ndarray:
    """Rows of at most 8 byte values, each packed into a little-endian
    uint64 (the first value in the lowest byte)."""
    chars = np.asarray(chars)
    out = np.zeros((chars.shape[0], 8), np.uint8)
    out[:, :chars.shape[1]] = chars
    return out.view("<u8").ravel()


# the four decimal digits of each n < 10^4, as ASCII, and how many of
# them are trailing zeros
_QUAD = np.indices((10,) * 4).reshape(4, -1).T
_QUAD_TEXT = _words(48 + _QUAD)
_QUAD_ZEROS = (_QUAD[:, ::-1] == 0).cumprod(axis=1).sum(axis=1)
# per decimal exponent X (index X + _X0): the power 10^X, the digits
# before the point, the "0.00" prefix of -4 <= X < 0 and the "e+dd" suffix
# of the exponent form (X < -4 or X >= 12), with its length
_X0 = 300
_X = np.arange(-_X0, _X0 + 1)
_POW10 = 10.0 ** _X.astype(np.float64)
_SMALL = (_X >= -4) & (_X < 0)
_SCI = (_X < -4) | (_X >= 12)
_INT_DIGITS = np.where(_SCI, 1, np.where(_SMALL, 0, _X + 1))
_PREFIX = _words(np.where(_SMALL[:, None] & (np.arange(5) < 1 - _X[:, None]),
                          np.where(np.arange(5) == 1, ord("."), ord("0")), 0))
_ABS_X = np.abs(_X)
_EXP_CHARS = np.where(_ABS_X >= 100, 5, 4)
_EXP_DIGITS = 48 + _ABS_X[:, None] // np.array([100, 10, 1]) % 10
_EXPONENT = _words(_SCI[:, None] * np.column_stack([
    np.full(_X.size, ord("e")), np.where(_X < 0, ord("-"), ord("+")),
    np.where(_EXP_CHARS == 5, _EXP_DIGITS[:, 0], _EXP_DIGITS[:, 1]),
    np.where(_EXP_CHARS == 5, _EXP_DIGITS[:, 1], _EXP_DIGITS[:, 2]),
    np.where(_EXP_CHARS == 5, _EXP_DIGITS[:, 2], 0)]))
_EXP_BITS = (8 * _SCI * _EXP_CHARS).astype(np.uint64)
# per count k <= 13: the low k bytes of a 16-byte digit field, and a point
# at byte k, each as its (low, high) word pair
_K = np.arange(14)[:, None]
_MASK_LOW, _MASK_HIGH = np.where(np.arange(16) < _K, 255, 0).astype(
    np.uint8).view("<u8").T.copy()
_POINT_LOW, _POINT_HIGH = np.where(np.arange(16) == _K, ord("."), 0).astype(
    np.uint8).view("<u8").T.copy()
_MINUS, _BYTE, _TOP_BYTE = np.uint64(ord("-")), np.uint64(8), np.uint64(56)


def _digits(x: np.ndarray):
    """The fast-path mask of the values x, and per value the index of its
    decimal exponent X in the per-X tables, its digits before the point,
    its significant digits and its digit text as a (low, high) word pair:
    the significant digits and every one before the point.

    The 12 digits come from y = |x| * 10^(11-X) rounded to an integer; a
    value the fast path cannot certify (0, nan, inf, outside _FAST_RANGE,
    or y within _TIE_MARGIN of a tie) is left out of the mask.  Its own
    function, so that its temporaries are freed before the slots are made.
    """
    mag = np.abs(x)
    fast = (mag >= _FAST_RANGE[0]) & (mag <= _FAST_RANGE[1])
    mag = np.where(fast, mag, 1.0)
    # X from log10, one off at some powers of ten: corrected so that y
    # lands in [1e11, 1e12), then y scaled once more from |x|
    exp10 = np.floor(np.log10(mag)).astype(np.intp)
    y = mag * _POW10[_X0 + 11 - exp10]
    exp10 += y >= 1e12
    exp10 -= y < 1e11
    y = mag * _POW10[_X0 + 11 - exp10]
    fast &= (y >= 1e11) & (y < 1e12) & (np.abs(y - np.floor(y) - 0.5) > _TIE_MARGIN)
    y = np.where(fast, np.rint(y), 1e11)
    carry = y == 1e12  # rounded up to 13 digits: one more decade
    y[carry] = 1e11
    exp10 += carry + _X0
    # the 12 digits in three groups of four; exact in float64
    hi = np.floor(y / 1e8)
    rest = y - hi * 1e8
    mid = np.floor(rest / 1e4)
    lo = (rest - mid * 1e4).astype(np.intp)
    hi, mid = hi.astype(np.intp), mid.astype(np.intp)
    zeros = _QUAD_ZEROS[lo]
    zeros_mid = _QUAD_ZEROS[mid]
    zeros += (zeros == 4) * (zeros_mid + (zeros_mid == 4) * _QUAD_ZEROS[hi])
    n_digits = 12 - zeros
    # digits kept: the significant ones, and every one before the point
    int_digits = _INT_DIGITS[exp10]
    keep = np.maximum(n_digits, int_digits)
    low = (_QUAD_TEXT[hi] | _QUAD_TEXT[mid] << np.uint64(32)) & _MASK_LOW[keep]
    high = _QUAD_TEXT[lo] & _MASK_HIGH[keep]
    return fast, exp10, int_digits, n_digits, low, high


def _format_block(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """Slots of the ASCII bytes of the rows of values x (row-major, one
    column per separator byte in seps, which follows the column's values).

    Each value gets a 32-byte slot of four uint64 words: sign and "0.00"
    prefix | the digits with the point (two words) | exponent and the
    separator, zero-padded; the slots come back as a (rows, columns, 4)
    array, for _squeeze.  The digits come from _digits; a value off its
    fast path is written into its slot by '%.12g' % instead.
    """
    n = x.size
    fast, exp10, int_digits, n_digits, low, high = _digits(x)
    # the point after the integer digits, where a fraction digit follows
    # (the prefix holds it for -4 <= X < 0): the bytes from there on move
    # up one
    point = ((n_digits > int_digits) & (int_digits > 0)).astype(np.uint64)
    low_int, high_int = _MASK_LOW[int_digits], _MASK_HIGH[int_digits]
    low_frac = low & ~low_int
    shift = point * _BYTE
    neg = (x < 0).astype(np.uint64)
    sep = np.tile(seps, n // seps.size)
    slots = np.empty((n, 4), "<u8")
    slots[:, 0] = _PREFIX[exp10] << neg * _BYTE | neg * _MINUS
    slots[:, 1] = low & low_int | low_frac << shift | _POINT_LOW[int_digits] * point
    slots[:, 2] = (high & high_int | (high & ~high_int) << shift
                   | (low_frac >> _TOP_BYTE) * point | _POINT_HIGH[int_digits] * point)
    slots[:, 3] = _EXPONENT[exp10] | sep << _EXP_BITS[exp10]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%-24.12g" * slow.size) % tuple(x[slow].tolist())
        slots[slow, :3] = np.frombuffer(text.replace(" ", "\0").encode(),
                                        "<u8").reshape(-1, 3)
        slots[slow, 3] = sep[slow]
    return slots.reshape(-1, seps.size, 4)


def _squeeze(slots: np.ndarray) -> bytes:
    """The bytes of slots with the zero padding squeezed out (by bytes'
    own deletion, which beats a numpy boolean mask over bytes)."""
    return slots.tobytes().translate(None, b"\0")


def write_tables(files, headers, shared, own) -> None:
    """Write one CSV table to each binary file: its header line, then one
    row per index of the equal-length 1-D columns, the shared columns
    first and then the file's own (at least one per file).

    Every value is written as '%.12g' % v (and f"{v:.12g}") would write
    it, byte for byte.  Blocks of _BLOCK_ROWS rows of every column are
    formatted by one _format_block call, so a shared column is formatted
    once for all the files, and each file's rows of the block are
    squeezed and written as they are made.
    """
    own = [list(group) for group in own]
    if not (own and all(own) and len(own) == len(files) == len(headers)):
        raise ValueError("need files, each with a header and its own columns")
    cols = [np.asarray(c, dtype=np.float64)
            for c in [*shared, *(c for group in own for c in group)]]
    if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValueError("columns must be 1-D arrays of one length")
    # the separator after each column, and the columns of each file's rows
    n_shared = len(shared)
    seps, picks = [ord(",")] * n_shared, []
    for group in own:
        picks.append(np.r_[:n_shared, len(seps):len(seps) + len(group)])
        seps += [ord(",")] * (len(group) - 1) + [ord("\n")]
    if len(files) == 1:
        picks = [slice(None)]
    seps = np.array(seps, np.uint64)
    for file, header in zip(files, headers):
        file.write(header.encode() + b"\n")
    for start in range(0, cols[0].size, _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
        slots = _format_block(block.ravel(), seps)
        for file, pick in zip(files, picks):
            file.write(_squeeze(slots[:, pick]))


def write_table(file, header: str, *columns) -> None:
    """Write a CSV table to a binary file: the header line, then one row
    per index of the equal-length 1-D columns; see write_tables."""
    write_tables([file], [header], (), [columns])


def trace_to_csv(trace: DetectedTrace, path) -> None:
    """Write the trace to path as CSV with columns time_s, value."""
    with open(path, "wb") as file:
        write_table(file, "time_s,value", trace.times, trace.samples)
