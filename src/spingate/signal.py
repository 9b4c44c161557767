"""Complex baseband envelopes and the detection chain.

An envelope holds samples of the slowly varying complex amplitude about a
carrier; transfer functions act on it spectrally; the diode detector
squares, low-passes and hands a real trace to the rise-time metrology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import kernels

TWO_PI = 2.0 * math.pi


class BandOverflowError(ValueError):
    """Envelope spectrum exceeds a validity-limited transfer function."""


class NoTransitionError(ValueError):
    """Trace never crosses the rise-time thresholds."""


class IndeterminatePhaseError(ValueError):
    """Windowed amplitude too small to carry a phase."""


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

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dt

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt

    @property
    def nyquist(self) -> float:
        return 0.5 / self.dt


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


@dataclass(frozen=True)
class TransferFunction:
    """Map absolute frequency (Hz) -> complex gain, vectorized.

    ``band`` declares the support; with ``stopband=True`` the gain is
    forced to exactly 0 outside it (a physical stopband).  With
    ``stopband=False`` the band is a validity limit and apply_transfer
    refuses envelopes whose Nyquist span sticks out of it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    band: tuple[float, float] | None = None
    stopband: bool = True

    def __call__(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=np.float64)
        g = np.asarray(self.fn(f), dtype=np.complex128)
        g = np.broadcast_to(g, f.shape)
        if self.band is not None and self.stopband:
            lo, hi = self.band
            g = np.where((f < lo) | (f > hi), 0.0 + 0.0j, g)
        return np.array(g, dtype=np.complex128)


def identity_transfer() -> TransferFunction:
    return TransferFunction(lambda f: np.ones_like(f, dtype=np.complex128))


def constant_transfer(gain: complex) -> TransferFunction:
    return TransferFunction(lambda f, g=complex(gain): np.full(f.shape, g, dtype=np.complex128))


def delay_transfer(tau: float) -> TransferFunction:
    """Ideal delay: gain exp(-i*2*pi*f*tau) at absolute frequency f."""
    return TransferFunction(lambda f: np.exp(-1j * TWO_PI * f * tau))


def constant_envelope(amplitude: float, phase: float, duration: float, dt: float,
                      f_carrier: float) -> ComplexEnvelope:
    n = int(round(duration / dt))
    value = amplitude * complex(math.cos(phase), math.sin(phase))
    return ComplexEnvelope(f_carrier, dt, np.full(n, value, dtype=np.complex128))


def make_step_phase_envelope(amplitude: float, phase_a: float, phase_b: float,
                             t_toggle: float, t_switch_rise: float,
                             duration: float, dt: float,
                             f_carrier: float) -> ComplexEnvelope:
    """Constant-amplitude envelope whose phase ramps from phase_a to phase_b.

    The ramp is a raised cosine of width t_switch_rise starting at
    t_toggle, so the trajectory is phase-continuous at constant modulus.
    """
    if t_switch_rise <= 0 or t_switch_rise > duration:
        raise ValueError("switch rise must be positive and fit in the envelope")
    if not 0.0 < t_toggle < duration:
        raise ValueError("toggle instant must lie inside the envelope")
    t = np.arange(int(round(duration / dt))) * dt
    u = np.clip((t - t_toggle) / t_switch_rise, 0.0, 1.0)
    phase = phase_a + (phase_b - phase_a) * 0.5 * (1.0 - np.cos(math.pi * u))
    return ComplexEnvelope(f_carrier, dt, amplitude * np.exp(1j * phase))


def apply_transfer(env: ComplexEnvelope, tf: TransferFunction,
                   pad_time: float = 0.0) -> ComplexEnvelope:
    """Apply a transfer function spectrally; returns an envelope of equal length.

    The sample vector is zero-padded to a power of two (plus at least
    pad_time of guard, for suppressing wrap-around of long group delays),
    transformed, multiplied bin-wise by tf(f_carrier + offset) and
    transformed back.  Linear in the envelope.  With no padding on a
    power-of-two grid, an ideal delay of m samples is an exact circular
    shift.
    """
    n = len(env)
    if tf.band is not None and not tf.stopband:
        lo, hi = tf.band
        if env.f_carrier - env.nyquist < lo or env.f_carrier + env.nyquist > hi:
            raise BandOverflowError(
                f"envelope spans {env.f_carrier - env.nyquist:.6g} .. "
                f"{env.f_carrier + env.nyquist:.6g} Hz, outside the transfer "
                f"band {lo:.6g} .. {hi:.6g} Hz"
            )
    n_fft = _next_pow2(n + max(0, int(math.ceil(pad_time / env.dt))))
    x = np.zeros(n_fft, dtype=np.complex128)
    x[:n] = env.samples
    spectrum = np.fft.fft(x)
    f_abs = env.f_carrier + np.fft.fftfreq(n_fft, env.dt)
    out = np.fft.ifft(spectrum * tf(f_abs))[:n]
    return ComplexEnvelope(env.f_carrier, env.dt, out)


def superpose(envs: list[ComplexEnvelope]) -> ComplexEnvelope:
    """Sample-wise complex sum of envelopes on an identical grid."""
    if not envs:
        raise ValueError("nothing to superpose")
    first = envs[0]
    for e in envs[1:]:
        if (e.f_carrier != first.f_carrier or e.dt != first.dt
                or len(e) != len(first)):
            raise ValueError("envelopes must share carrier, dt and length")
    total = np.sum([e.samples for e in envs], axis=0)
    return ComplexEnvelope(first.f_carrier, first.dt, total)


def diode_detect(env: ComplexEnvelope, lp_cutoff: float | None = 5.0e8,
                 responsivity: float = 1.0) -> DetectedTrace:
    """Square-law detection of the envelope.

    |s(t)|^2 scaled by the responsivity (V per squared amplitude unit),
    then a single-pole low-pass at lp_cutoff; pass None to skip the
    filter.
    """
    power = responsivity * np.abs(env.samples) ** 2
    if lp_cutoff is None:
        return DetectedTrace(env.dt, power)
    if lp_cutoff >= env.nyquist:
        raise ValueError("low-pass cutoff must sit below Nyquist")
    a = math.exp(-TWO_PI * lp_cutoff * env.dt)
    # pre-charged at the first sample so a constant input stays constant
    out = kernels.lowpass_1pole(power, a, float(power[0]))
    return DetectedTrace(env.dt, out)


@dataclass(frozen=True)
class RiseTimeResult:
    t_rise: float
    f_clock: float
    v_max: float


def plateau_start(n: int, plateau_fraction: float = 0.25) -> int:
    """First sample of the trailing plateau rise_time reads v_max from."""
    return n - max(1, int(round(plateau_fraction * n)))


def rise_time(trace: DetectedTrace, plateau_fraction: float = 0.25) -> RiseTimeResult:
    """1/3 -> 2/3 rise time of a low-to-high transition.

    v_max is the settled level, estimated as the mean of the trailing
    plateau_fraction of the trace.  The crossing pair is the last
    1/3*v_max crossing before the first 2/3*v_max crossing, both linearly
    interpolated between samples; f_clock = 1/t_rise.
    """
    v = trace.samples
    v_max = float(np.mean(v[plateau_start(v.size, plateau_fraction):]))
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


def phase_estimate(env: ComplexEnvelope, t_start: float, t_stop: float,
                   floor: float = 1e-12) -> float:
    """Phase (rad, in (-pi, pi]) of the mean complex amplitude in a window."""
    if not 0.0 <= t_start < t_stop <= env.duration + env.dt:
        raise ValueError("window must lie inside the envelope")
    i0 = int(round(t_start / env.dt))
    i1 = max(i0 + 1, int(round(t_stop / env.dt)))
    mean = complex(np.mean(env.samples[i0:i1]))
    if abs(mean) <= floor:
        raise IndeterminatePhaseError("indeterminate phase: amplitude below floor")
    return float(wrap_phase(math.atan2(mean.imag, mean.real)))


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
