"""Measurement procedures on a gate netlist.

Reproduces the bench workflow: level the three channel amplitudes with
the attenuators, pin the per-channel phase offsets against the reference
channel i2 by maximizing two-channel interference, then run the logic
truth table, the phase-toggle switching transient and the miniaturization
scaling sweep.  Procedures never mutate their input netlist; they return
adjusted copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit, logic, physics
from .signal import (ComplexEnvelope, DetectedTrace, diode_detect,
                     plateau_start, rise_time, step_phase_drive, wrap_phase)


# ceiling of the analysis window in samples: run_switching allocates the
# window, and 8 trapezoid nodes per sample of a ramp that ends inside it
MAX_SAMPLES = 2 ** 20


class CalibrationError(RuntimeError):
    """A channel cannot be calibrated (no transmission, flat objective)."""


class RunwayError(ValueError):
    """Transit fill time ends the transition inside the settled plateau."""


@dataclass(frozen=True)
class CalibrationResult:
    attenuator_db: tuple[float, float, float]
    phase_offsets_rad: tuple[float, float, float]
    residual_amplitude_imbalance: float
    residual_phase_error: float


def calibrate_amplitudes(nl: circuit.GateNetlist) -> tuple[circuit.GateNetlist, tuple[float, float, float]]:
    """Level the three single-channel output amplitudes.

    Each channel is measured alone (the others muted) and attenuated down
    to the weakest one; in the linear model the needed attenuation is the
    closed-form dB ratio.  Returns the adjusted netlist and the resulting
    total attenuator settings.  A gain below the smallest normal float
    has lost its precision (and dividing by it overflows): no transmission.
    """
    gains = np.abs(nl.carrier_gains)
    for ch, g in zip(circuit.CHANNELS, gains):
        if g < np.finfo(np.float64).tiny:
            raise CalibrationError(f"channel {ch} has no transmission")
    with np.errstate(over="ignore"):
        ratios = gains / gains.min()
    if not np.all(np.isfinite(ratios)):
        raise CalibrationError("channel gains lie too far apart to level")
    atten = tuple(current + 20.0 * math.log10(r)
                  for current, r in zip(nl.settings.attenuator_db, ratios))
    return nl.with_controls(attenuator_db=atten), atten


def calibrate_phases(nl: circuit.GateNetlist) -> tuple[circuit.GateNetlist, tuple[float, float, float]]:
    """Align each outer channel's phase shifter with the reference channel.

    With i2 held at its current setting, each of i1 and i3 in turn is
    driven together with i2, and its shifter is set where the two-channel
    output amplitude |g2 + g*e^(i*theta)| peaks: theta = arg(g2) - arg(g),
    in closed form, with the whole carrier gain g rotated.  That setting
    is the channel's logic-0 offset; the residual phase error is at
    rounding level, so recalibrating a calibrated gate leaves the
    settings in place.  A dead channel, or an objective that swings by
    2*min(|g|, |g2|) <= 1e-12 of its peak |g| + |g2|, raises
    CalibrationError naming the weaker of the two channels.  Amplitudes
    should be leveled first.
    """
    gains = nl.carrier_gains
    if np.any(np.abs(gains) == 0.0):
        raise CalibrationError("dead channel: calibrate amplitudes first")
    g2 = gains[1]
    phases = list(nl.settings.phase_rad)
    for idx, ch in ((0, "i1"), (2, "i3")):
        g = gains[idx]
        if 2.0 * min(abs(g), abs(g2)) <= 1e-12 * (abs(g) + abs(g2)):
            weaker = ch if abs(g) <= abs(g2) else "i2"
            raise CalibrationError(f"flat calibration objective on {weaker}")
        phases[idx] = float(wrap_phase(phases[idx] + np.angle(g2 / g)))
    offsets = (phases[0], float(wrap_phase(phases[1])), phases[2])
    return nl.with_controls(phase_rad=phases), offsets


def calibrate(nl: circuit.GateNetlist) -> tuple[circuit.GateNetlist, CalibrationResult]:
    """Amplitude then phase calibration, with measured residuals."""
    leveled, atten = calibrate_amplitudes(nl)
    aligned, offsets = calibrate_phases(leveled)
    gains = aligned.carrier_gains
    mags = np.abs(gains)
    imbalance = float(mags.max() / mags.min())
    ref = np.angle(gains[1])
    phase_err = float(max(abs(wrap_phase(np.angle(g) - ref)) for g in gains))
    return aligned, CalibrationResult(
        attenuator_db=atten,
        phase_offsets_rad=offsets,
        residual_amplitude_imbalance=imbalance,
        residual_phase_error=phase_err,
    )


@dataclass(frozen=True)
class SwitchTiming:
    """Grid and toggle layout of the switching transient.

    t_toggle None drives a constant state (no transition).  The record
    holds round(duration/dt) samples; run_switching computes only those of
    the analysis window, from analysis_pre before the toggle to
    analysis_post after it, which rise_time reads; construction checks
    every range, and that the window holds 2 to MAX_SAMPLES samples.
    run_switching checks one more precondition, on the transit fill time
    (~140 ns for a 4 mm effective path at the reference carrier): the
    transition (toggle, ramp and fill) must end before the trailing
    plateau of the window from which rise_time reads the settled level
    (347.2 ns at the defaults).
    """

    dt: float = 1.0e-10
    duration: float = 4.096e-7
    t_toggle: float | None = 2.0e-7
    ramp: float = 2.0e-9
    analysis_pre: float = 4.0e-8
    analysis_post: float = 2.4e-7

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.duration > self.dt:
            raise ValueError("duration must exceed dt")
        if not 0 < self.ramp <= self.duration:
            raise ValueError("ramp must lie in (0, duration]")
        if self.t_toggle is not None and not 0 < self.t_toggle < self.duration:
            raise ValueError("t_toggle must lie in (0, duration)")
        for name in ("analysis_pre", "analysis_post"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        lo, hi = self._bounds()
        if not (hi - lo <= MAX_SAMPLES and round(hi) - round(lo) >= 2):
            raise ValueError(
                f"dt must leave 2 to {MAX_SAMPLES} samples in the analysis window")

    def _bounds(self) -> tuple[float, float]:
        """The window's bounds in samples, clamped to the record, unrounded
        (a bound past the float range is infinite)."""
        n = self.duration / self.dt
        if self.t_toggle is None:
            return 0.0, n
        return (max(0.0, (self.t_toggle - self.analysis_pre) / self.dt),
                min(n, (self.t_toggle + self.analysis_post) / self.dt))

    @property
    def window(self) -> tuple[int, int]:
        """Sample range [lo, hi) of the record that rise_time reads."""
        lo, hi = self._bounds()
        return round(lo), round(hi)


@dataclass(frozen=True)
class SwitchingResult:
    trace: DetectedTrace
    t_rise: float
    f_clock: float
    levels: tuple[float, float]
    effective_path: float


def transit_fill_time(ctx: physics.ModeContext, length: float,
                      k_c: float) -> float:
    """Time T = length / |vg(k_c)| the carrier wave takes to fill a path.

    k_c is the solved wavenumber of the carrier, as the gate record's
    ``carrier_propagation.k`` holds it; the fill time is the group delay
    of the path at the carrier.
    """
    if length == 0.0:
        return 0.0
    return length / abs(physics.group_velocity(ctx, k_c))


def check_effective_path(effective_path: float) -> None:
    """Raise ValueError, naming the argument, for a path run_switching
    cannot take."""
    if not effective_path >= 0:
        raise ValueError("effective_path must be nonnegative")


def _plateau_time(timing: SwitchTiming) -> float:
    """Time at which the plateau rise_time averages for v_max starts, in
    the analysis window."""
    lo, hi = timing.window
    return (lo + plateau_start(hi - lo)) * timing.dt


def _fill_violation(path: float, fill: float,
                    timing: SwitchTiming) -> str | None:
    """Why the fill time of a path breaks the timing.

    None when it fits: the transition (toggle, ramp, fill) ends before
    the plateau that rise_time averages for the settled level.
    """
    plateau = _plateau_time(timing)
    settled = timing.t_toggle + timing.ramp + fill
    if settled >= plateau:
        return (f"transit fill time {fill:.4g} s of the {path:.4g} m "
                f"effective path ends the transition at {settled:.4g} s, "
                f"past the start {plateau:.4g} s of the plateau the settled "
                f"level is read from")
    return None


def run_switching(nl: circuit.GateNetlist, enc: logic.PhaseEncoding | None = None,
                  ref_phase: float = math.pi,
                  timing: SwitchTiming | None = None,
                  effective_path: float = 0.0,
                  lp_cutoff: float | None = 5.0e8,
                  responsivity: float = 1.0) -> SwitchingResult:
    """Toggle i2 between logic 0 and 1 and time the detected transition.

    The drive rides states 100 -> 110: i1 fixed at logic 1, i3 at logic 0,
    i2 ramped from 0 to 1 through the raised-cosine switch, which acts on
    the drive envelope; the gate's carrier gains stay the steady gains of
    every channel.  The summed output is interfered with a reference
    carrier of equal amplitude offset by ref_phase from the pre-toggle
    output, then diode-detected.

    Only the samples of the analysis window are computed (see
    SwitchTiming).  effective_path is the i2-to-output length whose
    transit spreads the transition: the i2 drive is replaced by its
    causal box average over the fill time (see transit_fill_time and
    signal.step_phase_drive), which holds the pre-toggle drive before the
    record begins and so never wraps.  It is a fitted model parameter,
    not a geometric length; at 0 the transition is switch-limited.  The
    steady i1 and i3 outputs and the reference are one complex constant,
    and the detector's low-pass is pre-charged at the window's first
    sample, where the input is still steady since the window opens before
    the toggle.  A fill time that ends the transition inside the trailing
    plateau, where it would pull the settled level down, raises
    RunwayError.
    """
    check_effective_path(effective_path)
    enc = enc or logic.PhaseEncoding()
    timing = timing or SwitchTiming()
    s = nl.settings
    gains = nl.carrier_gains
    if np.any(np.abs(gains) == 0.0):
        raise CalibrationError("dead channel at the carrier")

    phase0 = logic.encode(0, enc)
    phase1 = logic.encode(1, enc)
    lo, hi = timing.window
    fill = transit_fill_time(nl.ctx, effective_path, nl.carrier_propagation.k)
    if timing.t_toggle is None:
        drive_i2 = np.full(hi - lo, s.drive_amplitude * np.exp(1j * phase0))
    else:
        violation = fill > 0.0 and _fill_violation(effective_path, fill, timing)
        if violation:
            raise RunwayError(violation)
        drive_i2 = step_phase_drive(
            s.drive_amplitude, phase0, phase1, timing.t_toggle, timing.ramp,
            timing.duration, timing.dt, fill=fill, window=(lo, hi))

    steady = s.drive_amplitude * np.exp(1j * np.array([phase1, phase0])) * gains[[0, 2]]
    static = complex(steady.sum())
    # pre-toggle (state 100) output fixes the reference phase; its
    # amplitude equals the post-toggle one on a leveled gate
    out_100 = static + s.drive_amplitude * np.exp(1j * phase0) * gains[1]
    out_110 = static + s.drive_amplitude * np.exp(1j * phase1) * gains[1]
    ref_value = abs(out_110) * np.exp(1j * (np.angle(out_100) + ref_phase))

    total = ComplexEnvelope(s.f_c, timing.dt,
                            drive_i2 * gains[1] + (static + ref_value))
    window = diode_detect(total, lp_cutoff=lp_cutoff, responsivity=responsivity)

    rt = rise_time(window)
    v_low = float(np.mean(window.samples[:max(1, int(0.1 * len(window.samples)))]))
    return SwitchingResult(trace=window, t_rise=rt.t_rise, f_clock=rt.f_clock,
                           levels=(v_low, rt.v_max),
                           effective_path=effective_path)


def fit_effective_path(nl: circuit.GateNetlist, target_t_rise: float,
                       enc: logic.PhaseEncoding | None = None,
                       timing: SwitchTiming | None = None,
                       lo: float = 1.0e-5, hi: float = 4.0e-3,
                       rtol: float = 1e-3, **kwargs) -> float:
    """Effective path length whose switching run hits the target rise time.

    Illinois regula falsi on the monotone, nearly linear residual
    t_rise(length) - target over the bracket [lo, hi]; raises
    CalibrationError when the target is not bracketed.  Stops once a run
    lands within rtol/2 of the target or the bracket is at most rtol*hi
    wide, and returns the evaluated length closest to the target, so
    re-running it reproduces that rise time exactly.  hi is clamped to the
    longest path whose transit fill time the timing admits (see
    SwitchTiming); the default 4 mm spans rise times up to ~34 ns.
    """
    timing = timing or SwitchTiming()
    if timing.t_toggle is not None:
        hi = min(hi, _longest_path(nl, timing))
        if hi <= lo:
            raise CalibrationError(
                f"no effective path above {lo:.3g} m fits the switching timing")

    def residual(length):
        return run_switching(nl, enc=enc, timing=timing, effective_path=length,
                             **kwargs).t_rise - target_t_rise

    r_lo, r_hi = residual(lo), residual(hi)
    if not r_lo <= 0.0 <= r_hi:
        raise CalibrationError(
            f"target rise {target_t_rise:.3g} s not bracketed by "
            f"[{target_t_rise + r_lo:.3g}, {target_t_rise + r_hi:.3g}] s")
    best, r_best = (lo, r_lo) if -r_lo <= r_hi else (hi, r_hi)
    # the regula-falsi weights: halved on the side that is kept twice
    w_lo, w_hi = r_lo, r_hi
    side = 0
    for _ in range(60):
        if abs(r_best) <= 0.5 * rtol * target_t_rise or hi - lo <= rtol * hi:
            break
        x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        r = residual(x)
        if abs(r) < abs(r_best):
            best, r_best = x, r
        if r < 0.0:
            lo, w_lo = x, r
            if side < 0:
                w_hi *= 0.5
            side = -1
        else:
            hi, w_hi = x, r
            if side > 0:
                w_lo *= 0.5
            side = 1
    return best


def _longest_path(nl: circuit.GateNetlist, timing: SwitchTiming) -> float:
    """Longest effective path whose fill time passes _fill_violation."""
    limit = _plateau_time(timing) - timing.t_toggle - timing.ramp
    k_c = nl.carrier_propagation.k
    path = limit * abs(physics.group_velocity(nl.ctx, k_c))
    # the limit is exclusive and the product rounds: step down to a pass
    while path > 0.0 and _fill_violation(
            path, transit_fill_time(nl.ctx, path, k_c), timing):
        path = math.nextafter(path, 0.0)
    return path


@dataclass(frozen=True)
class ScalingRow:
    scale: float
    t_rise: float
    f_clock: float
    flagged: bool


@dataclass(frozen=True)
class ScalingStudy:
    rows: tuple[ScalingRow, ...]
    ramp_floor: float
    slope: float
    intercept: float
    r_squared: float

    def to_csv(self) -> str:
        lines = ["scale,t_rise_s,f_clock_hz,flagged"]
        for r in self.rows:
            lines.append(f"{r.scale:.12g},{r.t_rise:.12g},{r.f_clock:.12g},"
                         f"{'true' if r.flagged else 'false'}")
        return "\n".join(lines) + "\n"


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept and its R^2.

    Fitted against x / max|x|, whose squares cannot underflow; NaN when
    the x values do not fix a line (repeats) or the slope overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    top = float(np.abs(x).max())
    u = x / top
    (slope, intercept), _, rank, _ = np.linalg.lstsq(
        np.column_stack([u, np.ones_like(u)]), y, rcond=None)
    resid = y - (slope * u + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    slope = float(slope) / top
    if rank < 2 or not math.isfinite(slope):
        return math.nan, math.nan, math.nan
    return slope, float(intercept), r2


def check_scales(scales) -> None:
    """Raise ValueError, naming the argument, for scales scaling_study
    cannot sweep."""
    if not all(s > 0 for s in scales):
        raise ValueError("scales must be positive")


def scaling_study(nl: circuit.GateNetlist, scales,
                  base_effective_path: float,
                  enc: logic.PhaseEncoding | None = None,
                  timing: SwitchTiming | None = None,
                  **kwargs) -> ScalingStudy:
    """Rerun the switching transient with every length scaled down.

    Geometry lengths and the effective transit path shrink together;
    the film physics is untouched, so the carrier wavenumber is re-solved
    on the same dispersion.  Each scaled gate is rebuilt from the
    netlist's settings (its calibrated controls, when it was calibrated)
    and calibrated again before the run, since the losses change with
    the lengths.  Rows that fail (band violation, no transition) are
    flagged rather than fatal.  The ramp floor is the
    zero-length rise time of the same pipeline.
    """
    scales = [float(s) for s in scales]
    check_scales(scales)
    floor = run_switching(nl, enc=enc, timing=timing, effective_path=0.0,
                          **kwargs).t_rise
    rows = []
    for s in scales:
        try:
            scaled, _ = calibrate(circuit.build_majority_gate(
                nl.geometry.rescaled(s), nl.ctx, nl.settings))
            res = run_switching(scaled, enc=enc, timing=timing,
                                effective_path=base_effective_path * s,
                                **kwargs)
            rows.append(ScalingRow(scale=s, t_rise=res.t_rise,
                                   f_clock=res.f_clock, flagged=False))
        except (physics.BandError, CalibrationError, ValueError):
            rows.append(ScalingRow(scale=s, t_rise=math.nan, f_clock=math.nan,
                                   flagged=True))
    good = [(r.scale, r.t_rise - floor) for r in rows if not r.flagged]
    if len(good) >= 2:
        slope, intercept, r2 = linear_fit([g[0] for g in good],
                                          [g[1] for g in good])
    else:
        slope = intercept = r2 = math.nan
    return ScalingStudy(rows=tuple(rows), ramp_floor=floor, slope=slope,
                        intercept=intercept, r_squared=r2)
