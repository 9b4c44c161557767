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
from typing import Callable

import numpy as np

from . import circuit, logic, physics
from .signal import (ComplexEnvelope, DetectedTrace, apply_transfer,
                     constant_envelope, diode_detect,
                     make_step_phase_envelope, plateau_start, rise_time,
                     superpose, wrap_phase)


class CalibrationError(RuntimeError):
    """A channel cannot be calibrated (no transmission, flat objective)."""


class RunwayError(ValueError):
    """Transit fill time exceeds the runway before the analysis window."""


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
    total attenuator settings.
    """
    gains = np.abs(nl.carrier_gains)
    for ch, g in zip(circuit.CHANNELS, gains):
        if g == 0.0:
            raise CalibrationError(f"channel {ch} has no transmission")
    weakest = gains.min()
    out = nl
    settings = []
    for idx, ch in enumerate(circuit.CHANNELS):
        extra = 20.0 * math.log10(gains[idx] / weakest)
        current = nl.component(ch, "attenuator").params.get("db", 0.0)
        total = current + extra
        out = out.with_component_params(ch, "attenuator", db=total)
        settings.append(total)
    return out, tuple(settings)


def calibrate_phases(nl: circuit.GateNetlist) -> tuple[circuit.GateNetlist, tuple[float, float, float]]:
    """Align each outer channel's phase shifter with the reference channel.

    With i2 held at its current setting, each of i1 and i3 in turn is
    driven together with i2, and its shifter is set where the two-channel
    output amplitude |g2 + g*e^(i*theta)| peaks: theta = arg(g2) - arg(g),
    in closed form, with the whole carrier gain g rotated (crosstalk
    included).  That setting is the channel's logic-0 offset; on a gate
    without crosstalk the residual phase error is at rounding level, so
    recalibrating a calibrated gate leaves the settings in place.  A dead
    channel, or an objective that swings by 2*min(|g|, |g2|) <= 1e-12 of
    its peak |g| + |g2|, raises CalibrationError.  Amplitudes should be
    leveled first.
    """
    gains = nl.carrier_gains
    if np.any(np.abs(gains) == 0.0):
        raise CalibrationError("dead channel: calibrate amplitudes first")
    g2 = gains[1]
    out = nl
    offsets = [0.0, 0.0, 0.0]
    for idx, ch in ((0, "i1"), (2, "i3")):
        base = nl.component(ch, "phase_shifter").params.get("rad", 0.0)
        g = gains[idx]
        if 2.0 * min(abs(g), abs(g2)) <= 1e-12 * (abs(g) + abs(g2)):
            raise CalibrationError(f"flat calibration objective on {ch}")
        total = float(wrap_phase(base + np.angle(g2 / g)))
        out = out.with_component_params(ch, "phase_shifter", rad=total)
        offsets[idx] = total
    ref_setting = nl.component("i2", "phase_shifter").params.get("rad", 0.0)
    offsets[1] = float(wrap_phase(ref_setting))
    return out, tuple(offsets)


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

    t_toggle None drives a constant state (no transition).  The analysis
    window keeps the rise-time metrology away from the circular-FFT
    boundaries.  Two preconditions bound the transit fill time (~140 ns
    for a 4 mm effective path at the reference carrier), and
    run_switching checks both: the runway, from the start of the record
    to the start of the window (t_toggle - analysis_pre), must exceed it
    so the fill average never wraps into the window; and the transition
    (toggle, ramp and fill) must end before the trailing plateau from
    which rise_time reads the settled level (347.2 ns at the defaults).
    """

    dt: float = 1.0e-10
    duration: float = 4.096e-7
    t_toggle: float | None = 2.0e-7
    ramp: float = 2.0e-9
    analysis_pre: float = 4.0e-8
    analysis_post: float = 2.4e-7


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

    k_c is the solved wavenumber of the carrier, as a netlist's
    ``carrier_propagation.k`` holds it.
    """
    if length < 0:
        raise ValueError("effective path must be nonnegative")
    if length == 0.0:
        return 0.0
    return length / abs(physics.group_velocity(ctx, k_c))


def _analysis_window(timing: SwitchTiming, n: int) -> tuple[int, int]:
    """Sample range [lo, hi) of an n-sample record that rise_time reads."""
    if timing.t_toggle is None:
        return 0, n
    lo = max(0, int(round((timing.t_toggle - timing.analysis_pre) / timing.dt)))
    hi = min(n, int(round((timing.t_toggle + timing.analysis_post) / timing.dt)))
    return lo, hi


def _fill_bounds(timing: SwitchTiming, n: int) -> tuple[float, float]:
    """Runway before the analysis window of an n-sample record, and the
    time at which the plateau rise_time averages for v_max starts."""
    lo, hi = _analysis_window(timing, n)
    return (timing.t_toggle - timing.analysis_pre,
            (lo + plateau_start(hi - lo)) * timing.dt)


def _fill_violation(path: float, fill: float, timing: SwitchTiming,
                    n: int) -> str | None:
    """Why the fill time of a path breaks the timing of an n-sample record.

    None when it fits: shorter than the runway before the analysis
    window, and ending the transition (toggle, ramp, fill) before the
    plateau that rise_time averages for the settled level.
    """
    runway, plateau = _fill_bounds(timing, n)
    what = f"transit fill time {fill:.4g} s of the {path:.4g} m effective path"
    if fill >= runway:
        return f"{what} exceeds the {runway:.4g} s runway before the analysis window"
    settled = timing.t_toggle + timing.ramp + fill
    if settled >= plateau:
        return (f"{what} ends the transition at {settled:.4g} s, past the "
                f"start {plateau:.4g} s of the plateau the settled level is "
                f"read from")
    return None


def transit_fill_factor(fill: float, f_c: float) -> Callable[[np.ndarray], np.ndarray]:
    """Normalized transit response of an effective film path.

    While the wavefront carrying a new input phase sweeps the path, the
    output superposes old- and new-phase wave portions; the detected
    transition therefore spreads over the fill time T of the path (see
    transit_fill_time).  Spectrally this is the causal moving average
    over T, normalized to 1 at the carrier so the fitted effective length
    never touches the calibrated steady-state levels.  Returns the gain as
    a function of absolute frequency; zero fill time is an exact unit
    gain, since sinc(0)*exp(0) is exactly 1.
    """
    def gain(f):
        df = np.asarray(f, dtype=np.float64) - f_c
        return np.sinc(df * fill) * np.exp(-1j * math.pi * df * fill)

    return gain


def run_switching(nl: circuit.GateNetlist, enc: logic.PhaseEncoding | None = None,
                  ref_phase: float = math.pi,
                  timing: SwitchTiming | None = None,
                  effective_path: float = 0.0,
                  lp_cutoff: float | None = 5.0e8,
                  responsivity: float = 1.0) -> SwitchingResult:
    """Toggle i2 between logic 0 and 1 and time the detected transition.

    The drive rides states 100 -> 110: i1 fixed at logic 1, i3 at logic 0,
    i2 ramped from 0 to 1 through the raised-cosine switch (the netlist
    must carry the switch and delay line; the toggle itself acts on the
    drive envelope, with the switch left on the direct path for the
    steady gains).  The summed output is interfered with a reference
    carrier of equal amplitude offset by ref_phase from the pre-toggle
    output, then diode-detected.

    effective_path is the i2-to-output length whose transit time spreads
    the transition (see transit_fill_factor); it is a fitted model
    parameter, not a geometric length.  At 0 the transition is
    switch-limited.  A fill time that breaks either precondition of
    SwitchTiming raises RunwayError: longer than the runway before the
    analysis window, the circular fill average would wrap into the
    window; ending the transition inside the trailing plateau, it would
    pull the settled level down.
    """
    enc = enc or logic.PhaseEncoding()
    timing = timing or SwitchTiming()
    try:
        nl.component("i2", "switch")
    except KeyError:
        raise ValueError("netlist has no switch on i2; build with include_switch")
    s = nl.settings
    gains = nl.carrier_gains
    if np.any(np.abs(gains) == 0.0):
        raise CalibrationError("dead channel at the carrier")

    phase0 = logic.encode(0, enc)
    phase1 = logic.encode(1, enc)
    if timing.t_toggle is None:
        drive_i2 = constant_envelope(s.drive_amplitude, phase0, timing.duration,
                                     timing.dt, s.f_c)
    else:
        drive_i2 = make_step_phase_envelope(
            s.drive_amplitude, phase0, phase1, timing.t_toggle, timing.ramp,
            timing.duration, timing.dt, s.f_c)

    n = len(drive_i2)
    if effective_path > 0.0:
        fill = transit_fill_time(nl.ctx, effective_path,
                                 nl.carrier_propagation.k)
        if timing.t_toggle is not None:
            violation = _fill_violation(effective_path, fill, timing, n)
            if violation:
                raise RunwayError(violation)
        out_i2 = apply_transfer(drive_i2, transit_fill_factor(fill, s.f_c))
    else:
        out_i2 = drive_i2
    out_i2 = ComplexEnvelope(s.f_c, timing.dt, out_i2.samples * gains[1])

    steady = s.drive_amplitude * np.exp(1j * np.array([phase1, phase0])) * gains[[0, 2]]
    static = complex(steady.sum())
    out_static = ComplexEnvelope(s.f_c, timing.dt, np.full(n, static))

    # pre-toggle (state 100) output fixes the reference phase; its
    # amplitude equals the post-toggle one on a leveled gate
    out_100 = static + s.drive_amplitude * np.exp(1j * phase0) * gains[1]
    out_110 = static + s.drive_amplitude * np.exp(1j * phase1) * gains[1]
    ref_value = abs(out_110) * np.exp(1j * (np.angle(out_100) + ref_phase))
    reference = ComplexEnvelope(s.f_c, timing.dt, np.full(n, ref_value))

    total = superpose([out_i2, out_static, reference])
    detected = diode_detect(total, lp_cutoff=lp_cutoff, responsivity=responsivity)

    lo_idx, hi_idx = _analysis_window(timing, n)
    window = DetectedTrace(timing.dt, detected.samples[lo_idx:hi_idx])

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
    n = int(round(timing.duration / timing.dt))
    runway, plateau = _fill_bounds(timing, n)
    limit = min(runway, plateau - timing.t_toggle - timing.ramp)
    k_c = nl.carrier_propagation.k
    path = limit * abs(physics.group_velocity(nl.ctx, k_c))
    # the limit is exclusive and the product rounds: step down to a pass
    while path > 0.0 and _fill_violation(
            path, transit_fill_time(nl.ctx, path, k_c), timing, n):
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
    """Least-squares line y = slope*x + intercept and its R^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def scaling_study(nl: circuit.GateNetlist, scales,
                  base_effective_path: float,
                  enc: logic.PhaseEncoding | None = None,
                  timing: SwitchTiming | None = None,
                  recalibrate: bool = True,
                  **kwargs) -> ScalingStudy:
    """Rerun the switching transient with every length scaled down.

    Geometry lengths and the effective transit path shrink together;
    the film physics is untouched, so the carrier wavenumber is re-solved
    on the same dispersion.  Each scaled netlist is rebuilt from the
    original microwave settings and recalibrated before the run (losses
    change with the lengths).  Rows that fail (band violation, no
    transition) are flagged rather than fatal.  The ramp floor is the
    zero-length rise time of the same pipeline.
    """
    scales = [float(s) for s in scales]
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    floor = run_switching(nl, enc=enc, timing=timing, effective_path=0.0,
                          **kwargs).t_rise
    rows = []
    for s in scales:
        try:
            scaled = circuit.build_majority_gate(
                nl.geometry.rescaled(s), nl.ctx, nl.settings)
            if recalibrate:
                scaled, _ = calibrate(scaled)
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
