"""Measurement procedures on a gate netlist.

Reproduces the bench workflow: calibrate levels the three channel
amplitudes with the attenuators and pins the per-channel phase offsets
against the reference channel i2 by maximizing two-channel interference,
both in closed form; the other procedures run the logic truth table,
the phase-toggle switching transient and the miniaturization scaling
sweep.  Procedures never mutate their input netlist; they return
adjusted copies.
"""

from __future__ import annotations

import math

import numpy as np

from . import circuit, logic, physics
from .record import record
from .signal import (DetectedTrace, diode_detect, phase_setting,
                     plateau_start, rise_time, step_phase_drive, wrap_phase)


# ceiling of the analysis window in samples: run_switching holds one
# real array of the window and a drive block's temporaries, and with a
# fill the ramp table, three float arrays of 8 trapezoid nodes per sample
# of the ramp (a tracemalloc peak of 9.0 MiB at 2^20 samples, 9.7 with a
# fill on a 2 ns ramp, 67,225 nodes); config.validate_config bounds the
# spectrum and dispersion grids by it too
MAX_SAMPLES = 2 ** 20


class CalibrationError(RuntimeError):
    """A channel cannot be calibrated (no transmission, gains too far
    apart to level, or a chain below the float floor)."""


class RunwayError(ValueError):
    """Transit fill time ends the transition inside the settled plateau."""


@record
class CalibrationResult:
    attenuator_db: tuple[float, float, float]
    phase_offsets_rad: tuple[float, float, float]
    residual_amplitude_imbalance: float
    residual_phase_error: float


# the smallest normal float: a gain or a partial product of one below it
# has lost its precision, and dividing by it overflows
_TINY = float(np.finfo(np.float64).tiny)


def _leveled_attenuation(nl: circuit.GateNetlist) -> tuple[float, float, float]:
    """Total attenuator settings that level the netlist's carrier gains:
    each channel attenuated down to the weakest, in closed form.

    A carrier outside the band raises physics.BandError naming it and
    the band; a channel below _TINY, or one whose leveled chain falls
    below it ahead of the output coupling, CalibrationError naming the
    channel: the float floor where its chain is below _TINY already at
    its current attenuator, the gains' spread where leveling put it there.
    """
    if math.isnan(nl.carrier.k[0]):
        raise physics.stopband_error(nl.ctx, nl.settings.f_c)
    gains = np.abs(nl.carrier_gains).tolist()
    for ch, g in zip(circuit.CHANNELS, gains):
        if g < _TINY:
            raise CalibrationError(f"channel {ch} has no transmission")
    weakest = min(gains)
    atten = tuple(current + 20.0 * math.log10(g / weakest)
                  for current, g in zip(nl.settings.attenuator_db, gains))
    for i, floor_db in enumerate(nl.chain_floor_db(atten)):
        # an infinite ratio gives an infinite dB and a factor of 0
        if not 10.0 ** (floor_db / 20.0) >= _TINY:
            ch = circuit.CHANNELS[i]
            current_db = nl.chain_floor_db(nl.settings.attenuator_db)[i]
            if not 10.0 ** (current_db / 20.0) >= _TINY:
                raise CalibrationError(
                    f"channel {ch} falls below the smallest normal float "
                    "ahead of its output coupling")
            raise CalibrationError(
                f"channel gains lie too far apart to level {ch}")
    return atten


def calibrate(nl: circuit.GateNetlist) -> tuple[circuit.GateNetlist, CalibrationResult]:
    """Amplitude then phase calibration, with measured residuals.

    Each channel is measured alone (the others muted) and attenuated
    down to the weakest one, by the closed-form dB ratio of the linear
    model.  A gain below the smallest normal float has lost its
    precision (and dividing by it overflows): no transmission.  So has a
    leveled channel whose attenuator factor, or whose amplitude after
    its coupling and bend, falls below it, which the output coupling
    would scale back up into a mis-leveled gain: the gains lie too far
    apart to level, or, where that chain is below it before leveling,
    the channel is below the float floor.  Each raises CalibrationError
    naming the channel, and a carrier outside the band physics.BandError
    naming the carrier and the band.  Otherwise the weakest channel
    keeps its gain and every other leveled gain equals it to rounding.

    At the leveled gains, which the netlist gives without a copy, each
    of i1 and i3 is set against i2 where the two-channel amplitude
    |g2 + g*e^(i*theta)| peaks: theta = arg(g2) - arg(g), in closed form.
    That setting is the channel's logic-0 offset; the residual phase
    error is at rounding level, so recalibrating a calibrated gate
    leaves the settings in place.  The one copy returned takes both
    settings.
    """
    atten = _leveled_attenuation(nl)
    gains = nl.carrier_gains_at(atten)
    # arg(g2) - arg(g) of each channel, one quotient and one angle each
    turns = np.angle(gains[1] / gains).tolist()
    phases = list(nl.settings.phase_rad)
    for idx in (0, 2):
        phases[idx] = wrap_phase(phases[idx] + turns[idx])
    aligned = nl.with_controls(attenuator_db=atten, phase_rad=phases)
    gains = aligned.carrier_gains
    mags = np.abs(gains).tolist()
    angles = np.angle(gains).tolist()
    return aligned, CalibrationResult(
        attenuator_db=atten,
        phase_offsets_rad=aligned.settings.phase_rad,
        residual_amplitude_imbalance=max(mags) / min(mags),
        residual_phase_error=max(abs(wrap_phase(angle - angles[1]))
                                 for angle in angles),
    )


# the analysis window opens WINDOW_LEAD before the toggle and closes
# WINDOW_TAIL after it, or at the record's end if that comes first
WINDOW_LEAD = 4.0e-8
WINDOW_TAIL = 2.4e-7


@record
class SwitchTiming:
    """Grid and toggle layout of the switching transient.

    The record holds round(duration/dt) samples; run_switching computes
    only those of the analysis window, from WINDOW_LEAD before the toggle
    to WINDOW_TAIL after it, which rise_time reads; construction checks
    every range, and that the window holds 2 to MAX_SAMPLES samples.
    The transit fill time of run_switching must end the transition
    before the plateau from which rise_time reads the settled level (see
    runway).
    """

    dt: float = 1.0e-10
    duration: float = 4.096e-7
    t_toggle: float = 2.0e-7
    ramp: float = 2.0e-9

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.duration > self.dt:
            raise ValueError("duration must exceed dt")
        if not 0 < self.ramp <= self.duration:
            raise ValueError("ramp must lie in (0, duration]")
        if not 0 < self.t_toggle < self.duration:
            raise ValueError("t_toggle must lie in (0, duration)")
        lo, hi = self._bounds()
        if not (hi - lo <= MAX_SAMPLES and round(hi) - round(lo) >= 2):
            raise ValueError(
                f"dt must leave 2 to {MAX_SAMPLES} samples in the analysis window")

    def _bounds(self) -> tuple[float, float]:
        """The window's bounds in samples, clamped to the record, unrounded
        (a bound past the float range is infinite)."""
        return (max(0.0, (self.t_toggle - WINDOW_LEAD) / self.dt),
                min(self.duration / self.dt,
                    (self.t_toggle + WINDOW_TAIL) / self.dt))

    @property
    def window(self) -> tuple[int, int]:
        """Sample range [lo, hi) of the record that rise_time reads."""
        lo, hi = self._bounds()
        return round(lo), round(hi)

    @property
    def plateau(self) -> float:
        """Time at which the plateau rise_time averages for the settled
        level starts (347.2 ns at the defaults)."""
        lo, hi = self.window
        return (lo + plateau_start(hi - lo)) * self.dt

    @property
    def runway(self) -> float:
        """Time from the end of the toggle's ramp to the plateau, the
        longest transit fill time the transition may take: 145.2 ns at the
        defaults, 168 ns at a 2 ns ramp in a record that outlasts the
        window, and negative when the ramp ends inside the plateau."""
        return self.plateau - self.t_toggle - self.ramp


@record
class SwitchingResult:
    trace: DetectedTrace
    t_rise: float
    levels: tuple[float, float]


def check_effective_path(effective_path: float) -> None:
    """Raise ValueError, naming the argument, for a path run_switching
    cannot take."""
    if not effective_path >= 0:
        raise ValueError("effective_path must be nonnegative")


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
    output, then diode-detected.  ref_phase is reduced as a phase setting
    (signal.phase_setting): far outside (-pi, pi] it would swallow the
    output's angle, and a NaN or infinite one raises ValueError.

    Only the samples of the analysis window are computed (see
    SwitchTiming).  effective_path is the i2-to-output length whose
    transit spreads the transition: the i2 drive is replaced by its
    causal box average over the fill time, its group delay
    effective_path/|vg(k_c)| (see signal.step_phase_drive), which holds
    the pre-toggle drive before the record begins and so never wraps.  It
    is a fitted model parameter, not a geometric length; at 0 the
    transition is switch-limited.  The
    steady i1 and i3 outputs and the reference are one complex constant,
    and the detector's low-pass is pre-charged at the window's first
    sample, where the input is still steady since the window opens before
    the toggle.  A nonzero path longer than the timing's runway times
    |vg(k_c)|, whose fill would end the transition inside the trailing
    plateau and pull the settled level down, raises RunwayError.

    The window runs through the signal layer's stages in turn: each
    block step_phase_drive yields is scaled by the i2 gain and offset in
    place as diode_detect takes it, so no complex array of the whole
    window is made, and rise_time times the trace.
    """
    check_effective_path(effective_path)
    ref_phase = phase_setting(ref_phase, "ref_phase")
    enc = enc or logic.PhaseEncoding()
    timing = timing or SwitchTiming()
    s = nl.settings
    gains = nl.carrier_gains
    if np.any(np.abs(gains) == 0.0):
        raise CalibrationError("dead channel at the carrier")

    phase0 = logic.encode(0, enc)
    phase1 = logic.encode(1, enc)
    fill = effective_path / float(nl.carrier.speed[0])
    if effective_path > max(0.0, _longest_path(nl, timing)):
        raise RunwayError(
            f"transit fill time {fill:.4g} s of the {effective_path:.4g} m "
            f"effective path ends the transition at "
            f"{timing.t_toggle + timing.ramp + fill:.4g} s, past the start "
            f"{timing.plateau:.4g} s of the plateau the settled level is "
            f"read from")

    steady = s.drive_amplitude * np.exp(1j * np.array([phase1, phase0])) * gains[[0, 2]]
    static = complex(steady.sum())
    # pre-toggle (state 100) output fixes the reference phase; its
    # amplitude equals the post-toggle one on a leveled gate
    out_100 = static + s.drive_amplitude * np.exp(1j * phase0) * gains[1]
    out_110 = static + s.drive_amplitude * np.exp(1j * phase1) * gains[1]
    ref_value = abs(out_110) * np.exp(1j * (np.angle(out_100) + ref_phase))

    offset = static + ref_value

    def total():
        # in place, in the order of drive * gain + (static + ref)
        for block in step_phase_drive(s.drive_amplitude, phase0, phase1,
                                      timing.t_toggle, timing.ramp, timing.dt,
                                      timing.window, fill):
            block *= gains[1]
            block += offset
            yield block
            # the block goes before the next one is made
            del block

    lo, hi = timing.window
    window = diode_detect(total(), hi - lo, timing.dt, lp_cutoff, responsivity)

    rt = rise_time(window)
    v_low = float(np.mean(window.samples[:max(1, int(0.1 * len(window.samples)))]))
    return SwitchingResult(trace=window, t_rise=rt.t_rise,
                           levels=(v_low, rt.v_max))


# bracket of effective paths fit_effective_path searches; the top, which
# spans rise times up to ~34 ns at the reference point, is clamped to the
# longest path the timing's runway carries
FIT_PATH_MIN = 1.0e-5
FIT_PATH_MAX = 4.0e-3


def fit_effective_path(nl: circuit.GateNetlist, target_t_rise: float,
                       enc: logic.PhaseEncoding | None = None,
                       timing: SwitchTiming | None = None,
                       rtol: float = 1e-3, **kwargs) -> float:
    """Effective path length whose switching run hits the target rise time.

    Illinois regula falsi on the monotone, nearly linear residual
    t_rise(length) - target over the bracket [FIT_PATH_MIN, FIT_PATH_MAX],
    its top clamped to the longest path whose transit fill fits the
    timing's runway; raises CalibrationError when the target is not
    bracketed.  Stops once a run lands within rtol/2 of the target or
    the bracket is at most rtol*hi wide, and returns the evaluated length
    closest to the target, so re-running it reproduces that rise time
    exactly.
    """
    timing = timing or SwitchTiming()
    lo, hi = FIT_PATH_MIN, min(FIT_PATH_MAX, _longest_path(nl, timing))
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
    """Longest effective path whose fill time fits the timing's runway:
    the runway times |vg(k_c)|, at most 0 when only the zero path does."""
    return timing.runway * float(nl.carrier.speed[0])


@record
class ScalingRow:
    scale: float
    t_rise: float
    flagged: bool


@record
class ScalingStudy:
    rows: tuple[ScalingRow, ...]
    ramp_floor: float
    slope: float
    intercept: float
    r_squared: float


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
    if not scales:
        raise ValueError("scales must hold at least one value")
    if not all(s > 0 for s in scales):
        raise ValueError("scales must be positive")


def scaling_study(nl: circuit.GateNetlist, scales, effective_path: float,
                  enc: logic.PhaseEncoding | None = None,
                  timing: SwitchTiming | None = None,
                  **kwargs) -> ScalingStudy:
    """Rerun the switching transient with every length scaled down.

    Geometry lengths and the effective transit path shrink together;
    the film and the field do not scale, so every scaled gate reuses the
    netlist's k(f_c) and |v_g| there, solved once per sweep, and
    recomputes only its film gains and antenna shape (see
    GateNetlist.rescaled).  Each scaled gate keeps the netlist's settings
    (its calibrated controls, when it was calibrated) and is calibrated
    again before the run, since the losses change with the lengths.
    Rows that fail (band violation, no transition, a path past the
    timing's runway) are flagged rather than fatal.  The ramp
    floor, the zero-length rise time of the same pipeline, is what every
    row is measured against, so its failure is fatal, as it is to a
    ``switch`` run (at a reference phase of 2.0 both raise
    NoTransitionError).
    """
    scales = [float(s) for s in scales]
    check_scales(scales)
    floor = run_switching(nl, enc=enc, timing=timing, effective_path=0.0,
                          **kwargs).t_rise
    rows = []
    for s in scales:
        try:
            scaled, _ = calibrate(nl.rescaled(s))
            res = run_switching(scaled, enc=enc, timing=timing,
                                effective_path=effective_path * s,
                                **kwargs)
            rows.append(ScalingRow(scale=s, t_rise=res.t_rise, flagged=False))
        except (physics.BandError, CalibrationError, ValueError):
            rows.append(ScalingRow(scale=s, t_rise=math.nan, flagged=True))
    good = [(r.scale, r.t_rise - floor) for r in rows if not r.flagged]
    if len(good) >= 2:
        slope, intercept, r2 = linear_fit([g[0] for g in good],
                                          [g[1] for g in good])
    else:
        slope = intercept = r2 = math.nan
    return ScalingStudy(rows=tuple(rows), ramp_floor=floor, slope=slope,
                        intercept=intercept, r_squared=r2)
