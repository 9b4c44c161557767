import functools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (aligned_phases, detect, drive_window,
                     leveled_attenuation, transit_fill_factor)
from spingate import circuit as ct
from spingate import cli
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate import signal as sig
from spingate._kernels import kernels
from spingate.record import replace

FC = 6.035e9
REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.txt"


def make_ctx(linewidth=6.2e-5):
    film = ph.FilmParams(Ms=0.185 / ph.MU0, d=5.4e-6, mu0_dh0=linewidth)
    return ph.ModeContext(film, ph.BiasField(0.1429))


def build(geo=None, ctx=None, **settings_kwargs):
    geo = geo or ct.DeviceGeometry()
    ctx = ctx or make_ctx()
    return ct.build_majority_gate(geo, ctx, ct.MicrowaveSettings(**settings_kwargs))


def symmetric(**kwargs):
    return build(geo=ct.DeviceGeometry(l_skew=(0.0, 0.0, 0.0)), **kwargs)


def analytic_ramp_rise(t_ramp):
    """Closed-form 1/3 -> 2/3 rise of the raised-cosine phase toggle.

    The detected level is sin^2(phi/2); invert it at both thresholds, then
    invert the raised cosine phi(t) = pi*(1 - cos(pi t/T))/2 at each.
    """
    def t_of_level(level):
        phi = 2.0 * math.asin(math.sqrt(level))
        return math.acos(1.0 - 2.0 * phi / math.pi) / math.pi * t_ramp

    return t_of_level(2.0 / 3.0) - t_of_level(1.0 / 3.0)


@st.composite
def far_gates(draw):
    """A gate anywhere in the float range: attenuators and the bend loss
    log-uniform up to 7000 dB, couplings from -7000 to +200 dB, any
    phases and a scale of 0.05 to 3."""
    loss = st.floats(-3.0, math.log10(7000.0)).map(lambda e: 10.0 ** e)
    coupling = st.floats(-7000.0, 200.0)
    phase = st.floats(-math.pi, math.pi)
    geo = ct.DeviceGeometry(bend_loss_db=draw(loss),
                            scale=draw(st.floats(0.05, 3.0)))
    return build(geo=geo, attenuator_db=draw(st.tuples(loss, loss, loss)),
                 coupling_db=draw(st.tuples(coupling, coupling, coupling)),
                 output_coupling_db=draw(coupling),
                 coupling_phase_rad=draw(st.tuples(phase, phase, phase)),
                 phase_rad=draw(st.tuples(phase, phase, phase)))


class TestCalibrateAmplitudes:
    # calibrate's leveling: its attenuator settings and leveled gains
    def test_symmetric_gate_needs_nothing(self):
        _, res = ex.calibrate(symmetric())
        assert res.attenuator_db == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)

    def test_known_gain_ladder(self):
        # single-channel gains 1 : 0.5 : 0.25 -> 12.04 / 6.02 / 0 dB by hand
        nl = symmetric(coupling_db=(0.0, -6.0205999132796, -12.041199826559))
        _, res = ex.calibrate(nl)
        atten = res.attenuator_db
        assert atten[0] == pytest.approx(12.0412, abs=1e-3)
        assert atten[1] == pytest.approx(6.0206, abs=1e-3)
        assert atten[2] == pytest.approx(0.0, abs=1e-9)
        assert atten == pytest.approx(
            leveled_attenuation(nl.settings.attenuator_db, nl.carrier_gains),
            rel=0.0, abs=1e-12)

    def test_post_calibration_imbalance(self):
        nl = build(coupling_db=(2.0, -1.0, 3.5))
        leveled, _ = ex.calibrate(nl)
        gains = np.abs(leveled.carrier_gains)
        assert gains.max() / gains.min() <= 1.001

    def test_dead_channel_rejected(self):
        # four metres of skew decay the channel below the float64 floor
        nl = build(geo=ct.DeviceGeometry(l_skew=(4.0, 0.0, 6.0e-3)))
        with pytest.raises(ex.CalibrationError, match="no transmission"):
            ex.calibrate(nl)

    @pytest.mark.parametrize("lines, message", [
        # every arm below the float floor behind a +200 dB output coupling:
        # gains 18 dB apart, leveling is not what fails
        ("microwave.coupling_db = -6250, -6250, -6250\n",
         "channel i1 falls below the smallest normal float ahead of its "
         "output coupling"),
        # i1's arm above it, which leveling down to i2 and i3 pushes under
        ("microwave.coupling_db = 200, -6271.5, -6271.5\n"
         "microwave.attenuator_db = 307.5, 0, 0\n",
         "channel gains lie too far apart to level i1")])
    def test_float_floor_refusal_named(self, lines, message):
        nl = cf.validate_config(cf.parse_config(
            REFERENCE.read_text() + "microwave.output_coupling_db = 200\n"
            + lines)).netlist()
        assert min(np.abs(nl.carrier_gains)) >= np.finfo(np.float64).tiny
        with pytest.raises(ex.CalibrationError) as err:
            ex.calibrate(nl)
        assert str(err.value) == message

    def test_returns_copy(self):
        nl = build(coupling_db=(2.0, -1.0, 3.5))
        before = nl.settings
        ex.calibrate(nl)
        assert nl.settings is before
        assert nl.settings.attenuator_db == (0.0, 0.0, 0.0)


class TestCalibratePhases:
    # calibrate's phase setting, made at the leveled gains
    def test_symmetric_gate_zero_offsets(self):
        _, res = ex.calibrate(symmetric())
        assert res.phase_offsets_rad == pytest.approx((0.0, 0.0, 0.0), abs=1e-6)

    @pytest.mark.parametrize("phase_i2", [4.0, -3.5, 0.25])
    def test_offsets_are_the_gates_settings(self, phase_i2):
        # the offsets returned are the calibrated gate's shifter settings,
        # bit for bit: i2's is the one its record reduced, not reduced
        # again (at 4.0 the second reduction moved it by an ulp)
        nl = cf.validate_config(cf.parse_config(
            REFERENCE.read_text()
            + f"microwave.phase_rad = 0, {phase_i2}, 0\n")).netlist()
        aligned, res = ex.calibrate(nl)
        assert (np.array(res.phase_offsets_rad).tobytes()
                == np.array(aligned.settings.phase_rad).tobytes())
        assert res.phase_offsets_rad[1] == nl.settings.phase_rad[1]

    def test_recovers_injected_offsets(self):
        # hardware phases on i1/i3; the shifter must cancel them w.r.t. i2
        nl = symmetric(coupling_phase_rad=(0.7, 0.0, -1.2))
        aligned, res = ex.calibrate(nl)
        gains = aligned.carrier_gains
        for g in gains:
            err = float(np.angle(g / gains[1]))
            assert abs(err) < 1e-12
        # closed-form oracle: the shifter setting is minus the injected phase
        offsets = res.phase_offsets_rad
        assert offsets[0] == pytest.approx(-0.7, abs=1e-12)
        assert offsets[2] == pytest.approx(1.2, abs=1e-12)

    def test_brute_force_scan_oracle(self):
        nl = symmetric(coupling_phase_rad=(2.1, 0.0, 0.4))
        _, res = ex.calibrate(nl)
        gains = nl.carrier_gains_at(res.attenuator_db)
        theta = np.linspace(-math.pi, math.pi, 2_000_001)
        for idx in (0, 2):
            objective = np.abs(gains[1] + gains[idx] * np.exp(1j * theta))
            best = theta[int(np.argmax(objective))]
            assert abs(float(sig.wrap_phase(res.phase_offsets_rad[idx]
                                            - best))) < 1e-3

    def test_maximize_minimize_differ_by_pi(self):
        nl = symmetric(coupling_phase_rad=(0.9, 0.0, 0.0))
        _, res = ex.calibrate(nl)
        gains = nl.carrier_gains_at(res.attenuator_db)
        offset = res.phase_offsets_rad[0]

        def two_channel(theta):
            return abs(gains[1] + gains[0] * np.exp(1j * theta))

        assert two_channel(offset) == pytest.approx(
            2.0 * abs(gains[1]), rel=1e-6)
        assert two_channel(offset + math.pi) == pytest.approx(0.0, abs=1e-6)


class TestCalibrate:
    def test_idempotent(self):
        nl = build(coupling_db=(2.0, -1.0, 3.5),
                   coupling_phase_rad=(0.7, -0.1, 2.2))
        once, res1 = ex.calibrate(nl)
        twice, res2 = ex.calibrate(once)
        for a, b in zip(res1.attenuator_db, res2.attenuator_db):
            assert abs(a - b) < 1e-6
        for a, b in zip(res1.phase_offsets_rad, res2.phase_offsets_rad):
            assert abs(float(sig.wrap_phase(a - b))) < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(coupling_db=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
           coupling_rad=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
           atten_db=st.tuples(*[st.floats(0.0, 10.0)] * 3),
           phase_rad=st.tuples(*[st.floats(-math.pi, math.pi)] * 3))
    def test_idempotent_property(self, coupling_db, coupling_rad, atten_db,
                                 phase_rad):
        # a calibrated gate recalibrates onto its own settings and gains
        nl = build(coupling_db=coupling_db, coupling_phase_rad=coupling_rad,
                   attenuator_db=atten_db, phase_rad=phase_rad)
        once, res1 = ex.calibrate(nl)
        twice, res2 = ex.calibrate(once)
        np.testing.assert_allclose(res2.attenuator_db, res1.attenuator_db,
                                   rtol=0.0, atol=1e-6)
        moved = sig.wrap_phase(np.subtract(res2.phase_offsets_rad,
                                           res1.phase_offsets_rad))
        assert np.all(np.abs(moved) <= 1e-14)
        assert res1.residual_phase_error <= 1e-14
        assert res2.residual_phase_error <= 1e-14
        np.testing.assert_allclose(twice.carrier_gains, once.carrier_gains,
                                   rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(outer=st.tuples(*[st.floats(-1e300, 1e300)] * 2))
    @example(outer=(1e17, 0.0))
    def test_far_phase_setting_calibrates(self, outer):
        # an outer phase setting far outside (-pi, pi] is stored as its
        # phasor's angle, so the shifter the calibration adds to it holds
        nl = build(coupling_db=(2.0, -1.0, 3.5),
                   coupling_phase_rad=(0.7, -0.1, 2.2),
                   phase_rad=(outer[0], 0.0, outer[1]))
        _, res = ex.calibrate(nl)
        assert res.residual_phase_error <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(coupling_db=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
           coupling_rad=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
           atten_db=st.tuples(*[st.floats(0.0, 10.0)] * 3),
           phase_rad=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
           orientation=st.sampled_from(list(ph.Orientation)),
           scale=st.floats(0.05, 3.0))
    def test_one_copy_takes_the_closed_forms(self, coupling_db, coupling_rad,
                                            atten_db, phase_rad, orientation,
                                            scale):
        # the settings are the closed-form leveling of the netlist's gains
        # and the closed-form alignment at the leveled ones; the gate
        # returned is the netlist's with_controls copy of them (i2's
        # shifter as set), bit for bit, with the residuals taken as numpy
        # reductions over its gains
        ctx = ph.ModeContext(make_ctx().film, ph.BiasField(0.1429, orientation))
        f_c = FC if orientation is ph.Orientation.PARALLEL else 6.14e9
        nl = build(geo=ct.DeviceGeometry(scale=scale), ctx=ctx, f_c=f_c,
                   coupling_db=coupling_db, coupling_phase_rad=coupling_rad,
                   attenuator_db=atten_db, phase_rad=phase_rad)
        aligned, res = ex.calibrate(nl)
        np.testing.assert_allclose(
            res.attenuator_db,
            leveled_attenuation(nl.settings.attenuator_db, nl.carrier_gains),
            rtol=1e-13, atol=1e-12)
        want = aligned_phases(nl.settings.phase_rad,
                              nl.carrier_gains_at(res.attenuator_db))
        moved = sig.wrap_phase(np.subtract(res.phase_offsets_rad, want))
        assert np.all(np.abs(moved) <= 1e-12)
        offsets = res.phase_offsets_rad
        copy = nl.with_controls(
            attenuator_db=res.attenuator_db,
            phase_rad=(offsets[0], nl.settings.phase_rad[1], offsets[2]))
        assert aligned.settings == copy.settings
        assert (np.array(offsets).tobytes()
                == np.array(aligned.settings.phase_rad).tobytes())
        assert aligned.carrier_gains.tobytes() == copy.carrier_gains.tobytes()
        gains = copy.carrier_gains
        mags = np.abs(gains)
        ref = np.angle(gains[1])
        assert res.residual_amplitude_imbalance == float(mags.max() / mags.min())
        assert res.residual_phase_error == float(
            max(abs(sig.wrap_phase(np.angle(g) - ref)) for g in gains))

    @settings(max_examples=200, deadline=None)
    @given(nl=far_gates())
    @example(nl=cf.validate_config(cf.parse_config(
        REFERENCE.read_text()
        + "microwave.output_coupling_db = 200\n"
        + "microwave.coupling_db = 200, -6271.5, -6271.5\n"
        + "microwave.attenuator_db = 307.5, 0, 0\n")).netlist())
    @example(nl=build(geo=ct.DeviceGeometry(scale=0.05),
                      attenuator_db=(5.0, 0.0, 0.3),
                      coupling_db=(-6320.0, -6320.0, -6320.1),
                      coupling_phase_rad=(0.3, 1.1, -2.0),
                      output_coupling_db=200.0))
    def test_levels_or_refuses(self, nl):
        # at the float range's floor a gate is refused or leveled and
        # aligned to rounding.  The first example's i1 would take a
        # subnormal attenuator factor, which its +200 dB couplings scale
        # back up (imbalance 2.63 where it was leveled); in the second,
        # every arm is subnormal after its coupling, which the output
        # coupling scales back up into normal gains (imbalance - 1 8e-8
        # and a phase error of 2e-7 where attenuator factors alone were
        # held to the normal range)
        try:
            _, res = ex.calibrate(nl)
        except (ex.CalibrationError, ph.BandError):
            return
        assert res.residual_amplitude_imbalance - 1.0 <= 1e-9
        assert res.residual_phase_error <= 1e-12

    @pytest.mark.parametrize("orientation, f_c", [
        (ph.Orientation.PARALLEL, 1.0e9), (ph.Orientation.PARALLEL, 6.3e9),
        (ph.Orientation.PERPENDICULAR, 6.0e9),
        (ph.Orientation.PERPENDICULAR, 9.0e9)])
    def test_carrier_outside_the_band_named(self, orientation, f_c):
        # no channel propagates: the error names the carrier and the band
        # as physics.solve_k does, not the first channel
        ctx = ph.ModeContext(make_ctx().film, ph.BiasField(0.1429, orientation))
        nl = build(ctx=ctx, f_c=f_c)
        with pytest.raises(ph.BandError) as raised:
            ph.solve_k(ctx, f_c)
        with pytest.raises(ph.BandError) as err:
            ex.calibrate(nl)
        assert str(err.value) == str(raised.value)

    def test_residuals(self):
        nl = build(coupling_db=(2.0, -1.0, 3.5),
                   coupling_phase_rad=(0.7, -0.1, 2.2))
        _, res = ex.calibrate(nl)
        assert 1.0 <= res.residual_amplitude_imbalance <= 1.001
        assert res.residual_phase_error <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_perturbed_gate_decodes_after_calibration(self, seed):
        # spec-level robustness: +-6 dB and +-pi per channel
        rng = np.random.default_rng(seed)
        nl = build(coupling_db=tuple(rng.uniform(-6, 6, 3)),
                   coupling_phase_rad=tuple(rng.uniform(-math.pi, math.pi, 3)))
        calibrated, _ = ex.calibrate(nl)
        report = lg.truth_table(calibrated)
        assert report.matches_majority
        assert all(r.margin > math.pi / 4 for r in report.rows)


def test_calibration_and_switching_solve_the_carrier_once(monkeypatch):
    # one k(f_c) solve and one |v_g(k_c)| serve the calibration's edited
    # copies, the switching run's transit fill time and the path fit; the
    # three film gains at the carrier are one kernel call, and the carrier
    # gains never go through channel_transfer
    nl = build()
    calls = []
    for name in ("solve_k", "group_velocity", "waveguide_gain"):
        kernel = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args, kernel=kernel:
                            calls.append(kernel.__name__) or kernel(*args))
    transfer = ct.channel_transfer
    monkeypatch.setattr(ct, "channel_transfer", lambda *args: calls.append(
        "channel_transfer") or transfer(*args))
    cal, _ = ex.calibrate(nl)
    assert calls == ["solve_k", "group_velocity", "waveguide_gain"]
    ex.run_switching(cal, effective_path=1.3e-3)
    ex.fit_effective_path(cal, 11.3e-9)
    assert calls == ["solve_k", "group_velocity", "waveguide_gain"]
    # the film and the field do not scale: one solve serves a sweep's
    # floor run and every row, each row's three films one kernel call
    calls.clear()
    scales = [1.0, 0.5, 0.2, 0.1, 0.05]
    study = ex.scaling_study(build(), scales, 1.3487e-3)
    assert not any(r.flagged for r in study.rows)
    assert calls == (["solve_k", "group_velocity"]
                     + ["waveguide_gain"] * (1 + len(scales)))


def test_scaling_study_needs_a_scale():
    with pytest.raises(ValueError, match="^scales must hold at least one"):
        ex.scaling_study(build(), [], 1.3487e-3)


class TestTransitFill:
    # the fill time of a path is its group delay at the carrier, the path
    # over the carrier record's speed
    def test_zero_length_unity(self):
        fill = 0.0 / build().carrier.speed[0]
        assert fill == 0.0
        tf = transit_fill_factor(fill, FC)
        f = np.linspace(5.0e9, 7.0e9, 7)
        np.testing.assert_array_equal(tf(f), np.ones(7, dtype=complex))

    def test_unit_gain_at_carrier(self):
        fill = 1.5e-3 / build().carrier.speed[0]
        tf = transit_fill_factor(fill, FC)
        assert tf(np.array([FC]))[0] == pytest.approx(1.0)

    def test_fill_time_from_group_velocity(self):
        # the carrier record's speed is |v_g| at the solved carrier k
        ctx = make_ctx()
        length = 2.0e-3
        k = ph.solve_k(ctx, FC)
        fill = length / abs(ph.group_velocity(ctx, k))
        speed = build(ctx=ctx).carrier.speed[0]
        assert length / speed == pytest.approx(fill, rel=1e-15)
        tf = transit_fill_factor(fill, FC)
        # first sinc null at offset 1/fill
        assert abs(tf(np.array([FC + 1.0 / fill]))[0]) < 1e-9


class TestSwitchTiming:
    def test_rejects_bad_timing(self):
        # a ramp longer than the record, a toggle past its end, the other
        # ranges, and a grid too fine or too coarse for the analysis
        # window: each message starts with the field it names
        cases = [({"ramp": 300e-9, "duration": 200e-9}, "ramp"),
                 ({"t_toggle": 250e-9, "duration": 200e-9}, "t_toggle"),
                 ({"t_toggle": 0.0}, "t_toggle"), ({"dt": 0.0}, "dt"),
                 ({"duration": 1e-10}, "duration"), ({"ramp": 0.0}, "ramp"),
                 ({"dt": 1e-16}, "dt"), ({"dt": 1e-300}, "dt"),
                 ({"dt": 2.5e-13, "duration": 8.192e-7}, "dt"),
                 ({"dt": 2e-7}, "dt"), ({"dt": math.nan}, "dt")]
        for kwargs, name in cases:
            with pytest.raises(ValueError, match=f"^{name} "):
                ex.SwitchTiming(**kwargs)
        # a window of WINDOW_LEAD + WINDOW_TAIL = 280 ns holds 1.12e6
        # samples at 0.25 ps (above) and 1.04e6 <= 2^20 at 0.27 ps
        fine = ex.SwitchTiming(dt=2.7e-13, duration=8.192e-7)
        assert fine.window == (592593, 1629630)

    def test_window_and_plateau(self):
        # the window closes at the record's end on the defaults and
        # WINDOW_TAIL after the toggle in a longer record; the plateau is
        # its trailing quarter
        assert ex.SwitchTiming().window == (1600, 4096)
        assert ex.SwitchTiming().plateau == pytest.approx(347.2e-9)
        longer = ex.SwitchTiming(duration=8.192e-7)
        assert longer.window == (1600, 4400)
        assert longer.plateau == pytest.approx(370e-9)
        # toggle and ramp end at 202 ns: 168 ns of fill reach the plateau
        assert longer.runway == pytest.approx(168e-9)


@functools.cache
def branch_gate(orientation, f_c):
    """The calibrated reference gate on the given branch and carrier."""
    cfg = cf.RunConfig()
    cfg = replace(cfg, field=replace(cfg.field, orientation=orientation),
                  microwave=replace(cfg.microwave, f_c_hz=f_c))
    return ex.calibrate(cf.build_netlist(cfg))[0]


@st.composite
def switch_timings(draw):
    """A valid SwitchTiming at the default dt: a record of 20 ns to 1 us,
    the toggle anywhere inside it and a ramp of up to its rest."""
    duration = draw(st.floats(2.0e-8, 1.0e-6))
    t_toggle = duration * draw(st.floats(0.01, 0.99))
    ramp = (duration - t_toggle) * draw(st.floats(1.0e-3, 1.0))
    return ex.SwitchTiming(duration=duration, t_toggle=t_toggle, ramp=ramp)


class TestRunSwitching:
    def test_rejects_negative_responsivity(self, calibrated):
        # used to fail inside DetectedTrace: "detected trace must be
        # nonnegative"
        with pytest.raises(ValueError, match="^responsivity must lie in"):
            ex.run_switching(calibrated, responsivity=-1.0)

    def test_rejects_negative_effective_path(self, calibrated):
        # used to run and echo the path back as -0.001
        with pytest.raises(ValueError, match="^effective_path must be"):
            ex.run_switching(calibrated, effective_path=-1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ref_phase(self, calibrated, value):
        with pytest.raises(ValueError, match="^ref_phase must be finite"):
            ex.run_switching(calibrated, ref_phase=value)

    def test_detects_through_the_module_binding(self, calibrated,
                                                monkeypatch):
        # run_switching calls the detector by its name in this module, the
        # binding perfbench/tracer.py replaces to time it: once per run
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sig.diode_detect(*args, **kwargs)

        monkeypatch.setattr(ex, "diode_detect", counting)
        for path in (0.0, 1.3e-3):
            ex.run_switching(calibrated, effective_path=path)
        assert len(calls) == 2

    def test_subnormal_ramp_is_a_step(self, calibrated):
        # the drive's ramp variable overflows to +-inf at a 5e-324 ramp,
        # which the clip takes to its end without a warning; every sample
        # then sits at one end, as at a 1e-300 ramp
        runs = [ex.run_switching(calibrated, timing=ex.SwitchTiming(ramp=ramp),
                                 effective_path=0.0)
                for ramp in (5e-324, 1e-300)]
        assert runs[0].trace.samples.tobytes() == runs[1].trace.samples.tobytes()
        assert math.isfinite(runs[0].t_rise)

    def test_rise_time_independent_of_responsivity(self, calibrated):
        # the model is linear in the responsivity; a settled level below
        # the smallest normal float is refused, where at 1e-318 it read a
        # rise time 18% off
        path = 1.34872e-3
        ref = ex.run_switching(calibrated, effective_path=path)
        low = ex.run_switching(calibrated, effective_path=path,
                               responsivity=1e-300)
        assert low.t_rise == pytest.approx(ref.t_rise, rel=1e-12)
        with pytest.raises(sig.NoTransitionError, match="smallest normal"):
            ex.run_switching(calibrated, effective_path=path,
                             responsivity=1e-318)

    def test_zero_length_ramp_floor(self):
        # lossless zero-length device: the switch ramp alone sets the rise
        nl = symmetric()
        nl, _ = ex.calibrate(nl)
        res = ex.run_switching(nl, effective_path=0.0, lp_cutoff=None)
        expect = analytic_ramp_rise(ex.SwitchTiming().ramp)
        assert res.t_rise == pytest.approx(expect, abs=1.0e-10)

    def test_reference_contrast(self):
        nl = symmetric()
        nl, _ = ex.calibrate(nl)
        res = ex.run_switching(nl, effective_path=0.0)
        v_low, v_max = res.levels
        assert v_low <= 1e-12 * v_max
        # equal-amplitude reference doubles the field: |2 out|^2
        out = abs(sum(nl.carrier_gains * np.exp(1j * np.array([math.pi, 0, 0]))))
        assert v_max == pytest.approx((2 * out) ** 2, rel=1e-2)

    def test_fitted_path_hits_measured_transition(self):
        nl = build()
        nl, _ = ex.calibrate(nl)
        length = ex.fit_effective_path(nl, 11.3e-9)
        res = ex.run_switching(nl, effective_path=length)
        assert res.t_rise == pytest.approx(11.3e-9, rel=0.01)
        assert 1.0 / res.t_rise == pytest.approx(88.5e6, rel=0.01)

    def test_monotone_in_path_length(self):
        nl = symmetric()
        nl, _ = ex.calibrate(nl)
        lengths = [0.0, 3.0e-4, 7.0e-4, 1.35e-3, 2.7e-3]
        rises = [ex.run_switching(nl, effective_path=L).t_rise for L in lengths]
        assert all(b >= a for a, b in zip(rises, rises[1:]))

    def test_fill_longer_than_runway_raises(self):
        # 6 mm fills in 210 ns, longer than the 160 ns before the window:
        # the causal average cannot wrap, but the transition then ends
        # inside the plateau from 347.2 ns that sets the settled level
        nl = symmetric()
        nl, _ = ex.calibrate(nl)
        timing = ex.SwitchTiming()
        speed = nl.carrier.speed[0]
        assert 6.0e-3 / speed > timing.t_toggle - ex.WINDOW_LEAD
        with pytest.raises(ex.RunwayError, match=r"3\.472e-07 s of the plateau"):
            ex.run_switching(nl, timing=timing, effective_path=6.0e-3)
        # the window closes WINDOW_TAIL after the toggle: a later toggle in
        # a longer record has a runway of 168 ns, still short of 6 mm ...
        later = ex.SwitchTiming(duration=8.192e-7, t_toggle=3.0e-7)
        with pytest.raises(ex.RunwayError, match=r"4\.7e-07 s of the plateau"):
            ex.run_switching(nl, timing=later, effective_path=6.0e-3)
        # ... but enough for the 165 ns of 4.7 mm
        slow = ex.run_switching(nl, timing=later, effective_path=4.7e-3)
        fast = ex.run_switching(nl, timing=later, effective_path=3.0e-3)
        assert slow.t_rise > 1.5 * fast.t_rise

    def test_transition_into_plateau_raises(self):
        # at the reference point 4.4 mm fills in 154 ns: toggle, ramp and
        # fill end at 356 ns, inside the plateau from 347.2 ns that sets
        # v_max, although the fill fits the 160 ns runway
        nl, _ = ex.calibrate(cf.build_netlist(cf.RunConfig()))
        with pytest.raises(ex.RunwayError, match=r"3\.561e-07 s.*3\.472e-07 s.*plateau"):
            ex.run_switching(nl, effective_path=4.4e-3)
        # 4.0 mm ends at 342 ns and reads what a record reads whose
        # window runs on to WINDOW_TAIL after the toggle
        longer = ex.SwitchTiming(duration=8.192e-7)
        res = ex.run_switching(nl, effective_path=4.0e-3)
        ref = ex.run_switching(nl, effective_path=4.0e-3, timing=longer)
        assert res.t_rise == pytest.approx(ref.t_rise, rel=1e-7)

    def test_fit_bracket_clamped_to_timing(self):
        # at 5.9 GHz the default 4 mm bracket end fills in 153 ns, into the
        # plateau; the fit searches below the longest path that passes
        cfg = cf.RunConfig()
        cfg = replace(cfg, microwave=replace(cfg.microwave, f_c_hz=5.9e9))
        nl, _ = ex.calibrate(cf.build_netlist(cfg))
        with pytest.raises(ex.RunwayError, match="plateau"):
            ex.run_switching(nl, effective_path=4.0e-3)
        length = ex.fit_effective_path(nl, 34.0e-9)
        assert length < 4.0e-3
        res = ex.run_switching(nl, effective_path=length)
        assert res.t_rise == pytest.approx(34.0e-9, rel=1e-3)
        # a record so short that the plateau of its window (160-210 ns)
        # starts before the ramp ends leaves no path to search
        short = ex.SwitchTiming(duration=2.1e-7)
        with pytest.raises(ex.CalibrationError, match="fits the switching timing"):
            ex.fit_effective_path(nl, 11.3e-9, timing=short)

    @pytest.mark.parametrize("orientation, f_c", [("parallel", 6.035e9),
                                                  ("perpendicular", 6.14e9)])
    @pytest.mark.parametrize("duration", [4.096e-7, 3.2e-7])
    def test_run_and_fit_share_the_runway(self, orientation, f_c, duration):
        # the longest path the fit may search runs, and the next float
        # above it is refused: both procedures read the one bound,
        # SwitchTiming.runway times |vg(k_c)|
        nl = branch_gate(orientation, f_c)
        timing = ex.SwitchTiming(duration=duration)
        path = ex._longest_path(nl, timing)
        assert path > 0.0
        res = ex.run_switching(nl, timing=timing, effective_path=path)
        assert math.isfinite(res.t_rise)
        with pytest.raises(ex.RunwayError, match="plateau"):
            ex.run_switching(nl, timing=timing,
                             effective_path=math.nextafter(path, math.inf))

    @pytest.mark.parametrize("orientation, f_c", [("parallel", 6.035e9),
                                                  ("perpendicular", 6.14e9)])
    @settings(max_examples=30, deadline=None)
    @given(timing=switch_timings())
    def test_any_timing_shares_the_runway(self, orientation, f_c, timing):
        # the same bound holds for a drawn record length, toggle and ramp
        nl = branch_gate(orientation, f_c)
        path = ex._longest_path(nl, timing)
        assume(path > 0.0)
        res = ex.run_switching(nl, timing=timing, effective_path=path)
        assert math.isfinite(res.t_rise)
        with pytest.raises(ex.RunwayError, match="plateau"):
            ex.run_switching(nl, timing=timing,
                             effective_path=math.nextafter(path, math.inf))

    @pytest.mark.parametrize("path", [0.0, 1.3e-3])
    def test_fine_window_peaks_below_1_3_window_arrays(self, calibrated, path):
        # each drive block is offset, squared and scaled into one real
        # array as it is made, and the power is low-passed in place: on a
        # 79,872-sample window the call's tracemalloc peak is that array
        # (half a complex window array), the ramp table and one block's
        # temporaries made in place, 0.68 complex window arrays without a
        # fill and 0.73 with one; blocks of 8192 samples with a temporary
        # per operation took it to 1.02 and 1.21, and the drive and the
        # envelope's copy of it to 2.07
        timing = ex.SwitchTiming(dt=3.125e-12)
        lo, hi = timing.window
        assert hi - lo == 79872
        ex.run_switching(calibrated, timing=timing, effective_path=path)
        tracemalloc.start()
        try:
            ex.run_switching(calibrated, timing=timing, effective_path=path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * np.dtype(np.complex128).itemsize * (hi - lo)

    def test_long_ramp_peaks_at_the_window_and_the_ramp_table(self, calibrated):
        # a 50 ns ramp at 1 ps holds 400,001 trapezoid nodes, more than
        # the 249,600-sample window: the table is built a block at a time
        # into its two arrays (the nodes, and the complex integral, two
        # float arrays of them), so the call peaks at the real window array
        # and 3.06 float arrays of the nodes (11.8 MB), where the table's
        # node-long temporaries took it to 8.0 (27.6 MB)
        timing = ex.SwitchTiming(dt=1e-12, ramp=5e-8)
        lo, hi = timing.window
        nodes = sig._RAMP_NODES_PER_SAMPLE * math.ceil(timing.ramp / timing.dt) + 1
        assert (hi - lo, nodes) == (249600, 400001)
        ex.run_switching(calibrated, timing=timing, effective_path=1.3e-3)
        tracemalloc.start()
        try:
            ex.run_switching(calibrated, timing=timing, effective_path=1.3e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (hi - lo) + 3.5 * 8 * nodes

    # windows of 2 to 40,000 samples (2, one short of, at and one past a
    # drive block, and several blocks) on SwitchTiming's default record,
    # whose window spans 2.496e-7 s
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40000), path_share=st.sampled_from([0.0, 0.4, 0.95]),
           lp_share=st.one_of(st.none(), st.floats(0.01, 0.99)),
           responsivity=st.floats(0.25, 4.0))
    @example(n=2, path_share=0.0, lp_share=None, responsivity=1.0)
    @example(n=2, path_share=0.95, lp_share=0.5, responsivity=2.5)
    @example(n=8191, path_share=0.4, lp_share=0.3, responsivity=0.5)
    @example(n=8192, path_share=0.0, lp_share=0.02, responsivity=3.0)
    @example(n=8193, path_share=0.95, lp_share=None, responsivity=0.7)
    @example(n=3 * 8192 + 1908, path_share=0.4, lp_share=0.01,
             responsivity=1.5)
    def test_matches_the_composed_pipeline(self, calibrated, n, path_share,
                                           lp_share, responsivity):
        # run_switching streams the drive through the detector block by
        # block; its trace, rise time and levels are those of the whole
        # window built, offset, wrapped and detected, bit for bit
        timing = ex.SwitchTiming(dt=2.496e-7 / n)
        lo, hi = timing.window
        assume(hi - lo >= 2)
        path = path_share * max(0.0, ex._longest_path(calibrated, timing))
        lp_cutoff = None if lp_share is None else lp_share * 0.5 / timing.dt
        kwargs = dict(timing=timing, effective_path=path, lp_cutoff=lp_cutoff,
                      responsivity=responsivity)
        trace = composed_switching(calibrated, **kwargs)
        try:
            rt = sig.rise_time(trace)
        except sig.NoTransitionError as err:
            with pytest.raises(sig.NoTransitionError, match=re.escape(str(err))):
                ex.run_switching(calibrated, **kwargs)
            return
        res = ex.run_switching(calibrated, **kwargs)
        assert res.trace.samples.tobytes() == trace.samples.tobytes()
        assert res.t_rise == rt.t_rise
        v_low = float(np.mean(trace.samples[:max(1, int(0.1 * len(trace)))]))
        assert res.levels == (v_low, rt.v_max)

    def test_window_independent_of_record_before_it(self):
        # the causal average holds the pre-toggle drive before the record
        # begins, so a longer lead-in changes nothing in the window
        nl, _ = ex.calibrate(cf.build_netlist(cf.RunConfig()))
        base = ex.SwitchTiming()
        for lead in (0.0, 64 * base.dt, 1024 * base.dt):
            timing = ex.SwitchTiming(t_toggle=base.t_toggle + lead,
                                     duration=base.duration + lead)
            for path in (1.34872e-3, 3.9e-3):
                a = ex.run_switching(nl, effective_path=path)
                b = ex.run_switching(nl, timing=timing, effective_path=path)
                np.testing.assert_allclose(
                    b.trace.samples, a.trace.samples, rtol=1e-12,
                    atol=1e-12 * a.trace.samples.max())
                assert b.t_rise == pytest.approx(a.t_rise, rel=1e-12)


def composed_switching(nl, timing, effective_path, lp_cutoff, responsivity,
                       enc=lg.PhaseEncoding(), ref_phase=math.pi):
    """The detected trace of run_switching, composed from whole-window
    arrays: the i2 drive window times the i2 gain, plus the steady i1
    and i3 outputs and the reference, as an envelope, diode-detected."""
    s = nl.settings
    gains = nl.carrier_gains
    phase0, phase1 = lg.encode(0, enc), lg.encode(1, enc)
    drive = drive_window(
        s.drive_amplitude, phase0, phase1, timing.t_toggle, timing.ramp,
        timing.dt, timing.window,
        fill=effective_path / float(nl.carrier.speed[0]))
    steady = s.drive_amplitude * np.exp(1j * np.array([phase1, phase0])) * gains[[0, 2]]
    static = complex(steady.sum())
    out_100 = static + s.drive_amplitude * np.exp(1j * phase0) * gains[1]
    out_110 = static + s.drive_amplitude * np.exp(1j * phase1) * gains[1]
    ref_value = abs(out_110) * np.exp(1j * (np.angle(out_100) + ref_phase))
    env = sig.ComplexEnvelope(s.f_c, timing.dt,
                              drive * gains[1] + (static + ref_value))
    return detect(env, lp_cutoff=lp_cutoff, responsivity=responsivity)


@pytest.fixture(scope="module")
def calibrated():
    nl = build()
    return ex.calibrate(nl)[0]


class TestScaling:
    def test_baseline_row_matches_plain_run(self, calibrated):
        length = 1.3487e-3
        study = ex.scaling_study(calibrated, [1.0], length)
        direct = ex.run_switching(calibrated, effective_path=length)
        assert study.rows[0].t_rise == pytest.approx(direct.t_rise, rel=1e-6)

    def test_five_scale_sweep(self, calibrated):
        length = 1.3487e-3
        study = ex.scaling_study(calibrated, [1.0, 0.5, 0.2, 0.1, 0.05], length)
        assert not any(r.flagged for r in study.rows)
        assert study.r_squared > 0.99
        shrunk = study.rows[-1]
        assert shrunk.t_rise - study.ramp_floor < 1.0e-9
        rises = [r.t_rise for r in study.rows]
        assert rises == sorted(rises, reverse=True)

    def test_rows_independent_of_starting_controls(self, calibrated):
        # each scaled gate is calibrated from the settings it starts with;
        # the level it ends at cancels in the 1/3 -> 2/3 rise time
        raw = build()
        assert raw.settings != calibrated.settings
        scales = [1.0, 0.2]
        a = ex.scaling_study(calibrated, scales, 1.3487e-3)
        b = ex.scaling_study(raw, scales, 1.3487e-3)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.t_rise == pytest.approx(rb.t_rise, rel=1e-12)

    def test_runway_violation_flags_row(self, calibrated):
        # x5 turns the 1.35 mm path into a fill that ends the transition
        # inside the plateau
        study = ex.scaling_study(calibrated, [1.0, 5.0, 0.5], 1.3487e-3)
        assert [r.flagged for r in study.rows] == [False, True, False]
        assert math.isnan(study.rows[1].t_rise)
        assert math.isfinite(study.slope)

    def test_lossless_group_delay_linearity(self):
        # group-delay oracle: rise minus floor tracks a line in scale to 5%
        nl = build(ctx=make_ctx(linewidth=0.0))
        nl, _ = ex.calibrate(nl)
        scales = [1.0, 0.5, 0.2, 0.1]
        study = ex.scaling_study(nl, scales, 1.3487e-3)
        y = np.array([r.t_rise - study.ramp_floor for r in study.rows])
        pred = study.slope * np.array(scales) + study.intercept
        assert np.abs(y / pred - 1.0).max() < 0.05

    def test_csv(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("scaling.scales = 1,0.5\n")
        assert cli.main(["scale", "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scaling.csv").read_text().strip().split("\n")
        assert lines[0] == "scale,t_rise_s,f_clock_hz,flagged"
        assert len(lines) == 3


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, r2 = ex.linear_fit([0, 1, 2], [1.0, 3.0, 5.0])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_scatter_reduces_r2(self):
        r2 = ex.linear_fit([0, 1, 2, 3], [0.0, 1.0, 0.0, 1.0])[2]
        assert r2 < 0.9
