import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import transit_fill_factor
from spingate import circuit as ct
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate import signal as sig
from spingate._kernels import kernels

FC = 6.035e9


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


class TestCalibrateAmplitudes:
    def test_symmetric_gate_needs_nothing(self):
        nl, atten = ex.calibrate_amplitudes(symmetric())
        assert atten == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)

    def test_known_gain_ladder(self):
        # single-channel gains 1 : 0.5 : 0.25 -> 12.04 / 6.02 / 0 dB by hand
        nl = symmetric(coupling_db=(0.0, -6.0205999132796, -12.041199826559))
        _, atten = ex.calibrate_amplitudes(nl)
        assert atten[0] == pytest.approx(12.0412, abs=1e-3)
        assert atten[1] == pytest.approx(6.0206, abs=1e-3)
        assert atten[2] == pytest.approx(0.0, abs=1e-9)

    def test_post_calibration_imbalance(self):
        nl = build(coupling_db=(2.0, -1.0, 3.5))
        leveled, _ = ex.calibrate_amplitudes(nl)
        gains = np.abs([ct.channel_transfer(leveled, c, FC)
                        for c in ct.CHANNELS])
        assert gains.max() / gains.min() <= 1.001

    def test_dead_channel_rejected(self):
        # four metres of skew decay the channel below the float64 floor
        nl = build(geo=ct.DeviceGeometry(l_skew=(4.0, 0.0, 6.0e-3)))
        with pytest.raises(ex.CalibrationError, match="no transmission"):
            ex.calibrate_amplitudes(nl)

    def test_returns_copy(self):
        nl = build(coupling_db=(2.0, -1.0, 3.5))
        before = nl.settings
        ex.calibrate_amplitudes(nl)
        assert nl.settings is before
        assert nl.settings.attenuator_db == (0.0, 0.0, 0.0)


class TestCalibratePhases:
    def test_symmetric_gate_zero_offsets(self):
        leveled, _ = ex.calibrate_amplitudes(symmetric())
        _, offsets = ex.calibrate_phases(leveled)
        assert offsets == pytest.approx((0.0, 0.0, 0.0), abs=1e-6)

    def test_recovers_injected_offsets(self):
        # hardware phases on i1/i3; the shifter must cancel them w.r.t. i2
        nl = symmetric(coupling_phase_rad=(0.7, 0.0, -1.2))
        leveled, _ = ex.calibrate_amplitudes(nl)
        aligned, offsets = ex.calibrate_phases(leveled)
        gains = [ct.channel_transfer(aligned, c, FC) for c in ct.CHANNELS]
        for g in gains:
            err = float(np.angle(g / gains[1]))
            assert abs(err) < 1e-12
        # closed-form oracle: the shifter setting is minus the injected phase
        assert offsets[0] == pytest.approx(-0.7, abs=1e-12)
        assert offsets[2] == pytest.approx(1.2, abs=1e-12)

    def test_brute_force_scan_oracle(self):
        nl = symmetric(coupling_phase_rad=(2.1, 0.0, 0.4))
        leveled, _ = ex.calibrate_amplitudes(nl)
        _, offsets = ex.calibrate_phases(leveled)
        gains = [ct.channel_transfer(leveled, c, FC) for c in ct.CHANNELS]
        theta = np.linspace(-math.pi, math.pi, 2_000_001)
        for idx in (0, 2):
            objective = np.abs(gains[1] + gains[idx] * np.exp(1j * theta))
            best = theta[int(np.argmax(objective))]
            assert abs(float(sig.wrap_phase(offsets[idx] - best))) < 1e-3

    def test_maximize_minimize_differ_by_pi(self):
        nl = symmetric(coupling_phase_rad=(0.9, 0.0, 0.0))
        leveled, _ = ex.calibrate_amplitudes(nl)
        _, offsets = ex.calibrate_phases(leveled)
        gains = [ct.channel_transfer(leveled, c, FC) for c in ct.CHANNELS]

        def two_channel(theta):
            return abs(gains[1] + gains[0] * np.exp(1j * theta))

        assert two_channel(offsets[0]) == pytest.approx(
            2.0 * abs(gains[1]), rel=1e-6)
        assert two_channel(offsets[0] + math.pi) == pytest.approx(0.0, abs=1e-6)

    def test_flat_objective_rejected(self):
        # kill one channel: turning a shifter against it, or against a
        # dead reference i2, changes nothing; the dead channel is named
        for dead_ch in ct.CHANNELS:
            coupling = tuple(-2000.0 if ch == dead_ch else 0.0
                             for ch in ct.CHANNELS)
            dead = symmetric(drive_amplitude=1.0, coupling_db=coupling)
            with pytest.raises(ex.CalibrationError,
                               match=f"flat calibration objective on {dead_ch}"):
                ex.calibrate_phases(dead)


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
    # one k(f_c) solve serves the calibration's edited copies and the
    # switching run's transit fill time
    nl = build()
    calls = []
    solve = kernels.solve_k
    monkeypatch.setattr(kernels, "solve_k",
                        lambda *args: calls.append(args) or solve(*args))
    cal, _ = ex.calibrate(nl)
    assert len(calls) == 1
    ex.run_switching(cal, effective_path=1.3e-3)
    assert len(calls) == 1


class TestTransitFill:
    def test_zero_length_unity(self):
        ctx = make_ctx()
        fill = ex.transit_fill_time(ctx, 0.0, ph.solve_k(ctx, FC))
        tf = transit_fill_factor(fill, FC)
        f = np.linspace(5.0e9, 7.0e9, 7)
        np.testing.assert_array_equal(tf(f), np.ones(7, dtype=complex))

    def test_unit_gain_at_carrier(self):
        ctx = make_ctx()
        fill = ex.transit_fill_time(ctx, 1.5e-3, ph.solve_k(ctx, FC))
        tf = transit_fill_factor(fill, FC)
        assert tf(np.array([FC]))[0] == pytest.approx(1.0)

    def test_fill_time_from_group_velocity(self):
        ctx = make_ctx()
        length = 2.0e-3
        k = ph.solve_k(ctx, FC)
        fill = length / abs(ph.group_velocity(ctx, k))
        assert ex.transit_fill_time(ctx, length, k) == pytest.approx(fill,
                                                                    rel=1e-15)
        tf = transit_fill_factor(fill, FC)
        # first sinc null at offset 1/fill
        assert abs(tf(np.array([FC + 1.0 / fill]))[0]) < 1e-9


class TestSwitchTiming:
    def test_rejects_bad_timing(self):
        # a ramp longer than the record, a toggle past its end, the other
        # ranges, and a grid too coarse for the analysis window: each
        # message starts with the field it names
        cases = [({"ramp": 300e-9, "duration": 200e-9}, "ramp"),
                 ({"t_toggle": 250e-9, "duration": 200e-9}, "t_toggle"),
                 ({"t_toggle": 0.0}, "t_toggle"), ({"dt": 0.0}, "dt"),
                 ({"duration": 1e-10}, "duration"), ({"ramp": 0.0}, "ramp"),
                 ({"dt": 1e-16}, "dt"), ({"dt": 1e-300}, "dt"),
                 ({"t_toggle": None, "duration": 1e-3}, "dt"),
                 ({"analysis_pre": 0.0}, "analysis_pre"),
                 ({"analysis_post": -1e-9}, "analysis_post"),
                 ({"dt": 2e-7}, "dt"), ({"dt": math.nan}, "dt")]
        for kwargs, name in cases:
            with pytest.raises(ValueError, match=f"^{name} "):
                ex.SwitchTiming(**kwargs)

    def test_constant_drive_reads_the_whole_record(self):
        timing = ex.SwitchTiming(t_toggle=None)
        assert timing.window == (0, 4096)


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
        out = abs(sum(ct.channel_transfer(nl, c, FC) * e for c, e in
                      zip(ct.CHANNELS, np.exp(1j * np.array([math.pi, 0, 0])))))
        assert v_max == pytest.approx((2 * out) ** 2, rel=1e-2)

    def test_fitted_path_hits_measured_transition(self):
        nl = build()
        nl, _ = ex.calibrate(nl)
        length = ex.fit_effective_path(nl, 11.3e-9)
        res = ex.run_switching(nl, effective_path=length)
        assert res.t_rise == pytest.approx(11.3e-9, rel=0.01)
        assert res.f_clock == pytest.approx(88.5e6, rel=0.01)

    def test_monotone_in_path_length(self):
        nl = symmetric()
        nl, _ = ex.calibrate(nl)
        lengths = [0.0, 3.0e-4, 7.0e-4, 1.35e-3, 2.7e-3]
        rises = [ex.run_switching(nl, effective_path=L).t_rise for L in lengths]
        assert all(b >= a for a, b in zip(rises, rises[1:]))

    def test_fill_longer_than_runway_raises(self):
        # 6 mm fills in ~200 ns, longer than the 160 ns before the window:
        # the causal average cannot wrap, but the transition then ends
        # inside the plateau from 347.2 ns that sets the settled level
        nl = symmetric()
        nl, _ = ex.calibrate(nl)
        timing = ex.SwitchTiming()
        runway = timing.t_toggle - timing.analysis_pre
        k_c = nl.carrier_propagation.k
        assert ex.transit_fill_time(nl.ctx, 6.0e-3, k_c) > runway
        with pytest.raises(ex.RunwayError, match=r"3\.472e-07 s of the plateau"):
            ex.run_switching(nl, timing=timing, effective_path=6.0e-3)
        # a later toggle in a longer record moves the plateau past it
        later = ex.SwitchTiming(duration=8.192e-7, t_toggle=3.0e-7,
                                analysis_post=4.0e-7)
        slow = ex.run_switching(nl, timing=later, effective_path=6.0e-3)
        fast = ex.run_switching(nl, timing=later, effective_path=3.0e-3)
        assert slow.t_rise > 1.5 * fast.t_rise

    def test_transition_into_plateau_raises(self):
        # at the reference point 4.4 mm fills in 154 ns: toggle, ramp and
        # fill end at 356 ns, inside the plateau from 347.2 ns that sets
        # v_max, although the fill fits the 160 ns runway
        nl, _ = ex.calibrate(cf.build_netlist(cf.RunConfig()))
        with pytest.raises(ex.RunwayError, match=r"3\.561e-07 s.*3\.472e-07 s.*plateau"):
            ex.run_switching(nl, effective_path=4.4e-3)
        # 4.0 mm ends at 342 ns and reads what a doubled record reads
        doubled = ex.SwitchTiming(duration=8.192e-7, analysis_post=4.8e-7)
        res = ex.run_switching(nl, effective_path=4.0e-3)
        ref = ex.run_switching(nl, effective_path=4.0e-3, timing=doubled)
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
        # a window so short that its plateau starts before the ramp ends
        # leaves no path to search
        short = ex.SwitchTiming(analysis_post=1.0e-8)
        with pytest.raises(ex.CalibrationError, match="fits the switching timing"):
            ex.fit_effective_path(nl, 11.3e-9, timing=short)

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

    def test_no_toggle_no_transition(self):
        nl = symmetric()
        nl, _ = ex.calibrate(nl)
        timing = ex.SwitchTiming(t_toggle=None)
        with pytest.raises(sig.NoTransitionError):
            ex.run_switching(nl, timing=timing, effective_path=1e-3)


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

    def test_csv(self, calibrated):
        study = ex.scaling_study(calibrated, [1.0, 0.5], 1.3487e-3)
        lines = study.to_csv().strip().split("\n")
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
