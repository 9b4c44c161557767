import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (csv_table, delay, step_phase_moving_average,
                     transit_fill_factor)
from spingate import signal as sig

FC = 6.035e9
DT = 1.0e-10


def envelope(samples, dt=DT, fc=FC):
    return sig.ComplexEnvelope(fc, dt, np.asarray(samples, dtype=np.complex128))


def random_envelope(rng, n, dt=DT, fc=FC):
    return envelope(rng.standard_normal(n) + 1j * rng.standard_normal(n), dt, fc)


class TestEnvelopeType:
    def test_validation(self):
        with pytest.raises(ValueError):
            sig.ComplexEnvelope(FC, 0.0, np.ones(4))
        with pytest.raises(ValueError):
            sig.ComplexEnvelope(FC, DT, np.ones(1))

    def test_samples_frozen(self):
        env = envelope(np.ones(8))
        with pytest.raises(ValueError):
            env.samples[0] = 0.0

    def test_grid_properties(self):
        env = envelope(np.ones(16))
        assert len(env) == 16


class TestStepPhaseEnvelope:
    def test_equal_phases_constant(self):
        # with or without the fill average, no phase step leaves the drive
        for fill in (0.0, 7e-9):
            drive = sig.step_phase_drive(2.0, 0.3, 0.3, 50e-9, 2e-9, 200e-9,
                                         DT, fill=fill)
            np.testing.assert_allclose(drive, 2.0 * np.exp(1j * 0.3),
                                       rtol=1e-12)

    def test_amplitude_constant_phase_continuous(self):
        drive = sig.step_phase_drive(1.5, 0.0, math.pi, 50e-9, 2e-9, 200e-9, DT)
        np.testing.assert_allclose(np.abs(drive), 1.5, rtol=1e-12)
        phase = np.unwrap(np.angle(drive))
        # raised cosine: largest per-sample step is pi/2 * dt/t_rise * pi
        assert np.abs(np.diff(phase)).max() < math.pi ** 2 * DT / (2 * 2e-9) * 1.01
        assert phase[0] == pytest.approx(0.0, abs=1e-12)
        assert phase[-1] == pytest.approx(math.pi, rel=1e-12)

    def test_toggle_layout(self):
        t_tog = 50e-9
        drive = sig.step_phase_drive(1.0, 0.0, math.pi, t_tog, 2e-9, 200e-9,
                                     DT)
        i_before = int(t_tog / DT) - 1
        i_after = int((t_tog + 2e-9) / DT) + 1
        assert np.angle(drive[i_before]) == pytest.approx(0.0, abs=1e-12)
        assert abs(np.angle(drive[i_after])) == pytest.approx(math.pi, abs=1e-9)

    @pytest.mark.parametrize("fill", [0.0, 3.3e-9, 60e-9])
    def test_window_is_a_slice_of_the_record(self, fill):
        # every sample is computed on its own: a window of the record is
        # the same slice of the whole record, bit for bit
        args = (1.2, 0.4, 0.4 + math.pi, 80e-9, 2e-9, 409.6e-9, DT)
        whole = sig.step_phase_drive(*args, fill=fill)
        part = sig.step_phase_drive(*args, fill=fill, window=(700, 1900))
        np.testing.assert_array_equal(part, whole[700:1900])

    def test_fill_settles_after_the_fill_time(self):
        # the average reaches the new drive value once the fill time has
        # passed the end of the ramp, and holds the old one before the toggle
        fill = 25e-9
        drive = sig.step_phase_drive(1.0, 0.0, 2.0, 50e-9, 2e-9, 200e-9, DT,
                                     fill=fill)
        t = np.arange(drive.size) * DT
        np.testing.assert_allclose(drive[t <= 50e-9], 1.0, rtol=1e-15)
        np.testing.assert_allclose(drive[t >= 50e-9 + 2e-9 + fill + 1e-12],
                                   np.exp(2j), rtol=1e-12)


# The fill average against two oracles on the analysis window of the
# default switching record: the continuous moving average of the analytic
# drive (quadrature on the ramp) decides, and the spectral fill applied
# by FFT with a guard of at least the fill time (a linear convolution
# there) sets the bar the time-domain average must meet.
@settings(max_examples=25, deadline=None)
@given(fill=st.floats(0.5e-9, 145e-9), dt=st.floats(3e-12, 1e-10),
       phase_a=st.floats(-math.pi, math.pi), phase_b=st.floats(-math.pi, math.pi),
       amplitude=st.floats(1e-3, 1e3))
def test_fill_against_continuous_moving_average(fill, dt, phase_a, phase_b,
                                                amplitude):
    t_toggle, ramp, duration = 200e-9, 2e-9, 409.6e-9
    n = int(round(duration / dt))
    lo, hi = int(round(160e-9 / dt)), min(n, int(round(440e-9 / dt)))
    args = (amplitude, phase_a, phase_b, t_toggle, ramp, duration, dt)
    t = np.arange(lo, hi) * dt
    exact = step_phase_moving_average(amplitude, phase_a, phase_b, t_toggle,
                                      ramp, fill, t)
    direct = sig.step_phase_drive(*args, fill=fill, window=(lo, hi))
    record = envelope(sig.step_phase_drive(*args), dt=dt)
    spectral = sig.apply_transfer(record, transit_fill_factor(fill, FC),
                                  pad_time=fill).samples[lo:hi]
    err_direct = np.abs(direct - exact).max()
    err_spectral = np.abs(spectral - exact).max()
    # the quadrature resolves the average to about 1e-12 * amplitude *
    # ramp / fill per end; below that (equal phases) the two only round
    resolution = 1e-11 * amplitude
    assert err_direct <= err_spectral + resolution, (err_direct, err_spectral)


class TestApplyTransfer:
    def test_identity(self):
        rng = np.random.default_rng(0)
        env = random_envelope(rng, 1024)
        out = sig.apply_transfer(env, np.ones_like)
        np.testing.assert_allclose(out.samples, env.samples, atol=1e-12)

    def test_constant_phase(self):
        rng = np.random.default_rng(1)
        env = random_envelope(rng, 512)
        out = sig.apply_transfer(env, lambda f: np.full(f.shape, np.exp(1j * 0.7)))
        np.testing.assert_allclose(out.samples, env.samples * np.exp(1j * 0.7),
                                   atol=1e-12)

    def test_delay_matches_circular_shift(self):
        # time-domain oracle: roll plus the carrier phase of the delay
        rng = np.random.default_rng(2)
        env = random_envelope(rng, 2048)
        m = 173
        out = sig.apply_transfer(env, delay(m * DT))
        expect = np.roll(env.samples, m) * np.exp(-1j * 2 * math.pi * FC * m * DT)
        np.testing.assert_allclose(out.samples, expect, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = random_envelope(rng, 256), random_envelope(rng, 256)
        tf = delay(17 * DT)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        combo = envelope(a * x.samples + b * y.samples)
        lhs = sig.apply_transfer(combo, tf).samples
        rhs = (a * sig.apply_transfer(x, tf).samples
               + b * sig.apply_transfer(y, tf).samples)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_parseval_for_allpass(self):
        rng = np.random.default_rng(4)
        env = random_envelope(rng, 1024)
        out = sig.apply_transfer(env, delay(41 * DT))
        e_in = np.sum(np.abs(env.samples) ** 2)
        e_out = np.sum(np.abs(out.samples) ** 2)
        assert e_out == pytest.approx(e_in, rel=1e-10)

    def test_non_pow2_zero_pads(self):
        rng = np.random.default_rng(5)
        env = random_envelope(rng, 1000)
        out = sig.apply_transfer(env, np.ones_like)
        assert len(out) == 1000
        np.testing.assert_allclose(out.samples, env.samples, atol=1e-12)

    def test_pad_time_suppresses_wraparound(self):
        # with guard padding past the delay, the shift is linear: zeros
        # enter from the front instead of the tail wrapping around
        rng = np.random.default_rng(11)
        env = random_envelope(rng, 1000)
        m = 200
        out = sig.apply_transfer(env, delay(m * DT),
                                 pad_time=(m + 8) * DT)
        carrier = np.exp(-1j * 2 * math.pi * FC * m * DT)
        expect = np.concatenate([np.zeros(m), env.samples[:1000 - m]]) * carrier
        np.testing.assert_allclose(out.samples, expect, atol=1e-9)

    def test_gain_cast_to_complex(self):
        # any callable works; a real or integer gain is taken as complex
        rng = np.random.default_rng(12)
        env = random_envelope(rng, 256)
        out = sig.apply_transfer(env, lambda f: np.full(f.shape, 2))
        np.testing.assert_allclose(out.samples, 2 * env.samples, atol=1e-12)


class TestDiodeDetect:
    def test_constant_level(self):
        env = envelope(2.0 * np.ones(256))
        trace = sig.diode_detect(env, lp_cutoff=5e8)
        np.testing.assert_allclose(trace.samples, 4.0, rtol=1e-12)

    def test_zero_signal(self):
        env = envelope(np.zeros(64))
        assert np.all(sig.diode_detect(env, lp_cutoff=None).samples == 0.0)

    def test_responsivity_scales(self):
        env = envelope(np.ones(64))
        trace = sig.diode_detect(env, lp_cutoff=None, responsivity=0.5)
        np.testing.assert_allclose(trace.samples, 0.5)

    def test_interference_step_against_two_wave_oracle(self):
        # |e^{i phi(t)} + e^{i pi}|^2 = 2 - 2 cos(phi) from the analytic form
        step = sig.step_phase_drive(1.0, 0.0, math.pi, 100e-9, 2e-9, 400e-9, DT)
        total = envelope(step + np.exp(1j * math.pi))
        trace = sig.diode_detect(total, lp_cutoff=None)
        phase = np.angle(step)
        oracle = 2.0 - 2.0 * np.cos(phase)
        np.testing.assert_allclose(trace.samples, oracle, atol=1e-10)
        # destructive before the toggle, constructive after
        assert trace.samples[0] == pytest.approx(0.0, abs=1e-12)
        assert trace.samples[-1] == pytest.approx(4.0, rel=1e-9)

    def test_global_phase_invariance(self):
        # rotating every input by one phase leaves the detected power as is
        rng = np.random.default_rng(6)
        total = sum(random_envelope(rng, 64).samples for _ in range(3))
        d0 = sig.diode_detect(envelope(total), lp_cutoff=None)
        d1 = sig.diode_detect(envelope(total * np.exp(1j * 1.234)),
                              lp_cutoff=None)
        np.testing.assert_allclose(d0.samples, d1.samples, rtol=1e-12)

    def test_cutoff_validation(self):
        env = envelope(np.ones(64))
        with pytest.raises(ValueError):
            sig.diode_detect(env, lp_cutoff=0.5 / DT)


class TestRiseTime:
    def test_linear_ramp(self):
        t = np.arange(8192) * DT
        T = 300e-9
        v = np.clip(t / T, 0.0, 1.0)
        res = sig.rise_time(sig.DetectedTrace(DT, v))
        assert res.t_rise == pytest.approx(T / 3.0, abs=DT)
        assert res.f_clock == pytest.approx(3.0 / T, rel=1e-3)

    def test_first_order_step(self):
        tau = 12e-9
        t = np.arange(4096) * DT
        v = 1.0 - np.exp(-t / tau)
        res = sig.rise_time(sig.DetectedTrace(DT, v))
        assert res.t_rise == pytest.approx(tau * math.log(2.0), abs=DT)

    def test_plateau_estimate(self):
        t = np.arange(4096) * DT
        v = np.clip(t / 50e-9, 0.0, 1.0) * 7.5
        res = sig.rise_time(sig.DetectedTrace(DT, v))
        assert res.v_max == pytest.approx(7.5, rel=1e-6)

    def test_no_transition_flat(self):
        with pytest.raises(sig.NoTransitionError):
            sig.rise_time(sig.DetectedTrace(DT, np.ones(128)))

    def test_no_transition_all_high(self):
        v = np.concatenate([0.9 * np.ones(64), np.ones(64)])
        with pytest.raises(sig.NoTransitionError):
            sig.rise_time(sig.DetectedTrace(DT, v))

    def test_ringing_uses_last_low_crossing(self):
        # dip back under 1/3 after a first excursion: the later crossing wins
        v = np.concatenate([np.zeros(50), 0.5 * np.ones(20), np.zeros(30),
                            np.linspace(0.0, 1.0, 100), np.ones(200)])
        res = sig.rise_time(sig.DetectedTrace(DT, v))
        ramp_t_rise = (2.0 / 3.0 - 1.0 / 3.0) * 99 * DT
        assert res.t_rise == pytest.approx(ramp_t_rise, abs=2 * DT)


class TestCsvExport:
    def test_trace_csv(self):
        trace = sig.DetectedTrace(DT, np.array([0.0, 1.0, 2.0]))
        text = sig.trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "time_s,value"
        assert len(lines) == 4
        assert lines[2].startswith("1e-10,1")


# every float class %.12g and f"{v:.12g}" could disagree on
SPECIAL_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                  5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300,
                  -1e300, 1e-300, -1e-300, 1.7976931348623157e308)
table_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True),
                         st.sampled_from(SPECIAL_FLOATS))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(table_values, min_size=1, max_size=64),
       n_rows=st.sampled_from([1, 4095, 4096, 4097, 9000]),
       n_cols=st.integers(1, 3))
def test_format_table_matches_per_value_writer(values, n_rows, n_cols):
    # the block boundary sits at 4096 rows: one short, exact, one over, two.
    # The drawn values repeat through the table, so a failure shrinks to a
    # short list instead of a 9000-row array.
    columns = np.resize(np.array(values, dtype=np.float64), (n_cols, n_rows))
    header = ",".join(f"c{i}" for i in range(n_cols))
    got = sig.format_table(header, *columns).split("\n")
    want = csv_table(header, *columns).split("\n")
    # report the first differing line: diffing two whole tables on every
    # failing call would make shrinking take minutes
    first = next(((i, a, b) for i, (a, b) in enumerate(zip(got, want))
                  if a != b), None)
    assert first is None and len(got) == len(want), first
