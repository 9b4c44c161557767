import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_table
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
        assert env.duration == pytest.approx(16 * DT)
        assert env.nyquist == pytest.approx(0.5 / DT)
        assert env.times[1] - env.times[0] == pytest.approx(DT)


class TestStepPhaseEnvelope:
    def test_equal_phases_constant(self):
        env = sig.make_step_phase_envelope(2.0, 0.3, 0.3, 50e-9, 2e-9,
                                           200e-9, DT, FC)
        np.testing.assert_allclose(env.samples,
                                   2.0 * np.exp(1j * 0.3), rtol=1e-12)

    def test_amplitude_constant_phase_continuous(self):
        env = sig.make_step_phase_envelope(1.5, 0.0, math.pi, 50e-9, 2e-9,
                                           200e-9, DT, FC)
        np.testing.assert_allclose(np.abs(env.samples), 1.5, rtol=1e-12)
        phase = np.unwrap(np.angle(env.samples))
        # raised cosine: largest per-sample step is pi/2 * dt/t_rise * pi
        assert np.abs(np.diff(phase)).max() < math.pi ** 2 * DT / (2 * 2e-9) * 1.01
        assert phase[0] == pytest.approx(0.0, abs=1e-12)
        assert phase[-1] == pytest.approx(math.pi, rel=1e-12)

    def test_toggle_layout(self):
        t_tog = 50e-9
        env = sig.make_step_phase_envelope(1.0, 0.0, math.pi, t_tog, 2e-9,
                                           200e-9, DT, FC)
        i_before = int(t_tog / DT) - 1
        i_after = int((t_tog + 2e-9) / DT) + 1
        assert np.angle(env.samples[i_before]) == pytest.approx(0.0, abs=1e-12)
        assert abs(np.angle(env.samples[i_after])) == pytest.approx(math.pi,
                                                                    abs=1e-9)

    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            sig.make_step_phase_envelope(1, 0, 1, 50e-9, 300e-9, 200e-9, DT, FC)
        with pytest.raises(ValueError):
            sig.make_step_phase_envelope(1, 0, 1, 250e-9, 2e-9, 200e-9, DT, FC)


class TestApplyTransfer:
    def test_identity(self):
        rng = np.random.default_rng(0)
        env = random_envelope(rng, 1024)
        out = sig.apply_transfer(env, sig.identity_transfer())
        np.testing.assert_allclose(out.samples, env.samples, atol=1e-12)

    def test_constant_phase(self):
        rng = np.random.default_rng(1)
        env = random_envelope(rng, 512)
        out = sig.apply_transfer(env, sig.constant_transfer(np.exp(1j * 0.7)))
        np.testing.assert_allclose(out.samples, env.samples * np.exp(1j * 0.7),
                                   atol=1e-12)

    def test_delay_matches_circular_shift(self):
        # time-domain oracle: roll plus the carrier phase of the delay
        rng = np.random.default_rng(2)
        env = random_envelope(rng, 2048)
        m = 173
        out = sig.apply_transfer(env, sig.delay_transfer(m * DT))
        expect = np.roll(env.samples, m) * np.exp(-1j * 2 * math.pi * FC * m * DT)
        np.testing.assert_allclose(out.samples, expect, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = random_envelope(rng, 256), random_envelope(rng, 256)
        tf = sig.delay_transfer(17 * DT)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        combo = envelope(a * x.samples + b * y.samples)
        lhs = sig.apply_transfer(combo, tf).samples
        rhs = (a * sig.apply_transfer(x, tf).samples
               + b * sig.apply_transfer(y, tf).samples)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_parseval_for_allpass(self):
        rng = np.random.default_rng(4)
        env = random_envelope(rng, 1024)
        out = sig.apply_transfer(env, sig.delay_transfer(41 * DT))
        e_in = np.sum(np.abs(env.samples) ** 2)
        e_out = np.sum(np.abs(out.samples) ** 2)
        assert e_out == pytest.approx(e_in, rel=1e-10)

    def test_non_pow2_zero_pads(self):
        rng = np.random.default_rng(5)
        env = random_envelope(rng, 1000)
        out = sig.apply_transfer(env, sig.identity_transfer())
        assert len(out) == 1000
        np.testing.assert_allclose(out.samples, env.samples, atol=1e-12)

    def test_pad_time_suppresses_wraparound(self):
        # with guard padding past the delay, the shift is linear: zeros
        # enter from the front instead of the tail wrapping around
        rng = np.random.default_rng(11)
        env = random_envelope(rng, 1000)
        m = 200
        out = sig.apply_transfer(env, sig.delay_transfer(m * DT),
                                 pad_time=(m + 8) * DT)
        carrier = np.exp(-1j * 2 * math.pi * FC * m * DT)
        expect = np.concatenate([np.zeros(m), env.samples[:1000 - m]]) * carrier
        np.testing.assert_allclose(out.samples, expect, atol=1e-9)

    def test_band_overflow_rejected(self):
        env = envelope(np.ones(64))
        limited = sig.TransferFunction(lambda f: np.ones_like(f, dtype=complex),
                                       band=(FC - 1e9, FC + 1e9), stopband=False)
        with pytest.raises(sig.BandOverflowError):
            sig.apply_transfer(env, limited)

    def test_stopband_zeroes_outside(self):
        tf = sig.TransferFunction(lambda f: np.ones_like(f, dtype=complex),
                                  band=(5.9e9, 6.1e9))
        f = np.array([5.8e9, 6.0e9, 6.2e9])
        g = tf(f)
        assert g[0] == 0 and g[2] == 0 and g[1] == 1


class TestSuperpose:
    def test_two_against_one(self):
        e = [envelope(np.exp(1j * p) * np.ones(8)) for p in (0.0, 0.0, math.pi)]
        total = sig.superpose(e)
        np.testing.assert_allclose(np.abs(total.samples), 1.0, atol=1e-12)
        assert np.angle(total.samples[0]) == pytest.approx(0.0, abs=1e-12)

    def test_unanimous(self):
        e = [envelope(np.exp(1j * math.pi) * np.ones(8)) for _ in range(3)]
        total = sig.superpose(e)
        np.testing.assert_allclose(np.abs(total.samples), 3.0, rtol=1e-12)
        assert abs(np.angle(total.samples[0])) == pytest.approx(math.pi,
                                                                rel=1e-12)

    def test_unanimous_to_majority_ratio(self):
        # the measured 75 mV : 25 mV level pair
        unanimous = sig.superpose([envelope(np.ones(4))] * 3)
        majority = sig.superpose([envelope(np.ones(4)), envelope(np.ones(4)),
                                  envelope(-np.ones(4))])
        ratio = np.abs(unanimous.samples[0]) / np.abs(majority.samples[0])
        assert ratio == pytest.approx(3.0, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sig.superpose([envelope(np.ones(8)), envelope(np.ones(16))])
        with pytest.raises(ValueError):
            sig.superpose([envelope(np.ones(8)),
                           envelope(np.ones(8), fc=6.0e9)])


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
        step = sig.make_step_phase_envelope(1.0, 0.0, math.pi, 100e-9, 2e-9,
                                            400e-9, DT, FC)
        ref = envelope(np.exp(1j * math.pi) * np.ones(len(step)))
        total = sig.superpose([step, ref])
        trace = sig.diode_detect(total, lp_cutoff=None)
        phase = np.angle(step.samples)
        oracle = 2.0 - 2.0 * np.cos(phase)
        np.testing.assert_allclose(trace.samples, oracle, atol=1e-10)
        # destructive before the toggle, constructive after
        assert trace.samples[0] == pytest.approx(0.0, abs=1e-12)
        assert trace.samples[-1] == pytest.approx(4.0, rel=1e-9)

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


class TestPhaseEstimate:
    def test_constant_phases(self):
        env = envelope(np.exp(1j * math.pi) * np.ones(64))
        assert sig.phase_estimate(env, 0.0, 64 * DT) == pytest.approx(math.pi)
        env0 = envelope(np.ones(64))
        assert sig.phase_estimate(env0, 0.0, 64 * DT) == pytest.approx(0.0)

    def test_majority_signs(self):
        up = sig.superpose([envelope(np.ones(16)), envelope(np.ones(16)),
                            envelope(-np.ones(16))])
        down = sig.superpose([envelope(-np.ones(16)), envelope(-np.ones(16)),
                              envelope(np.ones(16))])
        assert sig.phase_estimate(up, 0.0, 16 * DT) == pytest.approx(0.0)
        assert sig.phase_estimate(down, 0.0, 16 * DT) == pytest.approx(math.pi)

    def test_indeterminate_on_null(self):
        env = envelope(np.zeros(32))
        with pytest.raises(sig.IndeterminatePhaseError):
            sig.phase_estimate(env, 0.0, 32 * DT)

    def test_global_phase_covariance(self):
        rng = np.random.default_rng(6)
        parts = [random_envelope(rng, 64) for _ in range(3)]
        theta = 1.234
        rotated = [envelope(p.samples * np.exp(1j * theta)) for p in parts]
        base = sig.superpose(parts)
        rot = sig.superpose(rotated)
        p0 = sig.phase_estimate(base, 0.0, 64 * DT)
        p1 = sig.phase_estimate(rot, 0.0, 64 * DT)
        assert float(sig.wrap_phase(p1 - p0 - theta)) == pytest.approx(0.0,
                                                                       abs=1e-12)
        d0 = sig.diode_detect(base, lp_cutoff=None)
        d1 = sig.diode_detect(rot, lp_cutoff=None)
        np.testing.assert_allclose(d0.samples, d1.samples, rtol=1e-12)


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
