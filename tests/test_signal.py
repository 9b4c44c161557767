import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (csv_table, delay, detect, drive_window,
                     step_phase_moving_average, transit_fill_factor)
from spingate import signal as sig
from spingate import table

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

    @pytest.mark.parametrize("make, dtype", [
        (lambda v: sig.ComplexEnvelope(FC, DT, v), np.complex128),
        (lambda v: sig.DetectedTrace(DT, v), np.float64)])
    def test_public_construction_copies(self, make, dtype):
        # a record holds a frozen copy of the caller's array: writing to
        # that array afterwards leaves the record as it was, and the
        # array stays writable
        values = np.ones(8, dtype=dtype)
        record = make(values)
        values[0] = 2.0
        assert values.flags.writeable
        assert np.all(record.samples == 1.0)
        assert not record.samples.flags.writeable

    def test_producers_hand_over_their_array(self):
        # the package's producers give a record an array they made and
        # hold no more: it is frozen in place, not copied, and checked as
        # the public constructor checks it
        power = np.ones(8)
        trace = sig._adopted(sig.DetectedTrace, DT, power)
        assert trace.samples is power and not power.flags.writeable
        with pytest.raises(ValueError, match="nonnegative"):
            sig._adopted(sig.DetectedTrace, DT, -np.ones(8))
        with pytest.raises(ValueError, match="length >= 2"):
            sig._adopted(sig.ComplexEnvelope, FC, DT, np.ones(1, complex))
        out = sig.apply_transfer(envelope(np.ones(16)), np.ones_like)
        assert not out.samples.flags.writeable

    def test_nonnegativity_check(self):
        # a NaN sample is no negative value and passes; a negative one is
        # refused, also beside a NaN
        trace = sig.DetectedTrace(DT, np.array([0.0, np.nan, 1.0]))
        assert np.isnan(trace.samples[1])
        for bad in ([0.0, -1e-300, 1.0], [np.nan, -1.0, 1.0]):
            with pytest.raises(ValueError, match="must be nonnegative"):
                sig.DetectedTrace(DT, np.array(bad))

    def test_checks_and_searches_hold_no_window_mask(self):
        # on a 2^20-sample step the nonnegativity check holds no mask and
        # rise_time's crossing searches a block's, not the trace's (1 MiB
        # each): measured 18.6 KB for the two calls.  A negative sample is
        # found anywhere, past NaNs before it
        n = 2 ** 20
        v = np.zeros(n)
        v[n // 2:] = 1.0
        tracemalloc.start()
        try:
            trace = sig._adopted(sig.DetectedTrace, DT, v)
            result = sig.rise_time(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * sig._SCAN_BLOCK
        assert result.t_rise == pytest.approx(DT / 3.0)
        for where in (sig._SCAN_BLOCK - 1, sig._SCAN_BLOCK, n - 1):
            bad = np.full(n, np.nan)
            bad[where] = -1.0
            with pytest.raises(ValueError, match="must be nonnegative"):
                sig._adopted(sig.DetectedTrace, DT, bad)


def record(duration, dt=DT):
    """Window of the whole record of a duration: samples 0 to
    round(duration/dt)."""
    return 0, round(duration / dt)


class TestStepPhaseEnvelope:
    def test_equal_phases_constant(self):
        # with or without the fill average, no phase step leaves the drive
        for fill in (0.0, 7e-9):
            drive = drive_window(2.0, 0.3, 0.3, 50e-9, 2e-9, DT,
                                 record(200e-9), fill=fill)
            np.testing.assert_allclose(drive, 2.0 * np.exp(1j * 0.3),
                                       rtol=1e-12)

    def test_amplitude_constant_phase_continuous(self):
        drive = drive_window(1.5, 0.0, math.pi, 50e-9, 2e-9, DT,
                             record(200e-9))
        np.testing.assert_allclose(np.abs(drive), 1.5, rtol=1e-12)
        phase = np.unwrap(np.angle(drive))
        # raised cosine: largest per-sample step is pi/2 * dt/t_rise * pi
        assert np.abs(np.diff(phase)).max() < math.pi ** 2 * DT / (2 * 2e-9) * 1.01
        assert phase[0] == pytest.approx(0.0, abs=1e-12)
        assert phase[-1] == pytest.approx(math.pi, rel=1e-12)

    def test_toggle_layout(self):
        t_tog = 50e-9
        drive = drive_window(1.0, 0.0, math.pi, t_tog, 2e-9, DT,
                             record(200e-9))
        i_before = int(t_tog / DT) - 1
        i_after = int((t_tog + 2e-9) / DT) + 1
        assert np.angle(drive[i_before]) == pytest.approx(0.0, abs=1e-12)
        assert abs(np.angle(drive[i_after])) == pytest.approx(math.pi, abs=1e-9)

    @pytest.mark.parametrize("fill", [0.0, 3.3e-9, 60e-9])
    def test_window_is_a_slice_of_the_record(self, fill):
        # every sample is computed on its own: a window of the record is
        # the same slice of the whole record, bit for bit
        args = (1.2, 0.4, 0.4 + math.pi, 80e-9, 2e-9, DT)
        whole = drive_window(*args, record(409.6e-9), fill=fill)
        part = drive_window(*args, (700, 1900), fill=fill)
        np.testing.assert_array_equal(part, whole[700:1900])

    def test_fill_settles_after_the_fill_time(self):
        # the average reaches the new drive value once the fill time has
        # passed the end of the ramp, and holds the old one before the toggle
        fill = 25e-9
        drive = drive_window(1.0, 0.0, 2.0, 50e-9, 2e-9, DT,
                             record(200e-9), fill=fill)
        t = np.arange(drive.size) * DT
        np.testing.assert_allclose(drive[t <= 50e-9], 1.0, rtol=1e-15)
        np.testing.assert_allclose(drive[t >= 50e-9 + 2e-9 + fill + 1e-12],
                                   np.exp(2j), rtol=1e-12)


# Every sample is computed from its own time alone, which filling the
# window block by block relies on: a window split at or near a block
# boundary of either part is the concatenation of its two parts, bit for
# bit, with and without the fill average.
@settings(max_examples=40, deadline=None)
@given(lo=st.integers(0, 20000), n=st.integers(2, 3 * sig._DRIVE_BLOCK + 64),
       blocks=st.integers(0, 3), offset=st.integers(-2, 2),
       fill=st.one_of(st.just(0.0), st.floats(1e-11, 2e-7)),
       t_toggle=st.floats(1e-9, 3e-7), ramp=st.floats(1e-11, 5e-9))
def test_window_split_is_the_concatenation(lo, n, blocks, offset, fill,
                                           t_toggle, ramp):
    hi = lo + n
    m = min(hi, max(lo, lo + blocks * sig._DRIVE_BLOCK + offset))
    args = (1.3, 0.2, 0.2 + 0.9 * math.pi, t_toggle, ramp, 1.0e-11)
    whole = drive_window(*args, (lo, hi), fill=fill)
    parts = np.concatenate([drive_window(*args, (lo, m), fill=fill),
                            drive_window(*args, (m, hi), fill=fill)])
    np.testing.assert_array_equal(parts.view(np.uint64), whole.view(np.uint64))


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
    args = (amplitude, phase_a, phase_b, t_toggle, ramp, dt)
    t = np.arange(lo, hi) * dt
    exact = step_phase_moving_average(amplitude, phase_a, phase_b, t_toggle,
                                      ramp, fill, t)
    direct = drive_window(*args, (lo, hi), fill=fill)
    whole = envelope(drive_window(*args, (0, n)), dt=dt)
    spectral = sig.apply_transfer(whole, transit_fill_factor(fill, FC),
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
        trace = detect(env, lp_cutoff=5e8)
        np.testing.assert_allclose(trace.samples, 4.0, rtol=1e-12)

    def test_zero_signal(self):
        env = envelope(np.zeros(64))
        assert np.all(detect(env, lp_cutoff=None).samples == 0.0)

    def test_responsivity_scales(self):
        env = envelope(np.ones(64))
        trace = detect(env, lp_cutoff=None, responsivity=0.5)
        np.testing.assert_allclose(trace.samples, 0.5)

    def test_interference_step_against_two_wave_oracle(self):
        # |e^{i phi(t)} + e^{i pi}|^2 = 2 - 2 cos(phi) from the analytic form
        step = drive_window(1.0, 0.0, math.pi, 100e-9, 2e-9, DT,
                            record(400e-9))
        total = envelope(step + np.exp(1j * math.pi))
        trace = detect(total, lp_cutoff=None)
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
        d0 = detect(envelope(total), lp_cutoff=None)
        d1 = detect(envelope(total * np.exp(1j * 1.234)), lp_cutoff=None)
        np.testing.assert_allclose(d0.samples, d1.samples, rtol=1e-12)

    @pytest.mark.parametrize("lp_cutoff", [None, 5e8])
    def test_trace_takes_the_power_without_a_copy(self, lp_cutoff):
        # on a 79,872-sample envelope the call holds the power array (half
        # a complex window array), the low-pass's chunk temporaries (1909
        # samples long at DT) and the trace's nonnegativity mask (a
        # sixteenth); a copy of the power for the trace took it to 1.06
        n = 79872
        env = envelope(np.exp(0.01j * np.arange(n)))
        detect(env, lp_cutoff=lp_cutoff)
        tracemalloc.start()
        try:
            detect(env, lp_cutoff=lp_cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * np.dtype(np.complex128).itemsize * n

    @pytest.mark.parametrize("blocks, n", [
        ([3], 5), ([3], 9), ([3], 2), ([3, 2], 3), ([], 2)])
    def test_blocks_must_hold_n_samples(self, blocks, n):
        # a short count left the trace's last samples uninitialised, and
        # a long one failed in numpy's broadcasting
        with pytest.raises(ValueError, match=f"^n = {n} is not"):
            sig.diode_detect([np.ones(size, complex) for size in blocks],
                             n, DT)

    def test_cutoff_validation(self):
        env = envelope(np.ones(64))
        with pytest.raises(ValueError):
            detect(env, lp_cutoff=0.5 / DT)


class TestRiseTime:
    def test_linear_ramp(self):
        t = np.arange(8192) * DT
        T = 300e-9
        v = np.clip(t / T, 0.0, 1.0)
        res = sig.rise_time(sig.DetectedTrace(DT, v))
        assert res.t_rise == pytest.approx(T / 3.0, abs=DT)
        assert 1.0 / res.t_rise == pytest.approx(3.0 / T, rel=1e-3)

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

    def test_subnormal_level_is_no_transition(self):
        # below the smallest normal float the level has lost its
        # precision; an exact zero keeps its own message
        v = np.clip(np.arange(4096) * DT / 50e-9, 0.0, 1.0)
        with pytest.raises(sig.NoTransitionError,
                           match="level 1e-318 is below the smallest normal"):
            sig.rise_time(sig.DetectedTrace(DT, v * 1e-318))
        with pytest.raises(sig.NoTransitionError, match="level is zero$"):
            sig.rise_time(sig.DetectedTrace(DT, v * 0.0))
        tiny = np.finfo(np.float64).tiny
        assert sig.rise_time(sig.DetectedTrace(DT, v * tiny)).v_max == tiny

    def test_no_transition_flat(self):
        with pytest.raises(sig.NoTransitionError):
            sig.rise_time(sig.DetectedTrace(DT, np.ones(128)))

    def test_no_transition_all_high(self):
        v = np.concatenate([0.9 * np.ones(64), np.ones(64)])
        with pytest.raises(sig.NoTransitionError):
            sig.rise_time(sig.DetectedTrace(DT, v))

    def test_dip_is_no_transition(self):
        # a trace that starts at 0.41 of its settled level, dips to 0.3
        # and then rises (a reference phase off pi, smeared by the fill):
        # the 1/3 crossing of the dip is no transition
        v = np.concatenate([np.full(100, 0.41), np.linspace(0.41, 0.3, 50),
                            np.linspace(0.3, 1.0, 100), np.ones(300)])
        with pytest.raises(sig.NoTransitionError,
                           match="^no transition: trace starts above 1/3 level$"):
            sig.rise_time(sig.DetectedTrace(DT, v))
        # from 1/3 exactly, the rise is timed: a third of its 0.7 over
        # 99 samples
        v[:150] = np.linspace(1.0 / 3.0, 0.3, 150)
        res = sig.rise_time(sig.DetectedTrace(DT, v))
        assert res.v_max == 1.0
        assert res.t_rise == pytest.approx(99 * DT / 0.7 / 3.0, rel=1e-9)

    def test_nan_start_is_no_transition(self):
        # no sample before the 2/3 crossing lies at or below 1/3: the
        # crossing search used to fail with an IndexError
        v = np.concatenate([[np.nan], 0.9 * np.ones(20), np.ones(100)])
        with pytest.raises(sig.NoTransitionError,
                           match="^no transition: trace starts above 1/3 level$"):
            sig.rise_time(sig.DetectedTrace(DT, v))

    def test_ringing_uses_last_low_crossing(self):
        # dip back under 1/3 after a first excursion: the later crossing wins
        v = np.concatenate([np.zeros(50), 0.5 * np.ones(20), np.zeros(30),
                            np.linspace(0.0, 1.0, 100), np.ones(200)])
        res = sig.rise_time(sig.DetectedTrace(DT, v))
        ramp_t_rise = (2.0 / 3.0 - 1.0 / 3.0) * 99 * DT
        assert res.t_rise == pytest.approx(ramp_t_rise, abs=2 * DT)


class TestCsvExport:
    def test_trace_csv(self, tmp_path):
        trace = sig.DetectedTrace(DT, np.array([0.0, 1.0, 2.0]))
        sig.trace_to_csv(trace, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "time_s,value"
        assert len(lines) == 4
        assert lines[2].startswith("1e-10,1")

    def test_trace_csv_streams(self, tmp_path):
        # the times are computed a block of rows at a time: beside the
        # 2^17-sample trace the call holds one block's rows, their slots
        # and the formatter's temporaries made in place, and a part of the
        # squeezed bytes, 0.146 complex arrays of the trace's length (0.222
        # with a temporary per operation and the slots squeezed whole),
        # where a column of times (and the integers it was made from)
        # took it to 1.03; the bytes are those of the whole columns
        n = 2 ** 17
        trace = sig.DetectedTrace(DT, np.random.default_rng(7).random(n))
        path = tmp_path / "trace.csv"
        sig.trace_to_csv(trace, path)
        tracemalloc.start()
        try:
            sig.trace_to_csv(trace, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.17 * np.dtype(np.complex128).itemsize * n
        assert path.read_text() == csv_table(
            "time_s,value", np.arange(n) * DT, trace.samples)


# every float class %.12g and f"{v:.12g}" could disagree on
SPECIAL_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                  5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300,
                  -1e300, 1e-300, -1e-300, 1.7976931348623157e308)
table_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True),
                         st.sampled_from(SPECIAL_FLOATS))


BLOCK = table.BLOCK_ROWS


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def write_tables(paths, header, shared, own, rows=BLOCK):
    """Files sharing the leading columns, then each with its own: the
    writer asks for rows rows of them at a time."""
    columns = [*shared, *(c for group in own for c in group)]
    table.write_rows(paths, header, len(shared), len(columns[0]),
                     lambda lo, hi: [c[lo:hi] for c in columns], rows)


def write_table(path, header, *columns):
    """One file, every column its own."""
    write_tables([path], header, [], [columns])


def assert_table_matches(directory, columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    path = directory / "table.csv"
    write_table(path, header, *columns)
    got = path.read_text().split("\n")
    want = csv_table(header, *columns).split("\n")
    # report the first differing line: diffing two whole tables on every
    # failing call would make shrinking take minutes
    first = next(((i, a, b) for i, (a, b) in enumerate(zip(got, want))
                  if a != b), None)
    assert first is None and len(got) == len(want), first


@settings(max_examples=60, deadline=None)
@given(values=st.lists(table_values, min_size=1, max_size=64),
       n_rows=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 9000]),
       n_cols=st.integers(1, 3))
def test_format_table_matches_per_value_writer(table_dir, values, n_rows,
                                               n_cols):
    # the block boundary: one short, exact, one over, and many blocks.
    # The drawn values repeat through the table, so a failure shrinks to a
    # short list instead of a 9000-row array.
    assert_table_matches(table_dir, np.resize(
        np.array(values, dtype=np.float64), (n_cols, n_rows)))


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# values whose 12-digit rounding is a near-tie, or which round across a
# switch between the fixed and the exponent form, each with its two
# neighbouring floats; the writer sends ties to its per-value fallback
ties = st.builds("{}5e{}".format, st.integers(10 ** 11, 10 ** 12 - 1),
                 st.integers(-300, 290)).map(float)
powers = st.integers(-310, 308).map(lambda k: float(f"1e{k}"))
switches = st.sampled_from([9.99999999999949e-5, 9.9999999999995e-5,
                            999999999999.5, 123456789012.5])
# short decimals m * 10^j: whole quads of zeros, so the trailing zeros are
# counted past the low quad, in every exponent regime; and the stopband
# floor of the transmission tables
shorts = st.builds("{}e{}".format, st.integers(1, 999),
                   st.integers(-326, 305)).map(float)
hard_values = st.one_of(ties, powers, switches, shorts, st.just(-150.0)).flatmap(
    lambda x: st.sampled_from(neighbours(x))).flatmap(
    lambda x: st.sampled_from([x, -x]))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(hard_values, table_values), min_size=1,
                       max_size=64),
       n_cols=st.integers(1, 3))
def test_write_table_hard_cases(table_dir, values, n_cols):
    # ties, powers of ten and the fixed/exponent switches, mixed in one
    # block with plain values: fast and fallback rows keep their order
    n_rows = -(-len(values) // n_cols)
    assert_table_matches(table_dir, np.resize(
        np.array(values, dtype=np.float64), (n_cols, n_rows)))


def test_write_table_ties_in_bulk(table_dir):
    # 30000 near-ties across the exponent range and their neighbours: a
    # fast path that took ties (no margin) misrounds about 0.3% of them
    rng = np.random.default_rng(5)
    ties = ((rng.integers(10 ** 11, 10 ** 12, 10000) * 10 + 5).astype(np.float64)
            * 10.0 ** rng.integers(-290, 290, 10000))
    assert_table_matches(table_dir, [np.nextafter(ties, 0), ties,
                                     np.nextafter(ties, np.inf)])


def test_write_table_short_decimals_in_bulk(table_dir):
    # blocks of m * 10^j for m < 1000 across the exponent range, both
    # signs, beside a column at the stopband floor: most values take the
    # trailing-zero count past the low quad, and those at a power of ten
    # the exponent fix-up where log10 is one off
    rng = np.random.default_rng(13)
    n = 3 * BLOCK
    short = np.array([float(f"{m}e{j}") for m, j in
                      zip(rng.integers(1, 1000, n), rng.integers(-326, 305, n))])
    short *= rng.choice([-1.0, 1.0], n)
    floor = np.where(rng.random(n) < 0.5, -150.0, short[::-1])
    assert_table_matches(table_dir, [short, floor])


def test_write_tables_streams():
    # the writer holds one block at a time: its tracemalloc peak does not
    # grow with the row count, and stays within what a block's slots and
    # their temporaries take, for one file of two columns and for three
    # files sharing the frequency column: 0.31 and 0.62 MB with the files'
    # buffers, where a temporary per operation and the slots squeezed
    # whole took 0.46 and 0.86
    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = []
    for n in (2 ** 13, 2 ** 17):
        f = np.linspace(5.9e9, 6.1e9, n)
        spectra = [np.sin(f * k / 1e9) * 40.0 - 60.0 for k in (1, 2, 3)]
        peaks.append((
            peak(lambda: write_table(os.devnull, "f_hz,s21_db", f, spectra[0])),
            peak(lambda: write_tables([os.devnull] * 3, "f_hz,s21_db",
                                      [f], [[s] for s in spectra]))))
    (one_small, three_small), (one_large, three_large) = peaks
    assert one_large <= 1.02 * one_small
    assert three_large <= 1.02 * three_small
    assert one_large <= 0.35e6
    assert three_large <= 0.7e6


def slot_widths(write):
    """The slot width, in words, of each block write() formats, in order."""
    widths = []
    format_block = table._format_block

    def recorded(x, sep_index):
        slots = format_block(x, sep_index)
        widths.append(slots.shape[1])
        return slots

    table._format_block = recorded
    try:
        write()
    finally:
        table._format_block = format_block
    return widths


def percent_table(header, columns):
    """CSV bytes with each value written by '%.12g' %, row by row."""
    return "".join([header + "\n", *(",".join("%.12g" % v for v in row) + "\n"
                                     for row in zip(*columns))]).encode()


# values whose blocks take the writer's two-word slots: magnitudes in
# [1, 999999999999.5) whatever their digits, 12th-digit ties there, the
# neighbours of the exponent edges (999999999999.5 writes "1e+12" as a
# fallback text), and the fallback values with a short text.  The last
# floats below 1e12, whose log10 is 12, write "1e+12" on the fast path,
# with an exponent word (see the four-word test)
plain_ties = st.builds("{}5e{}".format, st.integers(10 ** 11, 10 ** 12 - 1),
                       st.integers(-12, -1)).map(float)
plain_edges = st.sampled_from([1.0, 10.0, 1e11, 999999999999.5]).flatmap(
    lambda x: st.sampled_from(neighbours(x)))
plain_values = st.one_of(
    st.floats(1.0, 999999999999.5, exclude_max=True).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.one_of(plain_ties, plain_edges).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300]))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(plain_values, min_size=1, max_size=64),
       n_rows=st.sampled_from([1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 5000]),
       n_cols=st.integers(1, 3))
def test_plain_tables_take_two_word_slots(table_dir, values, n_rows, n_cols):
    # every block of a table of plain values is written in two-word slots,
    # with the bytes of '%.12g' %
    columns = np.resize(np.array(values, dtype=np.float64), (n_cols, n_rows))
    header = ",".join(f"c{i}" for i in range(n_cols))
    path = table_dir / "plain.csv"
    widths = slot_widths(lambda: write_table(path, header, *columns))
    assert widths == [2] * -(-n_rows // BLOCK)
    assert path.read_bytes() == percent_table(header, columns)


@pytest.mark.parametrize(
    "value", [1e-5, 1e15, -1e12, 999999999999.9999, 0.5, 1.234567890125e-300])
def test_one_exponent_value_sends_only_its_block_to_four_words(tmp_path,
                                                                value):
    # a value with a prefix or an exponent (or a fallback text of more
    # than 15 bytes) in the second block of a plain table: that block
    # takes four-word slots, the others two, and the bytes are the same
    rng = np.random.default_rng(3)
    n = 3 * BLOCK + 100
    columns = [np.linspace(5.9e9, 6.1e9, n), rng.uniform(-150.0, -1.0, n)]
    columns[1][BLOCK + 17] = value
    path = tmp_path / "t.csv"
    widths = slot_widths(lambda: write_table(path, "f_hz,s21_db", *columns))
    assert widths == [2, 4, 2, 2]
    assert path.read_bytes() == percent_table("f_hz,s21_db", columns)


def test_plain_blocks_peak_below_four_word_ones():
    # the three transmission files sharing the frequency column, one block
    # of rows: the writer's tracemalloc peak on plain values is below its
    # peak on the same table with one exponent-form value in it, by at
    # least half a word per value (it is one, 6 arrays of the block's 8192
    # values where four-word slots take 7)
    f = np.linspace(5.9e9, 6.1e9, BLOCK)
    spectra = [np.sin(f * k / 1e9) * 40.0 - 60.0 for k in (1, 2, 3)]

    def peak(spectra):
        def write():
            write_tables([os.devnull] * 3, "f_hz,s21_db", [f],
                         [[s] for s in spectra])
        write()
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(spectra)
    spectra[1] = spectra[1].copy()
    spectra[1][BLOCK // 2] = 1e-5
    assert slot_widths(lambda: write_tables(
        [os.devnull] * 3, "f_hz,s21_db", [f], [[s] for s in spectra])) == [4]
    n_values = 4 * BLOCK
    assert plain < peak(spectra) - 4 * n_values


# values whose blocks take the writer's three-word slots: magnitudes whose
# point, if any, follows the first digit (below 1e-4, from 1e12 and in
# [1, 10)), 12th-digit ties there, and the zeros, nan, infinities and
# subnormals, which are fast "0"s or fallback texts of up to 23 bytes.
# Below 1e-4 a value that rounds up to "0.0001" falls back, as does one
# in [1, 10) that rounds up to "10"
exponent_ties = st.builds(
    "{}5e{}".format, st.integers(10 ** 11, 10 ** 12 - 1),
    st.one_of(st.integers(-300, -17), st.integers(0, 290))).map(float)
exponent_values = st.one_of(
    st.floats(0.0, 1e-4, exclude_max=True),
    st.floats(min_value=1e12),
    st.floats(1.0, 10.0, exclude_max=True),
    exponent_ties,
    st.sampled_from([0.0, math.nan, math.inf, 5e-324, 1e-310,
                     2.2250738585072014e-308])).flatmap(
    lambda x: st.sampled_from([x, -x]))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(exponent_values, min_size=1, max_size=64),
       n_rows=st.sampled_from([1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 5000]),
       n_cols=st.integers(1, 3))
def test_exponent_tables_take_three_word_slots(table_dir, values, n_rows,
                                               n_cols):
    # every block of a table of exponent-form values is written in
    # three-word slots, with the bytes of '%.12g' %.  A column of times
    # (1 to n_rows times 3.125 ps) comes first, so that no block is plain:
    # one of only zeros, values in [1, 10) and short texts takes two words
    columns = [np.arange(1, n_rows + 1) * 3.125e-12, *np.resize(
        np.array(values, dtype=np.float64), (n_cols, n_rows))]
    header = ",".join(f"c{i}" for i in range(n_cols + 1))
    path = table_dir / "exponent.csv"
    widths = slot_widths(lambda: write_table(path, header, *columns))
    assert widths == [3] * -(-n_rows // BLOCK)
    assert path.read_bytes() == percent_table(header, columns)


def trace_columns(n):
    """A switching trace's columns: times j * 3.125 ps and levels rising
    from 2.4e-36 to 7.2e-5, every value in exponent form but the first
    time, 0."""
    return [np.arange(n) * 3.125e-12,
            7.17e-5 * -np.expm1(-np.arange(n) / 900.0) + 2.4e-36]


@pytest.mark.parametrize("value", [1e-3, -0.05, 12345.678, 5.9e9])
def test_one_prefix_value_sends_only_its_block_to_four_words(tmp_path,
                                                              value):
    # a value with a "0.00" prefix, or a plain one with its point after
    # the second digit or later, in the second block of an exponent-form
    # table: that block takes four-word slots, the others three, and the
    # bytes are the same
    columns = trace_columns(3 * BLOCK + 100)
    columns[1][BLOCK + 17] = value
    path = tmp_path / "t.csv"
    widths = slot_widths(lambda: write_table(path, "time_s,value", *columns))
    assert widths == [3, 4, 3, 3]
    assert path.read_bytes() == percent_table("time_s,value", columns)


def test_exponent_blocks_peak_below_four_word_ones():
    # one block of a trace: the writer's tracemalloc peak on exponent-form
    # values is below its peak on the same table with one "0.00"-prefix
    # value in it, by at least half a word per value (it is one, 6 arrays
    # of the block's 4096 values where four-word slots take 7)
    columns = trace_columns(BLOCK)

    def peak(columns):
        def write():
            write_table(os.devnull, "time_s,value", *columns)
        write()
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    three = peak(columns)
    columns[1] = columns[1].copy()
    columns[1][BLOCK // 2] = 1e-3
    assert slot_widths(lambda: write_table(
        os.devnull, "time_s,value", *columns)) == [4]
    n_values = 2 * BLOCK
    assert three < peak(columns) - 4 * n_values


@pytest.mark.parametrize("limit", [1, 777, 40000])
def test_short_writes_are_resumed(tmp_path, monkeypatch, limit):
    # os.writev may write fewer bytes than it is given, here at most
    # limit bytes a call: the writer writes the rest from where it
    # stopped, within a part or at a part's edge, and the bytes are the
    # same
    writev = os.writev
    calls = []

    def short(fd, parts):
        calls.append(len(parts))
        return writev(fd, [b"".join(parts)[:limit]])

    monkeypatch.setattr(os, "writev", short)
    columns = trace_columns(BLOCK + 100)
    path = tmp_path / "t.csv"
    write_table(path, "time_s,value", *columns)
    assert path.read_bytes() == percent_table("time_s,value", columns)
    assert len(calls) >= 4
    assert max(calls) == table._WRITE_ROWS // table._SQUEEZE_ROWS


def test_zeros_take_the_fast_path(table_dir):
    # exact zeros of either sign among plain values, across blocks: each
    # written "0" or "-0" as f"{v:.12g}" writes it, and none sent to the
    # per-value fallback
    rng = np.random.default_rng(11)
    n = 3 * BLOCK + 5
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    values[rng.random(n) < 0.3] = 0.0
    values[rng.random(n) < 0.2] = -0.0
    zeros = np.flatnonzero(values == 0.0)
    assert np.signbit(values[zeros]).any() and not np.signbit(values[zeros]).all()
    assert not np.isin(zeros, table._digits(values)[2]).any()
    assert_table_matches(table_dir, [values, values[::-1], np.zeros(n), -np.zeros(n)])


def test_powers_of_ten_within_an_ulp():
    # the error bound behind the writer's tie margin assumes it
    # (the scales 10^(11-X) between the two zero ends of the table)
    exact = np.array([float(f"1e{11 - x}") for x in table._X[1:-1]])
    assert np.all(np.abs(table._SCALE[1:-1] - exact) <= np.spacing(exact))
    assert not table._SCALE[[0, -1]].any()


def test_write_table_rejects_ragged_columns(tmp_path):
    # columns(lo, hi) must give a value of every column in each row
    for columns in ([np.ones(2)] * 3, [np.ones(2)], [np.ones(2), np.ones(3)],
                    [np.ones(1), np.ones(1)]):
        with pytest.raises(ValueError):
            table.write_rows([tmp_path / "t.csv"], "a,b", 0, 2,
                             lambda lo, hi: columns)


# values the writer formats by '%.12g' % instead (nan, infinities and
# near-ties in the 12th digit with their neighbouring floats), and the
# zeros, which the fast path takes aside from the log10 of the others
FALLBACKS = (0.0, -0.0, math.nan, math.inf, -math.inf,
             *neighbours(1234567890.125), *neighbours(-9.876543210125e-7))


@pytest.mark.parametrize("n_rows", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("n_shared", [0, 1, 2])
def test_shared_columns_match_one_table_per_file(tmp_path, n_rows, n_shared):
    # three files of as many own columns (one or two, drawn) after the
    # shared ones: the bytes of each equal write_table's on that file's
    # columns, with the fallback values in every column, at the block
    # boundary too
    rng = np.random.default_rng(n_rows + n_shared)

    def column():
        values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
        rows = np.r_[rng.integers(0, n_rows, 2 * len(FALLBACKS)),
                     n_rows - 1, min(BLOCK, n_rows - 1)]
        values[rows] = rng.choice(FALLBACKS, rows.size)
        return values

    n_own = int(rng.integers(1, 3))
    shared = [column() for _ in range(n_shared)]
    own = [[column() for _ in range(n_own)] for _ in range(3)]
    header = ",".join(f"h{i}" for i in range(n_shared + n_own))
    paths = [tmp_path / f"t{i}.csv" for i in range(len(own))]
    write_tables(paths, header, shared, own)
    for path, columns in zip(paths, own):
        write_table(tmp_path / "one.csv", header, *shared, *columns)
        assert path.read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert_table_matches(tmp_path, [*shared, *own[1]])


def test_write_tables_needs_own_columns(tmp_path):
    # each file's own columns are those of the header after the shared
    # ones: a header with none, or no file, is refused before a file opens
    path = tmp_path / "t.csv"
    for paths, header in (([path], "a"), ([], "a,b")):
        with pytest.raises(ValueError, match="columns"):
            table.write_rows(paths, header, 1, 1,
                             lambda lo, hi: [np.ones(1)] * 2)
    assert not path.exists()


@pytest.mark.parametrize("rows", [0, -3])
def test_write_rows_needs_at_least_one_row_at_a_time(tmp_path, rows):
    # rows is how many rows columns() gives at a time: a count below 1
    # is refused before a file opens, 0 included (None is the default)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="rows must be at least 1"):
        table.write_rows([path], "a,b", 0, 5,
                         lambda lo, hi: [np.ones(hi - lo)] * 2, rows=rows)
    assert not path.exists()


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3 * BLOCK), n=st.integers(1, 4 * BLOCK),
       n_files=st.integers(1, 3))
def test_blocks_of_any_size_write_the_same_bytes(table_dir, rows, n, n_files):
    # the writer may ask for any number of rows at a time (the spectrum
    # commands compute table.COMPUTE_ROWS, ragged at the end), and the
    # bytes are the same
    rng = np.random.default_rng(rows + n)
    shared = [rng.standard_normal(n) * 1e9]
    own = [[rng.standard_normal(n) * 10.0 ** i] for i in range(n_files)]
    paths = [table_dir / f"t{i}.csv" for i in range(n_files)]
    write_tables(paths, "h0,h1", shared, own, rows)
    for path, group in zip(paths, own):
        assert path.read_text() == csv_table("h0,h1", *shared, *group)


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(table_values, hard_values))
def test_both_writers_write_a_float_alike(table_dir, value):
    # the small result tables (write_csv) and the numeric ones
    # (write_rows) write the cell of one float with the same bytes
    rows, csv = table_dir / "rows.csv", table_dir / "csv.csv"
    table.write_rows([rows], "v", 0, 1, lambda lo, hi: [np.array([value])])
    table.write_csv(csv, "v", [[value]])
    assert csv.read_bytes() == rows.read_bytes()
