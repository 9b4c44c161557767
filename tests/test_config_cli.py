import contextlib
import functools
import io
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import csv_table
from spingate import circuit as ct
from spingate import cli
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate import table
from spingate.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.txt"


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_defaults_reproduce_operating_point(self):
        cfg = cf.RunConfig()
        assert cfg.field.mu0_h_t == pytest.approx(0.1429)
        assert cfg.microwave.f_c_hz == pytest.approx(6.035e9)
        assert cfg.field.orientation == "parallel"
        ctx = cf.validate_config(cfg).context()
        assert ph.fmr_frequency(ctx) == pytest.approx(6.06e9, rel=1e-9)

    def test_round_trip_identity(self):
        text = cf.serialize_config(cf.RunConfig())
        cfg1 = cf.parse_config(text)
        cfg2 = cf.parse_config(cf.serialize_config(cfg1))
        assert cfg1 == cfg2 == cf.RunConfig()

    def test_committed_reference_config_is_the_default(self):
        assert cf.parse_config(REFERENCE.read_text()) == cf.RunConfig()

    def test_overrides_apply(self):
        cfg = cf.parse_config(
            "field.mu0_h_t = 0.15\n"
            "microwave.f_c_hz = 6.2e9\n"
            "geometry.l_skew_m = 0.004, 0, 0.004\n"
            "dispersion.log_k = false\n"
        )
        assert cfg.field.mu0_h_t == 0.15
        assert cfg.microwave.f_c_hz == 6.2e9
        assert cfg.geometry.l_skew_m == (0.004, 0.0, 0.004)
        assert cfg.dispersion.log_k is False

    def test_comments_and_blanks(self):
        cfg = cf.parse_config("# comment\n\nfilm.mu0_ms_t = 0.18 # inline\n")
        assert cfg.film.mu0_ms_t == 0.18

    @pytest.mark.parametrize("line", [
        "nosuchsection.key = 1",
        "film.nosuchkey = 1",
        "film.mu0_ms_t",
        "justakey = 1",
        "geometry.l_in_m = 1,2",
        "spectrum.n_points = 2.5",
        "dispersion.log_k = maybe",
    ])
    def test_rejects_malformed(self, line):
        with pytest.raises(cf.ConfigError):
            cf.parse_config(line)

    @pytest.mark.parametrize("line", [
        "field.orientation = diagonal",
        "field.mu0_h_t = -0.1",
        "geometry.scale = 0",
        "microwave.attenuator_db = -1, 0, 0",
        "encoding.guard_rad = 3.0",
        "dispersion.k_start_rad_per_m = 0",
    ])
    def test_rejects_invalid_values(self, line):
        with pytest.raises(cf.ConfigError):
            cf.parse_config(line)

    @pytest.mark.parametrize("text, message", [
        ("film.mu0_ms_t = 0.18\n\nfilm.bogus = 1\n",
         "line 3: unknown key 'film.bogus'"),
        ("# c\nbogus.key = 1\n", "line 2: unknown section 'bogus'"),
        ("field.mu0_h_t = 0.15\nfield.mu0_h_t\n", "line 2: expected 'key = value'"),
        ("scaling.scales = 1,x\n", "line 1: bad list value '1,x'"),
        ("# c\n\nspectrum.n_points = 1e3\n",
         "line 3: expected an integer, got '1e3'"),
        ("# c\nfilm.mu0_ms_t = 0.18x\n", "line 2: expected a number, got '0.18x'"),
        ("film.mu0_ms_t = 0.18\ngeometry.l_skew_m = 1,2\n",
         "line 2: expected 3 values, got 2: '1,2'"),
        ("# c\n\n\ndispersion.log_k = maybe\n",
         "line 4: expected a boolean, got 'maybe'"),
        ("microwave.include_switch = false\n",
         "line 1: unknown key 'microwave.include_switch'"),
        ("geometry.w_g_m = 0.0015\n", "line 1: unknown key 'geometry.w_g_m'"),
        ("# c\nswitching.toggle = true\n",
         "line 2: unknown key 'switching.toggle'"),
        # Python's digit-group underscores are no number of the grammar
        ("scaling.scales = 1_0,0.5\n", "line 1: bad list value '1_0,0.5'"),
        ("# c\nspectrum.n_points = 4_41\n",
         "line 2: expected an integer, got '4_41'"),
        ("film.mu0_ms_t = 0.1_85\n", "line 1: expected a number, got '0.1_85'"),
    ])
    def test_error_messages_name_the_line(self, text, message):
        with pytest.raises(cf.ConfigError, match=f"^{re.escape(message)}$"):
            cf.parse_config(text)

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(-1e15, 1e15), ulps=st.floats(0.0, 40.0),
           n=st.integers(2, 3000), rows=st.integers(1, 64))
    def test_spectrum_grid_refused_exactly_where_it_does_not_ascend(
            self, start, ulps, n, rows):
        # steps of a few ulps, where np.linspace's rounding can repeat a
        # point or step back: the ascent rule, checking the grid a range
        # of any size at a time, accepts exactly the grids np.linspace
        # makes strictly ascending, and validate_config refuses the others
        stop = start + ulps * math.ulp(max(abs(start), 1e-300)) * (n - 1)
        if not stop > start:
            return
        sp = cf.SpectrumConfig(f_start_hz=start, f_stop_hz=stop, n_points=n)
        grid = np.linspace(start, stop, n)
        ascends = bool(np.all(grid[1:] > grid[:-1]))
        cfg = cf.RunConfig(spectrum=sp)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table, "COMPUTE_ROWS", rows)
            assert sp.grid().ascends() == ascends
            if ascends:
                cf.validate_config(cfg)
            else:
                with pytest.raises(cf.ConfigError,
                                   match="^spectrum.n_points = "):
                    cf.validate_config(cfg)

    def test_repeated_key_keeps_last_value(self):
        cfg = cf.parse_config("scaling.scales = 1, 0.5, 0.2\n"
                              "scaling.scales = 1, 0.5\n"
                              "field.mu0_h_t = 0.15\nfield.mu0_h_t = 0.16\n")
        assert cfg.scaling.scales == (1.0, 0.5)
        assert cfg.field.mu0_h_t == 0.16

    def test_build_netlist_ignores_include_switch(self):
        cfg = cf.RunConfig()
        gains = cf.build_netlist(cfg, include_switch=True).carrier_gains
        assert gains.tobytes() == cf.build_netlist(cfg).carrier_gains.tobytes()

    def test_build_context_orientation(self):
        cfg = cf.parse_config("field.orientation = perpendicular")
        ctx = cf.validate_config(cfg).context()
        assert ctx.branch == ph.Orientation.PERPENDICULAR.branch

    def test_ms_fit_disabled(self):
        cfg = cf.parse_config("film.fit_fmr_hz = 0")
        ctx = cf.validate_config(cfg).context()
        assert ctx.film.Ms * ph.MU0 == pytest.approx(0.176, rel=1e-12)


@st.composite
def grid_range(draw):
    """n of 1 to 2^20 and a range lo..hi of a grid of n points: one that
    ends the grid, one point, or any."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 2 ** 20)))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.one_of(st.just(n), st.just(lo + 1), st.integers(lo + 1, n)))
    return n, lo, hi


# ends a few hundred subnormal steps apart, where delta / div underflows
# to 0 on a long grid and np.linspace takes its subnormal branch
SUBNORMAL_ENDS = st.tuples(*[st.integers(-300, 300).map(lambda i: i * 5e-324)] * 2)


@settings(max_examples=300, deadline=None)
@given(ends=st.one_of(st.tuples(st.floats(allow_nan=False),
                                st.floats(allow_nan=False)),
                      SUBNORMAL_ENDS),
       span=grid_range())
@example(ends=(0.0, 3 * 5e-324), span=(1000, 0, 1000))
@example(ends=(5.9e9, 6.12e9), span=(1, 0, 1))
@example(ends=(5.9e9, 6.12e9), span=(441, 440, 441))
def test_grid_points_are_linspace_bit_for_bit(ends, span):
    # points lo..hi of a grid are those of np.linspace over the whole
    # grid: the last point set to stop where the range ends the grid, the
    # subnormal branch where the step underflows, the one-point grid
    start, stop = ends
    n, lo, hi = span
    if n > 1 and (stop - start) / (n - 1) == 0 and stop != start:
        event("step underflows to 0")
    with np.errstate(all="ignore"):
        expect = np.linspace(start, stop, n)[lo:hi]
        points = cf.Grid(start, stop, n).points(lo, hi)
    assert points.tobytes() == expect.tobytes()


@pytest.mark.parametrize("lo, hi", [(3, 8), (4, 2), (-1, 2), (0, 6)])
def test_grid_points_refuse_a_range_outside_the_grid(lo, hi):
    # points past stop (the last one not pinned to it), a reversed range
    # and a negative index are no range of the grid; empty ranges are
    grid = cf.Grid(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="not a range of 5 points"):
        grid.points(lo, hi)
    assert grid.points(0, 0).size == grid.points(5, 5).size == 0


@settings(max_examples=200, deadline=None)
@given(ends=st.tuples(*[st.floats(1e-300, 1e300)] * 2), span=grid_range())
def test_log_grid_points_are_the_dispersion_wavenumbers(ends, span):
    # the wavenumbers of a log_k dispersion grid, a range at a time, are
    # those cmd_dispersion made of the whole grid: the powers of ten of
    # np.linspace between the ends' np.log10, taken in place
    (a, b), (n, lo, hi) = ends, span
    k = np.linspace(np.log10(a), np.log10(b), n)
    np.power(10.0, k, out=k)
    grid = cf.DispersionConfig(k_start_rad_per_m=a, k_stop_rad_per_m=b,
                               n_points=n, log_k=True).grid()
    assert grid.points(lo, hi).tobytes() == k[lo:hi].tobytes()


def cli_peak(tmp_path, command, lines, flags=()):
    """tracemalloc peak of one successful run of a command on a config of
    the given lines."""
    config = tmp_path / "cfg.txt"
    config.write_text("".join(f"{line}\n" for line in lines))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"),
            *flags]
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def assert_peak_flat(run, small=2 ** 13, large=2 ** 17):
    # the peak at 2^17 points is within 2% of the peak at 2^13: a grid and
    # its table are computed and written one block of rows at a time.  The
    # small grid runs once first, so that first-call allocations count in
    # neither reading.
    run(small)
    peaks = [run(n) for n in (small, large)]
    assert peaks[1] <= 1.02 * peaks[0], peaks


class TestDispersionCommand:
    def test_bvmsw_table(self, tmp_path, capsys):
        assert main(["dispersion", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "dispersion.csv")
        assert header == ["k_rad_per_m", "f_hz", "v_g_m_per_s"]
        f = np.array([float(r[1]) for r in rows])
        vg = np.array([float(r[2]) for r in rows])
        # first row sits at the band top, the branch falls monotonically
        assert f[0] == pytest.approx(6.06e9, rel=1e-3)
        assert np.all(np.diff(f) < 0)
        assert np.all(vg < 0)
        assert "dispersion" in capsys.readouterr().out

    def test_mssw_flag_flips_monotonicity(self, tmp_path):
        assert main(["dispersion", "--mode", "mssw", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "dispersion.csv")
        f = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(f) > 0)

    @pytest.mark.parametrize("mode", ["bvmsw", "mssw"])
    def test_a_one_point_last_block_is_the_grid(self, tmp_path, monkeypatch,
                                                mode):
        # COMPUTE_ROWS + 1 wavenumbers: the last block is one point, which
        # the kernels take through their one-point path; the table is that
        # of one block over the whole grid, byte for byte
        config = tmp_path / "cfg.txt"
        config.write_text(f"dispersion.n_points = {table.COMPUTE_ROWS + 1}\n")
        tables = []
        for rows in (table.COMPUTE_ROWS, 2 * table.COMPUTE_ROWS):
            monkeypatch.setattr(table, "COMPUTE_ROWS", rows)
            out = tmp_path / str(rows)
            assert main(["dispersion", "--mode", mode, "--config", str(config),
                         "--out", str(out)]) == 0
            tables.append((out / "dispersion.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("log_k", ["true", "false"])
    @pytest.mark.parametrize("mode", ["bvmsw", "mssw"])
    def test_memory_does_not_grow_with_the_grid(self, tmp_path, mode, log_k):
        assert_peak_flat(lambda n: cli_peak(
            tmp_path, "dispersion",
            [f"dispersion.n_points = {n}", f"dispersion.log_k = {log_k}"],
            ["--mode", mode]))

    @pytest.mark.parametrize("mode", ["bvmsw", "mssw"])
    def test_thick_film_group_velocity_is_finite(self, tmp_path, capsys, mode):
        # wh*wm*d (or wm^2*d) overflowed before its vanishing factor of kd
        # multiplied: v_g was NaN in every row, with a RuntimeWarning
        config = tmp_path / "cfg.txt"
        config.write_text("film.thickness_m = 1e300\n")
        assert main(["dispersion", "--config", str(config), "--mode", mode,
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "dispersion.csv")
        vg = np.array([float(r[2]) for r in rows])
        assert np.all(np.isfinite(vg))
        sign = -1.0 if mode == "bvmsw" else 1.0
        assert np.all(sign * vg >= 0)

    @pytest.mark.parametrize("orientation", ["parallel", "perpendicular"])
    def test_kd_past_the_float_range_takes_the_limits(self, tmp_path, capsys,
                                                      orientation):
        # at d = 1e300 and k up to 1e9, k*d overflows in the last 41 rows:
        # they printed RuntimeWarnings and, on the backward-volume branch,
        # held v_g NaN (P'(inf) was 0*inf).  They hold the large-kd limits
        # now, the values the rows before them have reached, and the rows
        # in range are the kernels' values on their own k, which no
        # overflow reaches
        config = tmp_path / "cfg.txt"
        config.write_text("film.thickness_m = 1e300\n"
                          "dispersion.k_stop_rad_per_m = 1e9\n"
                          f"field.orientation = {orientation}\n")
        assert main(["dispersion", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "dispersion.csv").read_text()
        assert "nan" not in text
        ctx = cf.validate_config(cf.parse_config(config.read_text())).context()
        k = np.logspace(np.log10(50.0), 9.0, 400)
        with np.errstate(over="ignore"):
            inside = np.isfinite(k * 1e300)
        assert np.count_nonzero(~inside) == 41
        with np.errstate(all="raise", under="ignore"):
            f = ph.dispersion_f(ctx, k[inside])
            vg = ph.group_velocity(ctx, k[inside])
        lines = text.splitlines()
        assert "\n".join(lines[:1 + inside.sum()]) + "\n" == csv_table(
            "k_rad_per_m,f_hz,v_g_m_per_s", k[inside], f, vg)
        limit = lines[inside.sum()].split(",")[1:]
        assert limit[1] in ("-0", "0")
        assert all(line.split(",")[1:] == limit
                   for line in lines[1 + inside.sum():])


class TestTransmissionCommand:
    @pytest.mark.parametrize("orientation", list(ph.Orientation))
    def test_memory_does_not_grow_with_the_grid(self, tmp_path, orientation):
        # grids past both band edges, with the carrier mid-band: the
        # backward-volume solve iterates, the surface one is closed form
        ctx = cf.validate_config(cf.parse_config(
            f"field.orientation = {orientation.value}\n")).context()
        lo, hi = ph.band_limits(ctx)
        span = hi - lo
        assert_peak_flat(lambda n: cli_peak(
            tmp_path, "transmission",
            [f"field.orientation = {orientation.value}",
             f"microwave.f_c_hz = {lo + 0.5 * span!r}",
             f"spectrum.f_start_hz = {lo - 0.1 * span!r}",
             f"spectrum.f_stop_hz = {hi + 0.1 * span!r}",
             f"spectrum.n_points = {n}"]))

    def test_three_distinct_channels(self, tmp_path):
        assert main(["transmission", "--out", str(tmp_path)]) == 0
        curves = {}
        for ch in ("i1", "i2", "i3"):
            _, rows = read_csv(tmp_path / f"transmission_{ch}.csv")
            curves[ch] = np.array([float(r[1]) for r in rows])
            f = np.array([float(r[0]) for r in rows])
        above = f > 6.065e9
        for ch, db in curves.items():
            assert np.all(db[above] == -80.0), "stopband must sit on the floor"
            assert db[~above].max() > -80.0
        assert not np.allclose(curves["i1"], curves["i2"])
        assert not np.allclose(curves["i2"], curves["i3"])
        assert not np.allclose(curves["i1"], curves["i3"])


class TestTruthTableCommand:
    def test_decodes_canonical_table(self, tmp_path, capsys):
        assert main(["truthtable", "--out", str(tmp_path)]) == 0
        assert "decoded=00001111" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "truthtable.csv")
        assert len(rows) == 8
        states = [r[3] for r in rows]
        assert states == ["000", "001", "010", "100", "101", "110", "011", "111"]
        decoded = [int(r[6]) for r in rows]
        assert decoded == [lg.majority(*(int(b) for b in s)) for s in states]

    def test_amplitude_ratio_three(self, tmp_path):
        main(["truthtable", "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "truthtable.csv")
        amps = np.array([float(r[5]) for r in rows])
        assert amps.max() / amps.min() == pytest.approx(3.0, abs=1e-3)

    def test_indeterminate_exit_code(self, tmp_path):
        # on an otherwise symmetric gate, thirds-spaced hardware phases null
        # the all-zero reference state, leaving no usable phase anchor
        config = tmp_path / "cfg.txt"
        config.write_text(
            "geometry.l_skew_m = 0, 0, 0\n"
            "microwave.coupling_db = 0, 0, 0\n"
            "microwave.coupling_phase_rad = "
            "2.0943951023931953, 0, -2.0943951023931953\n")
        code = main(["truthtable", "--no-calibrate", "--config", str(config),
                     "--out", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("flags", [["--scale", "8"], ["--config", "tiny"]])
    def test_weak_output_still_decodes(self, tmp_path, capsys, flags):
        # the decode floor scales with the drive and the gains: a 1e-10
        # drive, or the x8 gate whose gains are about 1e-18, decodes as the
        # reference does
        (tmp_path / "tiny").write_text("microwave.drive_amplitude = 1e-10\n")
        flags = [str(tmp_path / f) if f == "tiny" else f for f in flags]
        assert main(["truthtable", *flags, "--out", str(tmp_path)]) == 0
        assert "decoded=00001111" in capsys.readouterr().out


class TestSwitchCommand:
    def test_reference_transition(self, tmp_path, capsys):
        assert main(["switch", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        t_rise = float(out.split("t_rise_s=")[1].split()[0])
        f_clock = float(out.split("f_clock_hz=")[1].split()[0])
        assert t_rise == pytest.approx(11.3e-9, rel=0.05)
        assert f_clock == pytest.approx(88.5e6, rel=0.05)
        header, rows = read_csv(tmp_path / "switch_trace.csv")
        assert header == ["time_s", "value"]
        assert len(rows) > 1000

    def test_miniaturized_is_subnanosecond(self, tmp_path, capsys):
        assert main(["switch", "--scale", "0.05", "--out", str(tmp_path)]) == 0
        t_rise = float(capsys.readouterr().out.split("t_rise_s=")[1].split()[0])
        assert t_rise < 1.0e-9

    def test_out_of_band_carrier_errors(self, tmp_path):
        assert main(["switch", "--fc", "7e9", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("scale", ["8", "20"])
    def test_fill_longer_than_runway_errors(self, tmp_path, capsys, scale):
        # the scaled 1.35 mm path fills in ~380 ns (x8) and ~940 ns (x20),
        # longer than the 160 ns before the analysis window; the causal
        # average cannot wrap, but the transition ends past the start of
        # the plateau the settled level is read from
        code = main(["switch", "--scale", scale, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("physics error: transit fill time")
        assert "3.472e-07 s of the plateau" in err and err.count("\n") == 1

    def test_subnormal_level_exits_3(self, tmp_path, capsys):
        # at 1e-318 V the settled level is subnormal: switch printed a
        # rise time 18% off and exited 0
        config = tmp_path / "cfg.txt"
        config.write_text("detector.responsivity_v = 1e-318\n")
        assert main(["switch", "--config", str(config),
                     "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("physics error: no transition: "
                                       "settled level")
        assert captured.err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))


class TestCalibrateCommand:
    def test_settings_file_reusable(self, tmp_path, capsys):
        assert main(["calibrate", "--out", str(tmp_path)]) == 0
        settings = tmp_path / "calibration.txt"
        assert settings.exists()
        assert "imbalance=1" in capsys.readouterr().out.replace("1.0", "1")
        # feed the emitted settings back without recalibrating
        code = main(["truthtable", "--no-calibrate", "--settings", str(settings),
                     "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "truthtable.csv")
        decoded = [r[6] for r in rows]
        assert decoded == ["0", "0", "0", "0", "1", "1", "1", "1"]

    def test_symmetric_gate_zero_settings(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "geometry.l_skew_m = 0, 0, 0\n"
            "microwave.coupling_db = 0, 0, 0\n"
            "microwave.coupling_phase_rad = 0, 0, 0\n"
        )
        main(["calibrate", "--config", str(config), "--out", str(tmp_path)])
        text = (tmp_path / "calibration.txt").read_text()
        for line in text.splitlines():
            if line.startswith("microwave."):
                assert abs(float(line.split("=")[1])) < 1e-6


    @pytest.mark.parametrize("atten_i1, coupling", [
        (307.5, -6271.5), (310.0, -6274.5)])
    def test_unlevelable_gains_exit_code(self, tmp_path, capsys, atten_i1,
                                         coupling):
        # i1's leveled attenuator factor falls below the smallest normal
        # float, which the +200 dB couplings scale back up: the first gate
        # calibrated with imbalance 2.63 and truthtable exited 0 reading
        # matches_majority=false, the second exited 3 with "dead channel:
        # calibrate amplitudes first"; every calibrating command now
        # refuses both, naming i1
        config = tmp_path / "cfg.txt"
        config.write_text(
            REFERENCE.read_text()
            + "microwave.output_coupling_db = 200\n"
            + f"microwave.coupling_db = 200, {coupling}, {coupling}\n"
            + f"microwave.attenuator_db = {atten_i1}, 0, 0\n")
        for command in ("calibrate", "truthtable", "switch", "fulladder",
                        "scale"):
            code = main([command, "--config", str(config),
                         "--out", str(tmp_path)])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err == ("physics error: channel gains lie too "
                                    "far apart to level i1\n")
        assert not list(tmp_path.glob("*.csv"))
        assert not (tmp_path / "calibration.txt").exists()


class TestSettingsFile:
    @pytest.mark.parametrize("text", [
        "microwave.attenuatr_db.i1 = 3\n",
        "microwave.attenuator_db.i1 = abc\n",
        "microwave.phase_rad.i4 = 0.1\n",
        "microwave.attenuator_db.i2\n",
        "microwave.attenuator_db.i3 = -1\n",
    ])
    def test_rejects_bad_lines(self, tmp_path, capsys, text):
        settings = tmp_path / "calibration.txt"
        settings.write_text(text)
        code = main(["truthtable", "--no-calibrate", "--settings", str(settings),
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_underscore_number_rejected(self, tmp_path, capsys):
        # float would read 1_0 as 10 dB
        settings = tmp_path / "calibration.txt"
        settings.write_text("# c\nmicrowave.attenuator_db.i1 = 1_0\n")
        code = main(["truthtable", "--no-calibrate", "--settings", str(settings),
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: settings line 2: expected a number, got '1_0'\n")

    def test_applies_values_and_skips_residuals(self, tmp_path):
        settings = tmp_path / "calibration.txt"
        settings.write_text("# calibration settings\n"
                            "microwave.attenuator_db.i3 = 2.5\n"
                            "microwave.phase_rad.i1 = -0.25  # trimmed\n"
                            "residual.amplitude_imbalance = 1.0001\n")
        cfg = cli.apply_calibration_file(cf.RunConfig(), str(settings))
        assert cfg.microwave.attenuator_db == (0.0, 0.0, 2.5)
        assert cfg.microwave.phase_rad == (-0.25, 0.0, 0.0)


class TestFullAdderCommand:
    def test_rows_match_arithmetic(self, tmp_path, capsys):
        assert main(["fulladder", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "fulladder.csv")
        assert len(rows) == 8
        for a, b, cin, s, cout, _amp in rows:
            assert 2 * int(cout) + int(s) == int(a) + int(b) + int(cin)
        out = capsys.readouterr().out
        assert "amp_spread=3" in out
        assert "cascadable=false" in out


class TestScaleCommand:
    def test_sweep_summary(self, tmp_path, capsys):
        assert main(["scale", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        r2 = float(out.split("r_squared=")[1].split()[0])
        assert r2 > 0.99
        _, rows = read_csv(tmp_path / "scaling.csv")
        assert len(rows) == 5
        assert all(r[3] == "false" for r in rows)

    @pytest.mark.parametrize("command, lines", [
        ("scale", ["switching.ramp_s = 5e-324"]),
        ("switch", ["switching.ramp_s = 5e-324",
                    "switching.effective_path_m = 0"])])
    def test_subnormal_ramp_runs_quietly(self, tmp_path, capsys, command,
                                         lines):
        # the drive's overflowing ramp variable wrote numpy's warning to
        # stderr beside correct numbers
        config = tmp_path / "cfg.txt"
        config.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_ref_phase_reaches_the_sweep(self, tmp_path, capsys):
        # scale used to run at pi whatever the config said: its scale-1
        # row read the default 11.3 ns while switch read 12.2 ns
        config = tmp_path / "cfg.txt"
        config.write_text("switching.ref_phase_rad = 2.5\n")
        args = ["--config", str(config), "--out", str(tmp_path)]
        assert main(["switch", *args]) == 0
        t_rise = float(capsys.readouterr().out.split("t_rise_s=")[1].split()[0])
        assert t_rise == pytest.approx(12.2e-9, rel=0.01)
        assert main(["scale", *args]) == 0
        _, rows = read_csv(tmp_path / "scaling.csv")
        assert float(rows[0][1]) == pytest.approx(t_rise, rel=1e-6)

    @pytest.mark.parametrize("far, reduced", [
        ("1e17", "-2.6584887370946806"), ("1e300", "-2.1838724841522326")])
    def test_far_ref_phase_runs_as_its_angle(self, tmp_path, capsys, far,
                                             reduced):
        # the raw value was added to the output's angle, which rounded
        # away, and both commands exited 3 (no transition); they now run
        # byte for byte as at the angle of the phasor e^(i far)
        assert float(reduced) == math.atan2(math.sin(float(far)),
                                            math.cos(float(far)))

        def run(command, phase):
            config = tmp_path / f"{phase}.txt"
            config.write_text(f"switching.ref_phase_rad = {phase}\n")
            out = tmp_path / command / phase
            code = main([command, "--config", str(config), "--out", str(out)])
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            return code, stdout, {p.name: p.read_bytes() for p in out.iterdir()}

        for command in ("switch", "scale"):
            code, stdout, artifacts = run(command, far)
            assert code == 0 and artifacts
            assert (code, stdout, artifacts) == run(command, reduced)

    def test_pre_toggle_level_above_a_third_exits_3(self, tmp_path, capsys):
        # at 2.0 the level before the toggle is 0.41 of the settled one:
        # switch used to time the fill's dip below 1/3 (17.2 ns) while
        # the sweep's zero-path floor run exited 3.  Both now exit 3 with
        # the same line, and the sweep's floor run stays fatal
        config = tmp_path / "cfg.txt"
        config.write_text("switching.ref_phase_rad = 2.0\n")
        args = ["--config", str(config), "--out", str(tmp_path)]
        for command in ("switch", "scale"):
            assert main([command, *args]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("physics error: no transition: trace "
                                    "starts above 1/3 level\n")
        assert not list(tmp_path.glob("*.csv"))


class TestCliPlumbing:
    @pytest.mark.parametrize("line, message", [
        # the Larmor frequency gamma * mu0_h / 2 pi at the reference field
        ("film.fit_fmr_hz = 4001200000.0", "below-Larmor target"),
        ("film.gamma_rad_per_s_t = 5e-324",
         "infinite magnetization at mu0_h = 0.1429 T and gamma = 4.94066e-324"),
        ("field.mu0_h_t = 1e-320\nfilm.fit_fmr_hz = 1e-300", "near-Larmor"),
    ])
    def test_unreachable_ms_fit_exit_code(self, tmp_path, capsys, line,
                                          message):
        # these ended in a ValueError (Ms = 0, the first and the last) or
        # a ZeroDivisionError traceback
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        code = main(["dispersion", "--config", str(config),
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("physics error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("mode, fc, band", [
        # 6.06 GHz is the uniform-precession frequency the film is fitted
        # to: the top edge of the backward-volume band, the bottom of the
        # surface band, where k(f_c) is NaN as well
        ("bvmsw", "6.06e9", "4.0012e+09 .. 6.06e+09"),
        ("bvmsw", "1e9", "4.0012e+09 .. 6.06e+09"),
        ("mssw", "6.06e9", "6.06e+09 .. 6.58967e+09"),
        ("mssw", "1e9", "6.06e+09 .. 6.58967e+09"),
    ])
    def test_carrier_outside_the_band_exit_code(self, tmp_path, capsys, mode,
                                                fc, band):
        # every calibrating command names the carrier and the band, where
        # it said "channel i1 has no transmission" with no channel alive;
        # the uncalibrated read-out of that gate stays indeterminate
        for command in ("calibrate", "truthtable", "switch", "fulladder",
                        "scale"):
            code = main([command, "--mode", mode, "--fc", fc,
                         "--out", str(tmp_path)])
            assert code == 3
            assert capsys.readouterr().err == (
                f"physics error: no propagating mode at {float(fc):.6g} Hz "
                f"(band {band} Hz)\n")
        code = main(["truthtable", "--no-calibrate", "--mode", mode,
                     "--fc", fc, "--out", str(tmp_path)])
        assert code == 4

    def test_bad_config_exit_code(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("film.bogus = 1\n")
        assert main(["dispersion", "--config", str(config),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["geometry.w_g_m", "switching.toggle"])
    def test_removed_key_exit_code(self, tmp_path, capsys, key):
        # the waveguide width acted nowhere, and a drive without toggle
        # could only exit 3: both are unknown keys now
        config = tmp_path / "cfg.txt"
        config.write_text(f"{key} = 1\n")
        code = main(["switch", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: line 1: unknown key {key!r}\n")

    @pytest.mark.parametrize("command", ["dispersion", "transmission",
                                         "switch", "calibrate"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_out_exit_code(self, tmp_path, capsys, command, below):
        # --out naming a regular file, or a directory under one: one config
        # line and exit 2, not a FileExistsError or NotADirectoryError
        # traceback, and the file left as it was
        blocker = tmp_path / "file"
        blocker.write_text("keep\n")
        code = main([command, "--out", str(blocker / below)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: cannot write output: ")
        assert err.count("\n") == 1
        assert blocker.read_text() == "keep\n"

    def test_unwritable_artifact_exit_code(self, tmp_path, capsys):
        # the directory exists, but the artifact's name is a directory
        (tmp_path / "dispersion.csv").mkdir()
        assert main(["dispersion", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    @pytest.mark.parametrize("command, artifact", [
        ("switch", "switch_trace.csv"), ("dispersion", "dispersion.csv")])
    def test_failed_artifact_write_exit_code(self, tmp_path, capsys, command,
                                             artifact):
        # the artifact opens, but writing its rows fails (no space left):
        # the writer's os.writev error is one config line and exit 2
        (tmp_path / artifact).symlink_to("/dev/full")
        assert main([command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert "No space left on device" in err and err.count("\n") == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["dispersion", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag", ["--config", "--settings"])
    def test_undecodable_file_exit_code(self, tmp_path, capsys, flag):
        # a file that is not UTF-8 is an unreadable one: this used to end
        # in a UnicodeDecodeError traceback
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"film.mu0_ms_t = 0.176\xff\n")
        code = main(["calibrate", flag, str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        what = "config" if flag == "--config" else "settings"
        assert err.startswith(f"config error: cannot read {what}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1

    def test_empty_scales_line(self, tmp_path, capsys):
        # the word "scale" in the message stays a word, not a key
        config = tmp_path / "cfg.txt"
        config.write_text("scaling.scales =\n")
        code = main(["scale", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: scaling.scales must hold at least one value\n")

    @pytest.mark.parametrize("line, value", [
        ("microwave.phase_rad = 1,,2,3", "1,,2,3"),
        ("scaling.scales = 1,,0.5", "1,,0.5"),
        ("scaling.scales = 1,0.5,", "1,0.5,"),
        ("scaling.scales = ,1", ",1"),
        ("microwave.attenuator_db = 0, ,0", "0, ,0"),
    ])
    def test_empty_list_entry_exit_code(self, tmp_path, capsys, line, value):
        # an empty entry is an error, not a dropped value
        config = tmp_path / "cfg.txt"
        config.write_text(f"# c\n{line}\n")
        code = main(["scale", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: line 2: bad list value {value!r}\n")

    @pytest.mark.parametrize("command, line, message", [
        ("scale", "scaling.scales = 1_0,0.5", "bad list value '1_0,0.5'"),
        ("transmission", "spectrum.n_points = 4_41",
         "expected an integer, got '4_41'"),
        ("switch", "switching.dt_s = 1e-1_0", "expected a number, got '1e-1_0'"),
    ])
    def test_underscore_number_exit_code(self, tmp_path, capsys, command, line,
                                         message):
        # int and float read these as 10, 441 and 1e-10; the config does not
        config = tmp_path / "cfg.txt"
        config.write_text(f"# c\n{line}\n")
        code = main([command, "--config", str(config), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"config error: line 2: {message}\n"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", ["truthtable", "switch"])
    def test_each_record_built_once(self, tmp_path, monkeypatch, command):
        # validation builds the records the command runs on; the flags
        # and the command build none of them again
        counts = {}
        for cls in (ct.DeviceGeometry, ph.BiasField, lg.PhaseEncoding,
                    ex.SwitchTiming):
            def counted(self, post_init=cls.__post_init__, name=cls.__name__):
                counts[name] = counts.get(name, 0) + 1
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        assert main([command, "--mode", "mssw", "--fc", "6.09e9",
                     "--out", str(tmp_path)]) == 0
        assert counts == {"DeviceGeometry": 1, "BiasField": 1,
                          "PhaseEncoding": 1, "SwitchTiming": 1}

    def test_field_override(self, tmp_path):
        # disable the Ms fit so the field shift shows up in the band itself
        config = tmp_path / "cfg.txt"
        config.write_text("film.fit_fmr_hz = 0\n")
        assert main(["dispersion", "--config", str(config), "--field", "0.12",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "dispersion.csv")
        # weaker field pulls the whole branch down
        assert float(rows[0][1]) < 6.0e9

    @pytest.mark.parametrize("flags", [
        ["--scale", "-1"], ["--scale", "0"], ["--field", "0"],
        ["--field", "-0.1"], ["--fc", "-5"],
    ])
    def test_bad_flag_override_exit_code(self, tmp_path, capsys, flags):
        code = main(["calibrate", *flags, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_flag_replaces_a_bad_file_value(self, tmp_path, capsys):
        # flags win, and the config is validated once, after them: a file
        # value a flag replaces is never checked, so this used to exit 2
        config = tmp_path / "cfg.txt"
        config.write_text("microwave.f_c_hz = -1\n")
        args = ["calibrate", "--config", str(config), "--out", str(tmp_path)]
        assert main([*args, "--fc", "6e9"]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_file_value_no_flag_replaces(self, tmp_path, capsys):
        # still exit 2, with the line the validated reader gives
        config = tmp_path / "cfg.txt"
        config.write_text("microwave.f_c_hz = -1\ngeometry.w_a_m = 0\n")
        with pytest.raises(cf.ConfigError) as info:
            cf.parse_config("geometry.w_a_m = 0\n")
        assert str(info.value).startswith("geometry.w_a_m ")
        assert main(["calibrate", "--config", str(config), "--fc", "6e9",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {info.value}\n"

    @pytest.mark.parametrize("flags", [
        ["--scale", "nan"], ["--scale", "inf"], ["--fc", "nan"],
        ["--fc", "inf"], ["--field", "nan"], ["--field", "inf"],
    ])
    def test_non_finite_flag_exit_code(self, tmp_path, capsys, flags):
        # NaN passes every ordering test: calibrate used to exit 0 with
        # attenuator_db=[nan,nan,nan], and --fc/--field nan with exit 3
        code = main(["calibrate", *flags, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"config error: {NAMES[flags[0]]} must be finite\n"

    @pytest.mark.parametrize("line, key", [
        ("microwave.f_c_hz = nan", "microwave.f_c_hz"),
        ("geometry.scale = inf", "geometry.scale"),
        ("geometry.l_in_m = 0.01, -inf, 0.01", "geometry.l_in_m"),
        ("scaling.scales = 1, nan", "scaling.scales"),
        ("switching.effective_path_m = nan", "switching.effective_path_m"),
    ])
    def test_non_finite_config_exit_code(self, tmp_path, capsys, line, key):
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        code = main(["calibrate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {key} must be finite\n"

    @pytest.mark.parametrize("line, key", [
        ("geometry.w_a_m = 0", "geometry.w_a_m"),
        ("geometry.w_a_m = -7.5e-5", "geometry.w_a_m"),
        ("geometry.l_in_m = 0.01, -0.001, 0.01", "geometry.l_in_m"),
        ("geometry.l_skew_m = -0.006, 0, 0.006", "geometry.l_skew_m"),
        ("geometry.l_out_m = -0.01", "geometry.l_out_m"),
        ("geometry.bend_loss_db = -3", "geometry.bend_loss_db"),
        ("film.gamma_rad_per_s_t = 0", "film.gamma_rad_per_s_t"),
        ("switching.ramp_s = 0", "switching.ramp_s"),
        ("switching.ramp_s = 1e-6", "switching.ramp_s"),
        ("switching.t_toggle_s = 0", "switching.t_toggle_s"),
        ("switching.t_toggle_s = 4.096e-7", "switching.t_toggle_s"),
        ("detector.lp_cutoff_hz = 0", "detector.lp_cutoff_hz"),
        ("detector.lp_cutoff_hz = -1", "detector.lp_cutoff_hz"),
        ("detector.lp_cutoff_hz = 5e9", "detector.lp_cutoff_hz"),
        ("switching.effective_path_m = -0.001", "switching.effective_path_m"),
        ("microwave.drive_amplitude = 0", "microwave.drive_amplitude"),
        ("microwave.drive_amplitude = -1e300", "microwave.drive_amplitude"),
        ("microwave.coupling_db = 0, 0, 201", "microwave.coupling_db"),
        ("microwave.output_coupling_db = 5e16", "microwave.output_coupling_db"),
        ("detector.responsivity_v = -2", "detector.responsivity_v"),
        ("film.mu0_ms_t = 0", "film.mu0_ms_t"),
        ("film.thickness_m = -5.4e-6", "film.thickness_m"),
        ("film.linewidth_t = -1e-5", "film.linewidth_t"),
        ("film.fit_fmr_hz = -6e9", "film.fit_fmr_hz"),
        ("field.mu0_h_t = 0", "field.mu0_h_t"),
        ("field.orientation = diagonal", "field.orientation"),
        ("geometry.scale = -1", "geometry.scale"),
        ("microwave.f_c_hz = 0", "microwave.f_c_hz"),
        ("microwave.attenuator_db = 0, -1, 0", "microwave.attenuator_db"),
        ("encoding.guard_rad = 0", "encoding.guard_rad"),
        ("encoding.guard_rad = 1.6", "encoding.guard_rad"),
        ("switching.dt_s = 0", "switching.dt_s"),
        # one sample of 200 ns in the 280 ns analysis window
        ("switching.dt_s = 2e-7", "switching.dt_s"),
        ("switching.duration_s = 1e-10", "switching.duration_s"),
        # 2.8e9 samples in the analysis window: used to allocate them
        ("switching.dt_s = 1e-16", "switching.dt_s"),
        ("spectrum.n_points = 1", "spectrum.n_points"),
        ("spectrum.f_stop_hz = 5e9", "spectrum.f_stop_hz"),
        # the message names the pair, stop first
        ("spectrum.f_start_hz = 7e9", "spectrum.f_stop_hz"),
        # a grid finer than one ulp: used to end in a traceback ("frequency
        # grid must be ascending"); the files are written block by block,
        # so it is refused before any is opened
        ("spectrum.f_start_hz = 6.0e9\nspectrum.f_stop_hz = 6.0000000000001e9",
         "spectrum.n_points"),
        ("dispersion.n_points = 0", "dispersion.n_points"),
        # grids beyond 2^20 points: used to end in a numpy traceback (or to
        # allocate them); rejected before anything is allocated
        ("spectrum.n_points = 1048577", "spectrum.n_points"),
        ("spectrum.n_points = 100000000000000000000", "spectrum.n_points"),
        ("dispersion.n_points = 1048577", "dispersion.n_points"),
        ("dispersion.n_points = 100000000000000000000", "dispersion.n_points"),
        ("dispersion.k_start_rad_per_m = -50", "dispersion.k_start_rad_per_m"),
        ("dispersion.k_stop_rad_per_m = 10", "dispersion.k_stop_rad_per_m"),
        ("scaling.scales = 1, 0, 0.5", "scaling.scales"),
        # an empty sweep used to exit 0 with a header-only scaling.csv and
        # slope_s=nan r_squared=nan
        ("scaling.scales =", "scaling.scales"),
    ])
    def test_out_of_range_config_exit_code(self, tmp_path, capsys, line, key):
        # each used to end in a ValueError/OverflowError traceback (exit 1),
        # exit 3, a message naming no key, or, for a negative path, a run
        # that echoed it back
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        code = main(["switch", "--config", str(config), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {key} ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--fc"], "argument --fc: expected one argument"),
        (["calibrate", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["calibrate", "--mode", "foo"], "argument --mode: invalid choice: 'foo'"),
        (["calibrate", "--fc", "abc"], "argument --fc: invalid float value: 'abc'"),
        # argparse reads -1e300 as an option, not as the value of --fc
        (["calibrate", "--fc", "-1e300"], "argument --fc: expected one argument"),
        # digit-group underscores are no number, as in the config
        (["calibrate", "--fc", "6_0e9"],
         "argument --fc: invalid float value: '6_0e9'"),
        (["calibrate", "--field", "0.1_4"],
         "argument --field: invalid float value: '0.1_4'"),
        (["calibrate", "--scale", "1_0"],
         "argument --scale: invalid float value: '1_0'"),
    ])
    def test_usage_error_one_line(self, capsys, argv, message):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: spingate calibrate") and err == ""

    def test_help_lists_the_command_table(self, capsys, monkeypatch):
        # the program's help lists the seven commands in order, each with
        # its help line, and only truthtable offers --no-calibrate
        monkeypatch.setenv("COLUMNS", "80")

        def help_text(*argv):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            out, err = capsys.readouterr()
            assert exc.value.code == 0 and err == ""
            return out

        listing = re.findall(r"^    (\w+) +(\S.*)$", help_text(), re.M)
        assert listing == [
            ("dispersion", "tabulate f(k) and group velocity"),
            ("transmission", "per-channel transmission spectra"),
            ("truthtable", "calibrate and run all eight input states"),
            ("switch", "phase-toggle switching transient and rise time"),
            ("calibrate", "amplitude/phase calibration; writes a settings file"),
            ("fulladder", "majority-composed full adder over all inputs"),
            ("scale", "miniaturization sweep of the switching transient")]
        for command, _ in listing:
            assert (("--no-calibrate" in help_text(command))
                    == (command == "truthtable"))

    @pytest.mark.parametrize("line, key", [
        ("microwave.attenuator_db.i1 = nan", "microwave.attenuator_db"),
        ("microwave.phase_rad.i3 = -inf", "microwave.phase_rad"),
    ])
    def test_non_finite_settings_exit_code(self, tmp_path, capsys, line, key):
        settings = tmp_path / "calibration.txt"
        settings.write_text(line + "\n")
        code = main(["truthtable", "--no-calibrate", "--settings", str(settings),
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {key} must be finite\n"

    def test_seedless_flag_rejected(self, tmp_path, capsys):
        # the flag is gone; argparse's error is one config error line
        assert main(["dispersion", "--seedless", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_determinism_byte_identical(self, tmp_path):
        # repeated calls in one process share the parser and nothing else
        a, b = tmp_path / "a", tmp_path / "b"
        for command in ("calibrate", "truthtable", "fulladder", "switch"):
            assert main([command, "--out", str(a)]) == 0
            assert main([command, "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert len(names) == 4
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mssw_truthtable_at_retuned_carrier(self, tmp_path):
        # the surface-wave band sits above the k = 0 line: retune and run
        code = main(["truthtable", "--mode", "mssw", "--fc", "6.09e9",
                     "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "truthtable.csv")
        decoded = [r[6] for r in rows]
        assert decoded == ["0", "0", "0", "0", "1", "1", "1", "1"]

    def test_mssw_switching_at_retuned_carrier(self, tmp_path, capsys):
        # the forward branch is faster here, so the same effective path
        # fills quicker than in the backward configuration
        assert main(["switch", "--mode", "mssw", "--fc", "6.09e9",
                     "--out", str(tmp_path)]) == 0
        t_rise = float(capsys.readouterr().out.split("t_rise_s=")[1].split()[0])
        assert 2e-9 < t_rise < 11.3e-9

    def test_untuned_mssw_logic_reports_band_error(self, tmp_path):
        assert main(["truthtable", "--mode", "mssw", "--out", str(tmp_path)]) == 3


NAMES = {"--scale": "geometry.scale", "--fc": "microwave.f_c_hz",
         "--field": "field.mu0_h_t"}
EXTREMES = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300,
            1e-300, -1e-300]
# per flag, the range in which a command can succeed
WORKING = {"--scale": (0.05, 2.0), "--fc": (5.9e9, 6.2e9), "--field": (0.13, 0.16)}
SETTINGS_KEYS = [f"microwave.{name}.{ch}" for name in ("attenuator_db", "phase_rad")
                 for ch in ct.CHANNELS]
number_text = st.one_of(
    st.sampled_from(EXTREMES).map(repr), st.floats().map(repr),
    st.floats(0.0, 10.0).map(repr),
    st.sampled_from(["1e999", "-1e999", "NaN", "abc", "", "1,2"]))
settings_lines = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(SETTINGS_KEYS), number_text),
    st.builds("residual.{} = {}".format, st.sampled_from(["amplitude_imbalance", "x"]),
              number_text),
    st.sampled_from(["", "# comment", "microwave.attenuatr_db.i1 = 3",
                     "microwave.phase_rad.i4 = 0", "no equals sign", "= 1"]))


@settings(max_examples=150, deadline=2000)
@given(command=st.sampled_from(["calibrate", "truthtable", "switch"]),
       values=st.fixed_dictionaries(
           {}, optional={flag: st.one_of(st.sampled_from(EXTREMES), st.floats(),
                                         st.floats(*WORKING[flag]))
                         for flag in NAMES}),
       spaced=st.booleans(),
       mode=st.sampled_from([None, "bvmsw", "mssw"]),
       lines=st.one_of(st.none(), st.lists(settings_lines, max_size=6)))
def test_flag_fuzz_exits_with_documented_code(command, values, spaced, mode,
                                              lines):
    # every input ends in exit 0, 2, 3 or 4 with at most one stderr line,
    # no exception and no warning; "--flag=value" reaches the config
    # validation with any value, "--flag value" also the usage errors
    # (argparse takes a value such as -1e300 for an option)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--out", tmp]
        for flag, value in values.items():
            argv += [flag, repr(value)] if spaced else [f"{flag}={value!r}"]
        if mode:
            argv.append(f"--mode={mode}")
        if lines is not None:
            settings_path = Path(tmp) / "settings.txt"
            settings_path.write_text("\n".join(lines) + "\n")
            argv.append(f"--settings={settings_path}")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert err.startswith(("config error: ", "physics error: "))
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


# config-file keys the fuzz draws: every field of these sections but the
# switching grid, whose dt_s and duration_s set allocation sizes
FUZZ_SECTIONS = {"geometry": cf.GeometryConfig(), "film": cf.FilmConfig(),
                 "switching": cf.SwitchingConfig(), "detector": cf.DetectorConfig(),
                 "microwave": cf.MicrowaveConfig()}
FUZZ_KEYS = [(section, name) for section, obj in FUZZ_SECTIONS.items()
             for name in vars(obj) if name not in ("dt_s", "duration_s")]


def config_number(default):
    # extremes, any float, or the default rescaled by either sign
    return st.one_of(st.sampled_from(EXTREMES), st.floats(),
                     st.floats(0.5, 2.0).map(lambda r: default * r),
                     st.floats(-2.0, -0.5).map(lambda r: default * r))


@st.composite
def config_lines(draw):
    section, name = draw(st.sampled_from(FUZZ_KEYS))
    default = getattr(FUZZ_SECTIONS[section], name)
    if isinstance(default, tuple):
        value = ",".join(repr(draw(config_number(d or 1e-3))) for d in default)
    else:
        value = repr(draw(config_number(default or 1e-3)))
    return f"{section}.{name} = {value}"


@settings(max_examples=100, deadline=2000)
@given(command=st.sampled_from(["calibrate", "truthtable", "switch"]),
       lines=st.lists(config_lines(), max_size=4))
def test_config_fuzz_exits_with_documented_code(command, lines):
    # random values (0, -0, negatives, 1e+-300, nan, +-inf, rescaled
    # defaults) for a few keys of a config file: the same contract as the
    # flag fuzz
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.txt"
        config.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--config", str(config), "--out", tmp])
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert err.startswith(("config error: ", "physics error: "))
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


def test_edge_rows_render_exactly(tmp_path, capsys):
    # an indeterminate read-out and a flagged scaling row, as written
    config = tmp_path / "cfg.txt"
    config.write_text(REFERENCE.read_text() + "encoding.guard_rad = 0.05\n"
                      "scaling.scales = 1,0.5,1000\n")
    args = ["--config", str(config), "--out", str(tmp_path)]
    assert main(["truthtable", "--no-calibrate", *args]) == 4
    assert (tmp_path / "truthtable.csv").read_text().splitlines() == [
        "in_phase_i1_rad,in_phase_i2_rad,in_phase_i3_rad,state,out_phase_rad,"
        "out_amp,decoded",
        "0,0,0,000,0,0.0236686651839,0",
        "0,0,3.14159265359,001,0.332373071254,0.0258473848186,indeterminate",
        "0,3.14159265359,0,010,-2.45562355609,0.0222122782337,indeterminate",
        "3.14159265359,0,0,100,0.330573044243,0.0173640230235,indeterminate",
        "3.14159265359,0,3.14159265359,101,0.685969097501,0.0222122782337,"
        "indeterminate",
        "3.14159265359,3.14159265359,0,110,-2.80921958234,0.0258473848186,"
        "indeterminate",
        "0,3.14159265359,3.14159265359,011,-2.81101960935,0.0173640230235,"
        "indeterminate",
        "3.14159265359,3.14159265359,3.14159265359,111,3.14159265359,"
        "0.0236686651839,1"]
    assert "decoded=0xxxxxx1 " in capsys.readouterr().out
    assert main(["scale", *args]) == 0
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert len(lines) == 4 and lines[-1] == "1000,nan,nan,true"


@pytest.mark.parametrize("flags", [[], ["--mode", "mssw", "--fc", "6.09e9"]])
def test_csv_artifacts_match_per_value_writer(tmp_path, flags):
    # the artifacts equal the one-value-at-a-time writer on the same arrays
    args = ["--config", str(REFERENCE), "--out", str(tmp_path), *flags]
    for command in ("dispersion", "transmission", "switch"):
        assert main([command, *args]) == 0
    setup = cli._load_config(cli.make_parser().parse_args(["switch", *args]))
    cfg = setup.cfg

    d = cfg.dispersion
    if d.log_k:
        k = np.logspace(np.log10(d.k_start_rad_per_m),
                        np.log10(d.k_stop_rad_per_m), d.n_points)
    else:
        k = np.linspace(d.k_start_rad_per_m, d.k_stop_rad_per_m, d.n_points)
    ctx = setup.context()
    expect = csv_table("k_rad_per_m,f_hz,v_g_m_per_s", k,
                       ph.dispersion_f(ctx, k), ph.group_velocity(ctx, k))
    assert (tmp_path / "dispersion.csv").read_text() == expect

    sp = cfg.spectrum
    f_grid = np.linspace(sp.f_start_hz, sp.f_stop_hz, sp.n_points)
    nl = cf.build_netlist(cfg)
    spectra = ct.transmission_spectrum(nl, f_grid, floor_db=sp.floor_db)
    for ch, db in zip(ct.CHANNELS, spectra):
        expect = csv_table("f_hz,s21_db", f_grid, db)
        assert (tmp_path / f"transmission_{ch}.csv").read_text() == expect

    nl, _ = ex.calibrate(cf.build_netlist(cfg))
    trace = ex.run_switching(
        nl, enc=setup.switching["enc"], ref_phase=cfg.switching.ref_phase_rad,
        timing=setup.switching["timing"],
        effective_path=cfg.switching.effective_path_m * cfg.geometry.scale,
        lp_cutoff=cfg.detector.lp_cutoff_hz,
        responsivity=cfg.detector.responsivity_v).trace
    expect = csv_table("time_s,value", np.arange(len(trace)) * trace.dt,
                       trace.samples)
    assert (tmp_path / "switch_trace.csv").read_text() == expect


# per config key: a changed value and the command whose artifacts, summary
# line or exit code then differ from the default run's
ACTING = [
    ("film.mu0_ms_t", "0.18", "dispersion"),
    ("film.thickness_m", "6e-6", "dispersion"),
    ("film.gamma_rad_per_s_t", "1.8e11", "dispersion"),
    ("film.linewidth_t", "1e-4", "transmission"),
    ("film.fit_fmr_hz", "6.05e9", "dispersion"),
    ("field.mu0_h_t", "0.145", "dispersion"),
    ("field.orientation", "perpendicular", "dispersion"),
    ("geometry.w_a_m", "1e-4", "transmission"),
    ("geometry.l_in_m", "0.012, 0.01, 0.01", "transmission"),
    ("geometry.l_skew_m", "0.004, 0, 0.006", "transmission"),
    ("geometry.l_out_m", "0.012", "transmission"),
    ("geometry.bend_loss_db", "4", "transmission"),
    ("geometry.scale", "0.5", "transmission"),
    ("microwave.f_c_hz", "6.03e9", "calibrate"),
    ("microwave.drive_amplitude", "2", "switch"),
    ("microwave.attenuator_db", "1, 0, 0", "transmission"),
    ("microwave.phase_rad", "0.1, 0, 0", "truthtable --no-calibrate"),
    ("microwave.coupling_db", "-1, 0, -1.2", "transmission"),
    ("microwave.coupling_phase_rad", "0.3, 0, -0.65", "calibrate"),
    ("microwave.output_coupling_db", "1", "transmission"),
    ("detector.responsivity_v", "2", "switch"),
    ("detector.lp_cutoff_hz", "2e8", "switch"),
    ("encoding.phi0_rad", "0.1", "truthtable"),
    ("encoding.guard_rad", "0.1", "truthtable --no-calibrate"),
    ("switching.dt_s", "5e-11", "switch"),
    ("switching.duration_s", "8.192e-7", "switch"),
    ("switching.t_toggle_s", "1.9e-7", "switch"),
    ("switching.ramp_s", "3e-9", "switch"),
    ("switching.ref_phase_rad", "2.5", "scale"),
    ("switching.effective_path_m", "1.2e-3", "switch"),
    ("spectrum.f_start_hz", "5.95e9", "transmission"),
    ("spectrum.f_stop_hz", "6.1e9", "transmission"),
    ("spectrum.n_points", "201", "transmission"),
    ("spectrum.floor_db", "-60", "transmission"),
    ("dispersion.k_start_rad_per_m", "100", "dispersion"),
    ("dispersion.k_stop_rad_per_m", "1e5", "dispersion"),
    ("dispersion.n_points", "300", "dispersion"),
    ("dispersion.log_k", "false", "dispersion"),
    ("scaling.scales", "1, 0.5", "scale"),
]
# lines both runs of a key share: the fit sets Ms whatever mu0_ms_t says
ACTING_BASE = {"film.mu0_ms_t": "film.fit_fmr_hz = 0\n"}


@functools.cache
def outcome(command, text):
    """Exit code, stdout, stderr and artifacts of one run of a config."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.txt"
        config.write_text(text)
        out_dir = Path(tmp) / "out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command.split(), "--config", str(config),
                         "--out", str(out_dir)])
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return code, out.getvalue().replace(tmp, ""), err.getvalue(), files


def test_acting_table_holds_every_key():
    keys = [line.split(" = ")[0]
            for line in cf.serialize_config(cf.RunConfig()).splitlines()]
    assert sorted(keys) == sorted(key for key, _, _ in ACTING)


@pytest.mark.parametrize("key, value, command", ACTING,
                         ids=[key for key, _, _ in ACTING])
def test_every_key_acts(key, value, command):
    # geometry.w_g_m acted nowhere, and scale dropped switching.ref_phase_rad
    base = ACTING_BASE.get(key, "")
    assert outcome(command, f"{base}{key} = {value}\n") != outcome(command, base)
