import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import csv_table
from spingate import circuit as ct
from spingate import cli
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
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
        assert cfg.field_.mu0_h_t == pytest.approx(0.1429)
        assert cfg.microwave.f_c_hz == pytest.approx(6.035e9)
        assert cfg.field_.orientation == "parallel"
        ctx = cf.build_context(cfg)
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
            "switching.toggle = false\n"
        )
        assert cfg.field_.mu0_h_t == 0.15
        assert cfg.microwave.f_c_hz == 6.2e9
        assert cfg.geometry.l_skew_m == (0.004, 0.0, 0.004)
        assert cfg.switching.toggle is False

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
        "switching.toggle = maybe",
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
        ("scaling.scales = 1,x\n", "bad list value '1,x'"),
        ("microwave.include_switch = false\n",
         "line 1: unknown key 'microwave.include_switch'"),
    ])
    def test_error_messages_name_the_line(self, text, message):
        with pytest.raises(cf.ConfigError, match=f"^{re.escape(message)}$"):
            cf.parse_config(text)

    def test_repeated_key_keeps_last_value(self):
        cfg = cf.parse_config("scaling.scales = 1, 0.5, 0.2\n"
                              "scaling.scales = 1, 0.5\n"
                              "field.mu0_h_t = 0.15\nfield.mu0_h_t = 0.16\n")
        assert cfg.scaling.scales == (1.0, 0.5)
        assert cfg.field_.mu0_h_t == 0.16

    def test_build_netlist_ignores_include_switch(self):
        cfg = cf.RunConfig()
        gains = cf.build_netlist(cfg, include_switch=True).carrier_gains
        assert gains.tobytes() == cf.build_netlist(cfg).carrier_gains.tobytes()

    def test_build_context_orientation(self):
        cfg = cf.parse_config("field.orientation = perpendicular")
        assert cf.build_context(cfg).branch == ph.Orientation.PERPENDICULAR.branch

    def test_ms_fit_disabled(self):
        cfg = cf.parse_config("film.fit_fmr_hz = 0")
        ctx = cf.build_context(cfg)
        assert ctx.film.Ms * ph.MU0 == pytest.approx(0.176, rel=1e-12)


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


class TestTransmissionCommand:
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

    def test_no_toggle_errors(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("switching.toggle = false\n")
        code = main(["switch", "--config", str(config), "--out", str(tmp_path)])
        assert code == 3

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


class TestCliPlumbing:
    def test_bad_config_exit_code(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("film.bogus = 1\n")
        assert main(["dispersion", "--config", str(config),
                     "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["dispersion", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 2

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
        ("geometry.w_g_m = 0", "geometry.w_g_m"),
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
        ("dispersion.n_points = 0", "dispersion.n_points"),
        ("dispersion.k_start_rad_per_m = -50", "dispersion.k_start_rad_per_m"),
        ("dispersion.k_stop_rad_per_m = 10", "dispersion.k_stop_rad_per_m"),
        ("scaling.scales = 1, 0, 0.5", "scaling.scales"),
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

    def test_toggle_time_free_without_toggle(self):
        # a constant drive never reads the toggle instant
        cfg = cf.parse_config("switching.toggle = false\nswitching.t_toggle_s = 0\n")
        assert cfg.switching.t_toggle_s == 0.0

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--fc"], "argument --fc: expected one argument"),
        (["calibrate", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["calibrate", "--mode", "foo"], "argument --mode: invalid choice: 'foo'"),
        (["calibrate", "--fc", "abc"], "argument --fc: invalid float value: 'abc'"),
        # argparse reads -1e300 as an option, not as the value of --fc
        (["calibrate", "--fc", "-1e300"], "argument --fc: expected one argument"),
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
    if isinstance(default, bool):
        value = draw(st.sampled_from(["true", "false"]))
    elif isinstance(default, tuple):
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


@pytest.mark.parametrize("flags", [[], ["--mode", "mssw", "--fc", "6.09e9"]])
def test_csv_artifacts_match_per_value_writer(tmp_path, flags):
    # the artifacts equal the one-value-at-a-time writer on the same arrays
    args = ["--config", str(REFERENCE), "--out", str(tmp_path), *flags]
    for command in ("dispersion", "transmission", "switch"):
        assert main([command, *args]) == 0
    cfg = cli._load_config(cli.make_parser().parse_args(["switch", *args]))

    d = cfg.dispersion
    if d.log_k:
        k = np.logspace(np.log10(d.k_start_rad_per_m),
                        np.log10(d.k_stop_rad_per_m), d.n_points)
    else:
        k = np.linspace(d.k_start_rad_per_m, d.k_stop_rad_per_m, d.n_points)
    ctx = cf.build_context(cfg)
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
        nl, enc=cf.build_encoding(cfg), ref_phase=cfg.switching.ref_phase_rad,
        timing=cf.build_timing(cfg),
        effective_path=cfg.switching.effective_path_m * cfg.geometry.scale,
        lp_cutoff=cfg.detector.lp_cutoff_hz,
        responsivity=cfg.detector.responsivity_v).trace
    expect = csv_table("time_s,value", trace.times, trace.samples)
    assert (tmp_path / "switch_trace.csv").read_text() == expect
