import numpy as np
import pytest

from spingate import cli
from spingate import config as cf
from spingate import logic as lg
from spingate import physics as ph
from spingate.cli import main


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
        from pathlib import Path
        ref = Path(__file__).resolve().parent.parent / "configs" / "reference.txt"
        assert cf.parse_config(ref.read_text()) == cf.RunConfig()

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
        "microwave.include_switch = maybe",
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

    def test_seedless_flag_accepted(self, tmp_path):
        assert main(["dispersion", "--seedless", "--out", str(tmp_path)]) == 0

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["truthtable", "--out", str(a)])
        main(["truthtable", "--out", str(b)])
        assert (a / "truthtable.csv").read_bytes() == (b / "truthtable.csv").read_bytes()
        main(["switch", "--out", str(a)])
        main(["switch", "--out", str(b)])
        assert (a / "switch_trace.csv").read_bytes() == (b / "switch_trace.csv").read_bytes()

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
