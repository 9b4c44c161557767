import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from spingate import cli
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate import signal as sig
from spingate import table
from spingate.record import replace

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_artifacts.py"
REFERENCE = TOOL.parent.parent / "configs" / "reference.txt"
spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_artifacts)

CALIBRATION = ("# calibration settings\n"
               "microwave.attenuator_db.i1 = {a}\n"
               "residual.phase_error_rad = nan\n")
RUN = ("exit = 0\nstdout:\ncalibrate attenuator_db=[0.700,0.000,1.452] "
       "-> <out>/calibration.txt\nstderr:\n")
TRACE = "time_s,value\n0,0\n1e-10,{v}\n"


def write_tree(root, a="0.700468911463", v="5.00321e-05", run=RUN):
    (root / "plain" / "calibrate").mkdir(parents=True)
    (root / "plain" / "calibrate" / "calibration.txt").write_text(
        CALIBRATION.format(a=a))
    (root / "plain" / "calibrate.run").write_text(run)
    (root / "plain" / "switch").mkdir()
    (root / "plain" / "switch" / "switch_trace.csv").write_text(TRACE.format(v=v))
    return root


def test_matching_trees(tmp_path, capsys):
    # numbers within 1e-10 relative and NaN against NaN agree
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", a="0.700468911463000001", v="5.003210000001e-05")
    assert compare_artifacts.compare_trees(a, b) == []
    assert compare_artifacts.main(["compare", str(a), str(b)]) == 0
    # the run record is the one file whose bytes are the same; the other
    # two are listed with the largest relative difference of their numbers
    assert compare_artifacts.main(["compare", str(a), str(a)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "plain/calibrate/calibration.txt: bytes differ, numbers agree to "
        "0 relative",
        "plain/switch/switch_trace.csv: bytes differ, numbers agree to "
        "2e-13 relative",
        "0 differences over 3 files (rtol 1e-10), 1 byte-identical",
        "0 differences over 3 files (rtol 1e-10), 3 byte-identical"]
    assert compare_artifacts.agreeing_differences(a, a) == {}


@pytest.mark.parametrize("edit, where", [
    ({"v": "5.00321000500321e-05"}, "switch_trace.csv:3"),
    ({"a": "0.700468912163"}, "calibration.txt:2"),
    ({"run": RUN.replace("exit = 0", "exit = 3")}, "calibrate.run:1"),
    ({"run": RUN.replace("calibrate attenuator_db", "calibrate attenuator")},
     "calibrate.run:3"),
])
def test_differences_found(tmp_path, capsys, edit, where):
    # a number off by 1e-9 relative, an exit code or a word differs
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", **edit)
    diffs = compare_artifacts.compare_trees(a, b)
    assert len(diffs) == 1 and where in diffs[0]
    assert compare_artifacts.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "1 differences" in out
    # one line per differing file names its largest relative difference
    worst = [line for line in out.splitlines()
             if "largest relative difference" in line]
    assert len(worst) == 1 and where.split(":")[0] in worst[0]


def test_missing_file(tmp_path):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    (b / "plain" / "switch" / "switch_trace.csv").unlink()
    diffs = compare_artifacts.compare_trees(a, b)
    assert diffs == [f"plain/switch/switch_trace.csv: only in {a}"]


def test_jobs_cover_the_settings_paths(tmp_path):
    # every command runs, and truthtable also without calibration and on
    # the settings file written by the same flag set's calibrate job
    jobs = compare_artifacts.JOBS
    assert {argv[0] for argv in jobs.values()} == {
        "dispersion", "transmission", "calibrate", "truthtable", "switch",
        "fulladder", "scale", "--help"}
    # the program's and truthtable's help text record the parser
    assert jobs["help"] == ["--help"]
    assert jobs["truthtable-help"] == ["truthtable", "--help"]
    assert jobs["truthtable-no-calibrate"] == ["truthtable", "--no-calibrate"]
    # both read-out commands also run at code phases other than 0 and pi
    assert {job: jobs[job] for job in jobs if job.endswith("-phi0")} == {
        "truthtable-phi0": ["truthtable"], "fulladder-phi0": ["fulladder"]}
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.APPENDED["-phi0"]))
    assert cfg.encoding.phi0_rad == 2.5
    order = list(jobs)
    assert order.index("calibrate") < order.index("truthtable-settings")
    set_dir = tmp_path / "plain"
    assert compare_artifacts.job_argv("truthtable-settings", set_dir) == [
        "truthtable", "--settings",
        str(set_dir / "calibrate" / "calibration.txt")]


def test_flag_sets_cover_every_override():
    # each override flag of the CLI runs in some flag set
    flags = {arg for argv in compare_artifacts.FLAG_SETS.values()
             for arg in argv if arg.startswith("--")}
    assert flags == {f"--{flag}" for flag in cli._FLAG_KEYS}


def test_dense_jobs_span_blocks_and_band_edges():
    # the dense jobs write more than two blocks of the CSV writer on both
    # grids, and their spectrum spans both band edges of either branch
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-dense")} == {
        "dispersion-dense": ["dispersion"],
        "transmission-dense": ["transmission"]}
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.DENSE))
    assert min(cfg.spectrum.n_points, cfg.dispersion.n_points) > 2 * table.BLOCK_ROWS
    for orientation in ("parallel", "perpendicular"):
        field = replace(cfg.field, orientation=orientation)
        lo, hi = ph.band_limits(
            cf.validate_config(replace(cfg, field=field)).context())
        assert cfg.spectrum.f_start_hz < lo < hi < cfg.spectrum.f_stop_hz


def test_wide_jobs_span_compute_blocks():
    # the wide jobs compute both grids in more than three blocks of
    # table.COMPUTE_ROWS, the last one partial for the writer's blocks
    # too, where a dense grid fits in one
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-wide")} == {
        "dispersion-wide": ["dispersion"],
        "transmission-wide": ["transmission"]}
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.WIDE))
    for n in (cfg.spectrum.n_points, cfg.dispersion.n_points):
        assert n > 3 * table.COMPUTE_ROWS
        assert n % table.COMPUTE_ROWS and n % table.BLOCK_ROWS
    dense = cf.parse_config(REFERENCE.read_text()
                            + "\n".join(compare_artifacts.DENSE))
    assert dense.spectrum.n_points < table.COMPUTE_ROWS
    for orientation in ("parallel", "perpendicular"):
        field = replace(cfg.field, orientation=orientation)
        lo, hi = ph.band_limits(
            cf.validate_config(replace(cfg, field=field)).context())
        assert cfg.spectrum.f_start_hz < lo < hi < cfg.spectrum.f_stop_hz


def test_linear_job_spans_compute_blocks_of_a_linear_k_grid():
    # the other dispersion jobs run on log_k grids; the linear one runs
    # the wide grid of k spaced evenly, in more than three blocks of
    # table.COMPUTE_ROWS, the last one partial
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-linear")} == {
        "dispersion-linear": ["dispersion"]}
    assert compare_artifacts.LINEAR[:-1] == compare_artifacts.WIDE
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.LINEAR))
    assert cf.parse_config(REFERENCE.read_text()).dispersion.log_k
    assert not cfg.dispersion.log_k
    n = cfg.dispersion.n_points
    assert n > 3 * table.COMPUTE_ROWS and n % table.COMPUTE_ROWS


def test_long_jobs_reach_the_window_tail():
    # the long jobs run switch and scale on a record whose analysis window
    # closes WINDOW_TAIL after the toggle, before the record's end; on the
    # reference config it closes at the record's end
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-long")} == {
        "switch-long": ["switch"], "scale-long": ["scale"]}
    reference = cf.parse_config(REFERENCE.read_text())
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.LONG))
    timing = cf.validate_config(cfg).switching["timing"]
    assert timing.window[1] == round((timing.t_toggle + ex.WINDOW_TAIL)
                                     / timing.dt)
    assert timing.window[1] * timing.dt < timing.duration
    base = cf.validate_config(reference).switching["timing"]
    assert base.window[1] == round(base.duration / base.dt)
    assert base.t_toggle + ex.WINDOW_TAIL > base.duration


def recorded_slot_widths(monkeypatch) -> list[int]:
    """The list that receives the slot width, in words, of each block
    the CSV writer formats from now on, in order."""
    widths = []
    format_block = table._format_block

    def recorded(x, sep_index):
        slots = format_block(x, sep_index)
        widths.append(slots.shape[1])
        return slots

    monkeypatch.setattr(table, "_format_block", recorded)
    return widths


def test_small_k_job_mixes_both_slot_layouts(tmp_path, monkeypatch):
    # the small-k job's one backward-volume file, negative v_g, takes the
    # CSV writer's four-word slots for its first two blocks (k below 1)
    # and its two-word slots for the last three, every value of those
    # with a decimal exponent 0 <= X < 12
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-small-k")} == {
        "dispersion-small-k": ["dispersion"]}
    config = tmp_path / "small-k.txt"
    config.write_text(REFERENCE.read_text()
                      + "\n".join(compare_artifacts.SMALL_K) + "\n")
    cfg = cf.parse_config(config.read_text())
    assert cfg.dispersion.k_start_rad_per_m == 1e-3
    assert cfg.dispersion.n_points == 9000
    widths = recorded_slot_widths(monkeypatch)
    assert cli.main(["dispersion", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    assert widths == [4, 4, 2, 2, 2]
    v_g = np.loadtxt(tmp_path / "dispersion.csv", delimiter=",",
                     skiprows=1)[:, 2]
    assert v_g.size == 9000 and (v_g < 0).all()


def test_bright_job_mixes_three_and_four_word_slots(tmp_path, monkeypatch):
    # the bright job's trace, 39 blocks of the CSV writer, takes its
    # three-word slots while the levels are below 1e-4 (the first 6
    # blocks) and its four-word slots once they write a "0.00" prefix
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-bright")} == {
        "switch-bright": ["switch"]}
    assert compare_artifacts.BRIGHT[:-1] == compare_artifacts.FINE
    config = tmp_path / "bright.txt"
    config.write_text(REFERENCE.read_text()
                      + "\n".join(compare_artifacts.BRIGHT) + "\n")
    assert cf.parse_config(config.read_text()).detector.responsivity_v == 1e4
    widths = recorded_slot_widths(monkeypatch)
    assert cli.main(["switch", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    assert widths == [3] * 6 + [4] * 33
    levels = np.loadtxt(tmp_path / "switch_trace.csv", delimiter=",",
                        skiprows=1)[:, 1]
    assert levels.size == 79872 and 0.5 < levels.max() < 1.0


def test_fine_jobs_span_many_drive_blocks():
    # the fine jobs run switch and scale on a window of many of
    # step_phase_drive's blocks; the reference window fits in one
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-fine")} == {
        "switch-fine": ["switch"], "scale-fine": ["scale"]}
    windows = []
    for lines in ((), compare_artifacts.FINE):
        cfg = cf.parse_config(REFERENCE.read_text() + "\n".join(lines))
        lo, hi = cf.validate_config(cfg).switching["timing"].window
        windows.append(hi - lo)
    assert windows == [2496, 79872]
    assert windows[0] < sig._DRIVE_BLOCK < 8 * sig._DRIVE_BLOCK < windows[1]


def test_ragged_job_ends_on_partial_blocks():
    # the ragged job's window is a multiple of neither the drive's block
    # nor the CSV writer's, so both its last blocks are partial
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-ragged")} == {
        "switch-ragged": ["switch"]}
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.RAGGED))
    lo, hi = cf.validate_config(cfg).switching["timing"].window
    assert hi - lo > 8 * sig._DRIVE_BLOCK
    assert (hi - lo) % sig._DRIVE_BLOCK and (hi - lo) % table.BLOCK_ROWS


def test_edge_job_has_a_block_edge_inside_the_ramp_and_the_fill():
    # one drive block of the edge job's window begins inside the ramp,
    # and so inside the transit fill that follows the toggle
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-edge")} == {
        "switch-edge": ["switch"]}
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.EDGE))
    setup = cf.validate_config(cfg)
    timing = setup.switching["timing"]
    lo, hi = timing.window
    edges = np.arange(lo + sig._DRIVE_BLOCK, hi, sig._DRIVE_BLOCK) * timing.dt
    inside = edges[(edges > timing.t_toggle)
                   & (edges < timing.t_toggle + timing.ramp)]
    assert inside.size == 1
    nl, _ = ex.calibrate(setup.netlist())
    fill = setup.switching["effective_path"] / float(nl.carrier.speed[0])
    assert inside[0] < timing.t_toggle + timing.ramp + fill


def test_edge_jobs_leave_indeterminate_and_flagged_rows():
    # the guard job's uncalibrated read-out leaves rows indeterminate, and
    # the flagged job's sweep holds a row that cannot be calibrated
    jobs = compare_artifacts.JOBS
    assert jobs["truthtable-guard"] == ["truthtable", "--no-calibrate"]
    assert jobs["scale-flagged"] == ["scale"]
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.GUARD))
    setup = cf.validate_config(cfg)
    report = lg.truth_table(setup.netlist(), setup.switching["enc"])
    assert report.any_indeterminate
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.FLAGGED))
    setup = cf.validate_config(cfg)
    nl, _ = ex.calibrate(setup.netlist())
    study = ex.scaling_study(nl, cfg.scaling.scales, **setup.switching)
    assert [r.flagged for r in study.rows] == [False, False, True]


def test_edge_flag_sets_put_the_carrier_by_a_band_edge():
    # a flag set on each branch puts the carrier 1e-7 relative inside the
    # band edge at the uniform-precession frequency, where k(f_c) is small
    # and the backward-volume thickness factor nears 1
    near = set()
    for flags in compare_artifacts.FLAG_SETS.values():
        args = cli.PARSER.parse_args(["calibrate", "--config", str(REFERENCE),
                                      *flags])
        setup = cli._load_config(args)
        ctx = setup.context()
        f_c = setup.settings.f_c
        lo, hi = ph.band_limits(ctx)
        assert lo < f_c < hi
        if min(f_c - lo, hi - f_c) <= 1.1e-7 * f_c:
            assert min(f_c - lo, hi - f_c) >= 0.9e-7 * f_c
            assert ph.solve_k(ctx, f_c) * ctx.film.d < 1e-6
            near.add(setup.bias.orientation)
    assert near == set(ph.Orientation)


def test_onepoint_jobs_end_on_a_one_point_block():
    # the onepoint jobs compute both grids in one block of
    # table.COMPUTE_ROWS and a last block of one point, which the kernels
    # take through their one-point path; the spectrum's last point lies in
    # the backward-volume band
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-onepoint")} == {
        "dispersion-onepoint": ["dispersion"],
        "transmission-onepoint": ["transmission"]}
    cfg = cf.parse_config(REFERENCE.read_text()
                          + "\n".join(compare_artifacts.ONEPOINT))
    for n in (cfg.spectrum.n_points, cfg.dispersion.n_points):
        assert n == table.COMPUTE_ROWS + 1
    setup = cf.validate_config(cfg)
    lo, hi = ph.band_limits(setup.context())
    n = setup.cfg.spectrum.n_points
    assert lo < setup.cfg.spectrum.grid().points(n - 1, n)[0] < hi


def test_runway_jobs_straddle_the_reference_bound():
    # the runway job's path runs and the overrun job's is refused: the
    # longest path the reference timing carries lies strictly between them
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs
            if job.endswith(("-runway", "-overrun"))} == {
        "switch-runway": ["switch"], "switch-overrun": ["switch"]}
    paths = []
    for lines in (compare_artifacts.RUNWAY, compare_artifacts.OVERRUN):
        setup = cf.validate_config(cf.parse_config(REFERENCE.read_text()
                                                   + "\n".join(lines)))
        paths.append(setup.switching["effective_path"])
    nl, _ = ex.calibrate(setup.netlist())
    bound = ex._longest_path(nl, setup.switching["timing"])
    assert paths[0] < bound < paths[1]
    assert bound == pytest.approx(4.1452e-3, rel=1e-4)


def test_worst_difference_per_file(tmp_path, capsys):
    # the largest |x - y| / max(|x|, |y|) over the numbers of each file
    # that differs, after the listed differences; agreeing files get none
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", a="0.700468911463000001",
                   v="5.0032e-05", run=RUN.replace("exit = 0", "exit = nan"))
    (b / "plain" / "switch" / "switch_trace.csv").write_text(
        "time_s,value\n0,1e-300\n1e-10,5.0032e-05\n")
    worst = compare_artifacts.worst_differences(a, b)
    assert list(worst) == ["plain/calibrate.run", "plain/switch/switch_trace.csv"]
    assert worst["plain/calibrate.run"] == math.inf
    assert worst["plain/switch/switch_trace.csv"] == 1.0
    assert compare_artifacts.worst_relative_difference(
        "x=4,2.5e-05\n", "x=4,2.5e-05\n") == 0.0
    assert compare_artifacts.worst_relative_difference(
        "x=4,2.0\n", "x=5,2.5\ny\n") == pytest.approx(0.2)
    assert compare_artifacts.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the file that agrees in other bytes is listed apart, before them
    assert lines[-4:] == [
        "plain/calibrate/calibration.txt: bytes differ, numbers agree to "
        "0 relative",
        "plain/calibrate.run: largest relative difference inf",
        "plain/switch/switch_trace.csv: largest relative difference 1",
        "3 differences over 3 files (rtol 1e-10), 0 byte-identical"]


def test_level_job_is_refused(tmp_path, capsys):
    # the level job's i1 would take an attenuator factor below the
    # smallest normal float: every flag set exits 3 with one line, the
    # scale8 set's 8x longer arms leaving i2 no transmission at all
    jobs = compare_artifacts.JOBS
    assert {job: jobs[job] for job in jobs if job.endswith("-level")} == {
        "calibrate-level": ["calibrate"]}
    config = tmp_path / "level.txt"
    config.write_text(REFERENCE.read_text()
                      + "\n".join(compare_artifacts.LEVEL) + "\n")
    for name, flags in compare_artifacts.FLAG_SETS.items():
        code = cli.main(["calibrate", "--config", str(config),
                         "--out", str(tmp_path / name), *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "physics error: channel i2 has no transmission\n"
            if name == "scale8" else
            "physics error: channel gains lie too far apart to level i1\n")
        assert not (tmp_path / name / "calibration.txt").exists()
