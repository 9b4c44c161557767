#!/usr/bin/env python3
"""Run every CLI command of a source tree, or compare two such runs.

    python3 tools/compare_artifacts.py run SRC_TREE OUT_DIR
    python3 tools/compare_artifacts.py compare OUT_A OUT_B

``run`` executes the jobs in JOBS -- the seven commands of the
``spingate`` package found in SRC_TREE/src, plus ``truthtable`` without
calibration and with the settings file the flag set's own ``calibrate``
job wrote -- on SRC_TREE/configs/reference.txt, once per flag set (see
FLAG_SETS), each in a fresh interpreter.  The ``*-dense`` jobs run
``dispersion`` and ``transmission`` on that config with the DENSE lines
appended, grids that span several blocks of the CSV writer, and the
``*-wide`` jobs with the WIDE lines appended, grids of several blocks
of rows computed at a time (table.COMPUTE_ROWS), the last one partial;
``dispersion-linear`` runs ``dispersion`` with the LINEAR lines
appended, the WIDE grid of evenly spaced wavenumbers (every other
``dispersion`` job spaces them on a log scale); the ``*-long`` jobs run
``switch`` and ``scale`` with the LONG lines appended, a record whose
analysis window ends before it does; the
``*-phi0`` jobs run ``truthtable`` and ``fulladder`` with the PHI0 lines
appended, code phases other than 0 and pi; ``truthtable-guard`` runs
``truthtable --no-calibrate`` with the GUARD lines appended, a guard
window that leaves read-outs indeterminate; ``scale-flagged`` runs
``scale`` with the FLAGGED lines appended, a sweep with a flagged row;
the ``*-fine`` jobs run ``switch`` and ``scale`` with the FINE lines
appended, an analysis window of many drive blocks and low-pass chunks;
``switch-ragged`` runs ``switch`` with the RAGGED lines appended, a
window whose last drive block and last CSV block are partial;
``switch-edge`` runs ``switch`` with the EDGE lines appended, a window
with a drive block edge inside the ramp and the transit fill; the
``*-onepoint`` jobs run ``dispersion`` and ``transmission`` with the
ONEPOINT lines appended, grids whose last block of computed rows is one
point, which the kernels take through their one-point path;
``switch-runway`` and ``switch-overrun`` run ``switch`` with the RUNWAY
and OVERRUN lines appended, effective paths just below and just above
the longest one the reference timing's runway carries;
``dispersion-small-k`` runs ``dispersion`` with the SMALL_K lines
appended, wavenumbers from 1e-3 rad/m, whose first blocks of rows the
CSV writer writes in its four-word slots and whose last ones in its
two-word slots; ``calibrate-level`` runs ``calibrate`` with the LEVEL
lines appended, gains that calibrate cannot level; ``switch-bright``
runs ``switch`` with the BRIGHT lines appended, the FINE window at a
detector responsivity whose levels rise past 1e-4, so that the CSV
writer writes its first blocks in three-word slots and the rest in four.
The ``*help`` jobs print the program's and ``truthtable``'s help text,
the parser the command table builds.
OUT_DIR/<flag set>/<job>/ receives the artifacts and OUT_DIR/<flag
set>/<job>.run the exit code, stdout and stderr, with the job's output
directory written as <out> and OUT_DIR as <root>.

``compare`` walks two such trees.  They must hold the same files; in
each pair of files the text between numbers must match exactly and the
numbers must agree to RTOL relative (NaN equals NaN).  Exit status 0
when the trees agree, 1 otherwise, with the differences listed, then one
line per file whose bytes differ but whose numbers agree, and one per
differing file, each giving the largest relative difference
|x - y| / max(|x|, |y|) of its numbers (inf for NaN against a number).
The last line counts the differences, the files of OUT_A and the files
whose bytes are the same in both trees.

Byte identity is expected only between trees written with one numpy
build on one SIMD dispatch.  numpy's abs of a complex array (its SIMD
loop) and abs of one complex scalar (hypot) differ in the last bit for
about a third of values on an x86-64 host with AVX-512.  Every
magnitude of the carrier gains is the array form (experiment's leveling
and residual imbalance), but the outputs take both: the array form in
logic.read_out's floor, the scalar form in read_out's amplitudes.
Trees from different machines agree to RTOL, not byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

RTOL = 1e-10
# job -> command line after the program name, in run order; {calibration}
# is the settings file written by the calibrate job of the same flag set
JOBS = {
    "dispersion": ["dispersion"],
    "transmission": ["transmission"],
    "calibrate": ["calibrate"],
    "truthtable": ["truthtable"],
    "truthtable-no-calibrate": ["truthtable", "--no-calibrate"],
    "truthtable-settings": ["truthtable", "--settings", "{calibration}"],
    "switch": ["switch"],
    "fulladder": ["fulladder"],
    "scale": ["scale"],
    "dispersion-dense": ["dispersion"],
    "transmission-dense": ["transmission"],
    "dispersion-wide": ["dispersion"],
    "transmission-wide": ["transmission"],
    "dispersion-linear": ["dispersion"],
    "switch-long": ["switch"],
    "scale-long": ["scale"],
    "truthtable-phi0": ["truthtable"],
    "fulladder-phi0": ["fulladder"],
    "truthtable-guard": ["truthtable", "--no-calibrate"],
    "scale-flagged": ["scale"],
    "switch-fine": ["switch"],
    "scale-fine": ["scale"],
    "switch-ragged": ["switch"],
    "switch-edge": ["switch"],
    "dispersion-onepoint": ["dispersion"],
    "transmission-onepoint": ["transmission"],
    "switch-runway": ["switch"],
    "switch-overrun": ["switch"],
    "dispersion-small-k": ["dispersion"],
    "calibrate-level": ["calibrate"],
    "switch-bright": ["switch"],
    "help": ["--help"],
    "truthtable-help": ["truthtable", "--help"],
}
# appended to the reference config for the *-dense jobs: more than two
# blocks of the CSV writer (2048 rows) on both grids, and a spectrum that
# spans both band edges of either branch, with a floor low enough that the
# 8x longer arms of the scale8 flag set still show their passband
DENSE = ("spectrum.f_start_hz = 3.5e9", "spectrum.f_stop_hz = 7.5e9",
         "spectrum.n_points = 5001", "spectrum.floor_db = -1000",
         "dispersion.n_points = 5001")
# appended for the *-wide jobs: the DENSE spans on grids of 25,001 points,
# three blocks of the 8192 rows the spectrum commands compute at a time and
# a partial fourth of 425 rows (ragged for the writer's 2048 as well)
WIDE = ("spectrum.f_start_hz = 3.5e9", "spectrum.f_stop_hz = 7.5e9",
        "spectrum.n_points = 25001", "spectrum.floor_db = -1000",
        "dispersion.n_points = 25001")
# appended for the *-linear job: the WIDE grids with the wavenumbers
# spaced evenly, where every other dispersion job spaces them on a log
# scale
LINEAR = WIDE + ("dispersion.log_k = false",)
# appended for the *-long jobs: a record long enough that the analysis
# window closes experiment.WINDOW_TAIL after the toggle, not at the
# record's end as it does on the reference config
LONG = ("switching.duration_s = 8.192e-7",)
# appended for the *-phi0 jobs: the in_phase_* and out_phase_rad columns
# at code phases 2.5 and 2.5 - pi
PHI0 = ("encoding.phi0_rad = 2.5",)
# appended for the *-guard job: a guard window narrow enough that the
# uncalibrated read-out leaves rows indeterminate
GUARD = ("encoding.guard_rad = 0.05",)
# appended for the *-flagged job: a scale whose 1000x longer arms leave
# no transmission to calibrate, so scaling.csv holds a flagged row
FLAGGED = ("scaling.scales = 1,0.5,1000",)
# appended for the *-fine jobs: a 79,872-sample analysis window, which
# spans twenty of the drive's blocks and twenty of the low-pass's chunks,
# where the reference window of 2,496 samples is one block and two
# chunks; its last drive block is 2,048 samples long, it is exactly 39
# blocks of the CSV writer, and its ramp table (5,121 nodes) is built in
# two chunks
FINE = ("switching.dt_s = 3.125e-12",)
# appended for the *-ragged job: a 75,636-sample analysis window, a
# multiple of neither the drive's block (4096) nor the CSV writer's
# (2048), so both end on a partial block of 1,908 samples
RAGGED = ("switching.dt_s = 3.3e-12",)
# appended for the *-edge job: a 24,960-sample analysis window (six
# drive blocks and a partial seventh) whose second drive block begins at
# 200.96 ns, inside the 2 ns ramp from the 200 ns toggle and so inside the
# transit fill that follows it
EDGE = ("switching.dt_s = 1e-11",)
# appended for the *-onepoint jobs: grids of 8,193 points, one block of
# the 8192 rows the spectrum commands compute at a time and a last block
# of one point; the spectrum's last point, 6.05 GHz, lies in the
# backward-volume band and below the surface band
ONEPOINT = ("spectrum.f_start_hz = 3.5e9", "spectrum.f_stop_hz = 6.05e9",
            "spectrum.n_points = 8193", "spectrum.floor_db = -1000",
            "dispersion.n_points = 8193")
# appended for the *-runway and *-overrun jobs: effective paths on either
# side of the 4.1452 mm the reference timing's 145.2 ns runway carries at
# the reference carrier, so the first job runs the longest fill of any
# job (t_rise 34.3 ns) and the second exits 3 with RunwayError
RUNWAY = ("switching.effective_path_m = 4.1e-3",)
OVERRUN = ("switching.effective_path_m = 4.2e-3",)
# appended for the *-small-k job: a log grid of 9,000 wavenumbers from
# 1e-3 rad/m, five blocks of the CSV writer; a k below 1 (a negative
# decimal exponent) sends the first blocks to the writer's four-word
# slots, and the last ones, every value with 0 <= exponent < 12, take its
# two-word slots
SMALL_K = ("dispersion.k_start_rad_per_m = 1e-3", "dispersion.n_points = 9000")
# appended for the *-level job: i1 coupled in at +200 dB and i2 and i3
# at -6271.5 dB, near the float floor, behind a +200 dB output coupling,
# so leveling i1 down to them takes 6471.5 dB, an attenuator factor below
# the smallest normal float, which the couplings would scale back up;
# calibrate exits 3 naming i1
LEVEL = ("microwave.output_coupling_db = 200",
         "microwave.coupling_db = 200, -6271.5, -6271.5",
         "microwave.attenuator_db = 307.5, 0, 0")
# appended for the *-bright job: the FINE window detected at a
# responsivity of 1e4, so that the trace's levels rise past 1e-4 to 0.72:
# of its 39 blocks of the CSV writer, the first 6 (levels below 1e-4)
# take its three-word slots and the other 33, with "0.00"-prefix levels,
# its four-word ones
BRIGHT = FINE + ("detector.responsivity_v = 1e4",)
# job name suffix -> the lines appended to the reference config
APPENDED = {"-dense": DENSE, "-wide": WIDE, "-linear": LINEAR,
            "-long": LONG, "-phi0": PHI0,
            "-guard": GUARD, "-flagged": FLAGGED, "-fine": FINE,
            "-ragged": RAGGED, "-edge": EDGE, "-onepoint": ONEPOINT,
            "-runway": RUNWAY, "-overrun": OVERRUN, "-small-k": SMALL_K,
            "-level": LEVEL, "-bright": BRIGHT}
FLAG_SETS = {
    "plain": [],
    "mssw_fc6.14e9": ["--mode", "mssw", "--fc", "6.14e9"],
    "fc6.0e9": ["--fc", "6.0e9"],
    "scale8": ["--scale", "8"],
    "field0.14": ["--field", "0.14"],
    # carriers 1e-7 relative inside the band edge at the uniform-precession
    # frequency (6.06 GHz, k -> 0) of each branch
    "fc6.059999394e9": ["--fc", "6.059999394e9"],
    "mssw_fc6.060000606e9": ["--mode", "mssw", "--fc", "6.060000606e9"],
}
# separators are compared as text; the tokens between them as numbers
# when both sides parse as one
_SEPARATORS = re.compile(r"([\s,=\[\]()]+)")
MAX_LISTED = 20


def job_argv(job: str, set_dir: Path) -> list[str]:
    """Command line of one job whose flag set writes into set_dir."""
    calibration = str(set_dir / "calibrate" / "calibration.txt")
    return [arg.format(calibration=calibration) for arg in JOBS[job]]


def run_tree(src: Path, out: Path) -> None:
    """Every job under every flag set, artifacts and records to out."""
    src, out = src.resolve(), out.resolve()
    config = src / "configs" / "reference.txt"
    # COLUMNS fixes the width argparse wraps the help text to
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for suffix, lines in APPENDED.items():
            configs[suffix] = Path(tmp) / f"{suffix[1:]}.txt"
            configs[suffix].write_text(
                config.read_text() + "\n".join(lines) + "\n")
        for name, flags in FLAG_SETS.items():
            for job in JOBS:
                job_out = out / name / job
                job_out.mkdir(parents=True, exist_ok=True)
                job_config = next((path for suffix, path in configs.items()
                                   if job.endswith(suffix)), config)
                proc = subprocess.run(
                    [sys.executable, "-m", "spingate.cli",
                     *job_argv(job, out / name),
                     "--config", str(job_config), "--out", str(job_out),
                     *flags],
                    capture_output=True, text=True, env=env, check=False)
                record = (f"exit = {proc.returncode}\n"
                          f"stdout:\n{proc.stdout}stderr:\n{proc.stderr}")
                (out / name / f"{job}.run").write_text(
                    record.replace(str(job_out), "<out>")
                    .replace(str(out), "<root>"))


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _relative_difference(x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _tokens_agree(a: str, b: str) -> bool:
    if a == b:
        return True
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return False
    return _relative_difference(x, y) <= RTOL


def worst_relative_difference(a: str, b: str) -> float:
    """Largest relative difference between the numbers of two texts.

    Numbers pair up token by token on lines (of the common leading lines)
    whose token counts match; 0 when no such pair differs.
    """
    worst = 0.0
    for la, lb in zip(a.splitlines(), b.splitlines()):
        ta, tb = _SEPARATORS.split(la)[::2], _SEPARATORS.split(lb)[::2]
        if len(ta) != len(tb):
            continue
        for x, y in zip(ta, tb):
            nx, ny = _number(x), _number(y)
            if x != y and nx is not None and ny is not None:
                worst = max(worst, _relative_difference(nx, ny))
    return worst


def compare_text(a: str, b: str, where: str) -> list[str]:
    """Differences between two texts, line by line."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return [f"{where}: {len(lines_a)} lines against {len(lines_b)}"]
    diffs = []
    for lineno, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        ta, tb = _SEPARATORS.split(la), _SEPARATORS.split(lb)
        if len(ta) != len(tb) or not all(
                _tokens_agree(x, y) if i % 2 == 0 else x == y
                for i, (x, y) in enumerate(zip(ta, tb))):
            diffs.append(f"{where}:{lineno}: {la!r} != {lb!r}")
    return diffs


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def compare_trees(a: Path, b: Path) -> list[str]:
    """Every difference between two output trees written by run_tree."""
    files_a, files_b = _files(a), _files(b)
    diffs = [f"{p}: only in {a}" for p in sorted(files_a - files_b)]
    diffs += [f"{p}: only in {b}" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        diffs += compare_text((a / rel).read_text(), (b / rel).read_text(),
                              str(rel))
    return diffs


def worst_differences(a: Path, b: Path) -> dict[str, float]:
    """Largest relative difference of the numbers of each file that is in
    both trees and differs between them."""
    worst = {}
    for rel in sorted(_files(a) & _files(b)):
        text_a, text_b = (a / rel).read_text(), (b / rel).read_text()
        if compare_text(text_a, text_b, str(rel)):
            worst[str(rel)] = worst_relative_difference(text_a, text_b)
    return worst


def agreeing_differences(a: Path, b: Path) -> dict[str, float]:
    """Largest relative difference of the numbers of each file that is in
    both trees and whose bytes differ between them, though its numbers
    agree to RTOL."""
    worst = {}
    for rel in sorted(_files(a) & _files(b)):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            text_a, text_b = (a / rel).read_text(), (b / rel).read_text()
            if not compare_text(text_a, text_b, str(rel)):
                worst[str(rel)] = worst_relative_difference(text_a, text_b)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run", help="run every command of a source tree")
    run.add_argument("src", type=Path, help="source tree (holds src/ and configs/)")
    run.add_argument("out", type=Path, help="output tree to write")
    cmp_ = sub.add_parser("compare", help="compare two output trees")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        run_tree(args.src, args.out)
        return 0
    diffs = compare_trees(args.a, args.b)
    for line in diffs[:MAX_LISTED]:
        print(line)
    agreeing = agreeing_differences(args.a, args.b)
    for rel, worst in agreeing.items():
        print(f"{rel}: bytes differ, numbers agree to {worst:.3g} relative")
    differing = worst_differences(args.a, args.b)
    for rel, worst in differing.items():
        print(f"{rel}: largest relative difference {worst:.3g}")
    files = _files(args.a)
    identical = len(files & _files(args.b)) - len(agreeing) - len(differing)
    print(f"{len(diffs)} differences over {len(files)} files (rtol {RTOL:g}), "
          f"{identical} byte-identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
