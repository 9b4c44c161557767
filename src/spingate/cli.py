"""Command-line front end.

The subcommands are the rows of COMMANDS.  Every command reads an
optional config file, applies flag overrides (flags win), writes CSV
artifacts into --out and prints a one-line summary.  There is no
randomness anywhere in the pipeline, so identical configs produce
byte-identical artifacts.

Exit codes: 0 success, 2 config error (an unusable --out included),
3 physics/band error, 4 indeterminate logic readout.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from . import circuit, experiment, logic, physics
from .config import (ConfigError, RunConfig, Setup, number, read_assignments,
                     read_config, validate_config)
from .record import replace
from .signal import NoTransitionError, trace_to_csv, wrap_phase
from .table import write_csv, write_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_INDETERMINATE = 4


# override flag -> the dotted config key it sets
_FLAG_KEYS = {"mode": "field.orientation", "fc": "microwave.f_c_hz",
              "field": "field.mu0_h_t", "scale": "geometry.scale"}
_ORIENTATIONS = {"bvmsw": "parallel", "mssw": "perpendicular"}


def _load_config(args) -> Setup:
    """Config file (or defaults) read with the flags as overrides, then
    --settings, validated once at the end: a file value a flag overrides
    is never checked."""
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config: {err}") from err
    flags = vars(args) | {"mode": _ORIENTATIONS.get(args.mode)}
    cfg = read_config(text, {key: flags[flag] for flag, key in _FLAG_KEYS.items()
                             if flags[flag] is not None})
    if args.settings:
        cfg = apply_calibration_file(cfg, args.settings)
    return validate_config(cfg)


def cmd_dispersion(setup: Setup, out: Path, args) -> int:
    ctx = setup.context()
    d = setup.cfg.dispersion
    grid = d.grid()

    def columns(lo: int, hi: int):
        # f(k) once for both
        k = grid.points(lo, hi)
        f = physics.dispersion_f(ctx, k)
        return k, f, physics.group_velocity(ctx, k, f)

    path = out / "dispersion.csv"
    write_rows([path], "k_rad_per_m,f_hz,v_g_m_per_s", 0, grid.n, columns)
    print(f"dispersion n={d.n_points} f_fmr_hz={physics.fmr_frequency(ctx):.6g} "
          f"branch={setup.cfg.field.orientation} -> {path}")
    return EXIT_OK


def cmd_transmission(setup: Setup, out: Path, args) -> int:
    nl = setup.netlist()
    sp = setup.cfg.spectrum
    peaks = circuit.spectrum_to_csv(
        nl, sp.grid(), [out / f"transmission_{ch}.csv" for ch in circuit.CHANNELS],
        floor_db=sp.floor_db)
    summary = [f"{ch}_peak_db={db:.4g}" for ch, db in zip(circuit.CHANNELS, peaks)]
    print(f"transmission n={sp.n_points} {' '.join(summary)} -> {out}")
    return EXIT_OK


# settings-file key -> (microwave field, channel index): the lines
# calibrate writes, in order, and the keys --settings reads back
_SETTINGS_KEYS = {f"microwave.{name}.{ch}": (name, idx)
                  for name in ("attenuator_db", "phase_rad")
                  for idx, ch in enumerate(circuit.CHANNELS)}


def cmd_calibrate(setup: Setup, out: Path, args) -> int:
    _, result = experiment.calibrate(setup.netlist())
    values = {"attenuator_db": result.attenuator_db,
              "phase_rad": result.phase_offsets_rad}
    lines = ["# calibration settings"]
    lines += [f"{key} = {values[name][idx]:.12g}"
              for key, (name, idx) in _SETTINGS_KEYS.items()]
    lines.append(f"residual.amplitude_imbalance = {result.residual_amplitude_imbalance:.12g}")
    lines.append(f"residual.phase_error_rad = {result.residual_phase_error:.12g}")
    path = out / "calibration.txt"
    path.write_text("\n".join(lines) + "\n")
    atten = ",".join(f"{a:.3f}" for a in result.attenuator_db)
    print(f"calibrate attenuator_db=[{atten}] "
          f"imbalance={result.residual_amplitude_imbalance:.6g} "
          f"phase_err_rad={result.residual_phase_error:.3g} -> {path}")
    return EXIT_OK


def apply_calibration_file(cfg: RunConfig, path: str) -> RunConfig:
    """Fold a calibration settings file back into the config.

    Same line grammar as the config file.  The keys are the per-channel
    attenuator and phase settings ``calibrate`` writes; its informational
    ``residual.*`` lines are skipped.  Unknown keys and values that are
    not numbers raise ConfigError.
    """
    values = {"attenuator_db": list(cfg.microwave.attenuator_db),
              "phase_rad": list(cfg.microwave.phase_rad)}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read settings: {err}") from err
    for lineno, key, raw in read_assignments(text, "settings line"):
        if key.startswith("residual."):
            continue
        if key not in _SETTINGS_KEYS:
            raise ConfigError(f"settings line {lineno}: unknown key {key!r}")
        try:
            value = number(raw)
        except ValueError as err:
            raise ConfigError(
                f"settings line {lineno}: expected a number, got {raw!r}") from err
        name, idx = _SETTINGS_KEYS[key]
        values[name][idx] = value
    mw = replace(cfg.microwave, attenuator_db=tuple(values["attenuator_db"]),
                 phase_rad=tuple(values["phase_rad"]))
    return replace(cfg, microwave=mw)


def cmd_truthtable(setup: Setup, out: Path, args) -> int:
    nl = setup.netlist()
    if not args.no_calibrate:
        nl, _ = experiment.calibrate(nl)
    enc = setup.switching["enc"]
    report = logic.truth_table(nl, enc)
    code = [float(wrap_phase(logic.encode(bit, enc))) for bit in (0, 1)]
    rows = [[*(code[b] for b in r.state.bits), r.state, r.phase, r.amplitude,
             "indeterminate" if r.decoded_bit is None else r.decoded_bit]
            for r in report.rows]
    path = out / "truthtable.csv"
    write_csv(path, "in_phase_i1_rad,in_phase_i2_rad,in_phase_i3_rad,"
              "state,out_phase_rad,out_amp,decoded", rows)
    decoded = "".join("x" if r.decoded_bit is None else str(r.decoded_bit)
                      for r in report.rows)
    print(f"truthtable decoded={decoded} "
          f"spread={logic.amplitude_spread(report.rows):.4g} "
          f"matches_majority={str(report.matches_majority).lower()} -> {path}")
    if report.any_indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_switch(setup: Setup, out: Path, args) -> int:
    nl, _ = experiment.calibrate(setup.netlist())
    result = experiment.run_switching(nl, **setup.switching)
    path = out / "switch_trace.csv"
    trace_to_csv(result.trace, path)
    print(f"switch t_rise_s={result.t_rise:.6g} "
          f"f_clock_hz={1.0 / result.t_rise:.6g} v_max={result.levels[1]:.6g} "
          f"effective_path_m={setup.switching['effective_path']:.6g} -> {path}")
    return EXIT_OK


def cmd_fulladder(setup: Setup, out: Path, args) -> int:
    nl, _ = experiment.calibrate(setup.netlist())
    states = [logic.LogicState(bits)
              for bits in itertools.product((0, 1), repeat=3)]
    readouts = logic.read_out(nl, states, setup.switching["enc"])
    rows = [[*ro.state.bits, *logic.full_adder(*ro.state.bits), ro.amplitude]
            for ro in readouts]
    spread = logic.amplitude_spread(readouts)
    path = out / "fulladder.csv"
    write_csv(path, "a,b,cin,sum,cout,gate_amp", rows)
    print(f"fulladder rows=8 amp_spread={spread:.4g} "
          f"cascadable={str(spread <= logic.CASCADE_TOLERANCE).lower()} -> {path}")
    return EXIT_OK


def cmd_scale(setup: Setup, out: Path, args) -> int:
    nl, _ = experiment.calibrate(setup.netlist())
    study = experiment.scaling_study(nl, setup.cfg.scaling.scales,
                                     **setup.switching)
    rows = [[r.scale, r.t_rise, 1.0 / r.t_rise, r.flagged] for r in study.rows]
    path = out / "scaling.csv"
    write_csv(path, "scale,t_rise_s,f_clock_hz,flagged", rows)
    print(f"scale floor_s={study.ramp_floor:.6g} slope_s={study.slope:.6g} "
          f"r_squared={study.r_squared:.6f} -> {path}")
    return EXIT_OK


# command -> (function of (setup, out, args), help line), in --help order
COMMANDS = {
    "dispersion": (cmd_dispersion, "tabulate f(k) and group velocity"),
    "transmission": (cmd_transmission, "per-channel transmission spectra"),
    "truthtable": (cmd_truthtable, "calibrate and run all eight input states"),
    "switch": (cmd_switch, "phase-toggle switching transient and rise time"),
    "calibrate": (cmd_calibrate,
                  "amplitude/phase calibration; writes a settings file"),
    "fulladder": (cmd_fulladder, "majority-composed full adder over all inputs"),
    "scale": (cmd_scale, "miniaturization sweep of the switching transient"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors main reports as one config line."""

    def error(self, message):
        raise ConfigError(message)


def _float(raw: str) -> float:
    """A flag's number, parsed as a config value is."""
    return number(raw)


# argparse names the type in a bad flag's error: "invalid float value"
_float.__name__ = "float"


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--mode", choices=["bvmsw", "mssw"],
                        help="dispersion branch override")
    common.add_argument("--fc", type=_float, help="carrier frequency override (Hz)")
    common.add_argument("--field", type=_float, help="applied field override (T)")
    common.add_argument("--scale", type=_float, help="geometry scale override")
    common.add_argument("--settings", help="calibration settings file to apply")

    parser = _Parser(
        prog="spingate",
        description="Phase-encoded spin-wave majority-gate simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_line)
        if name == "truthtable":
            command.add_argument("--no-calibrate", action="store_true",
                                 help="skip automatic calibration")
    return parser


# built once: constructing the parser costs more than parsing with it
PARSER = make_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        setup = _load_config(args)
        # the input files are read by now: an OSError is one of the output
        try:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            return COMMANDS[args.command][0](setup, out, args)
        except OSError as err:
            raise ConfigError(f"cannot write output: {err}") from err
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (physics.BandError, experiment.CalibrationError,
            experiment.RunwayError, NoTransitionError) as err:
        print(f"physics error: {err}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
