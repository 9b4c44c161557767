"""Command-line front end.

Subcommands: dispersion | transmission | truthtable | switch | calibrate
| fulladder | scale.  Every command reads an optional config file, applies
flag overrides (flags win), writes CSV artifacts into --out and prints a
one-line summary.  There is no randomness anywhere in the pipeline, so
identical configs produce byte-identical artifacts.

Exit codes: 0 success, 2 config error, 3 physics/band error,
4 indeterminate logic readout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import circuit, experiment, logic, physics
from .config import (ConfigError, RunConfig, build_context, build_encoding,
                     build_netlist, build_timing, parse_config,
                     validate_config)
from .signal import NoTransitionError, format_table, trace_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_INDETERMINATE = 4


def _load_config(args) -> RunConfig:
    """Config file (or defaults), then flag overrides, then --settings."""
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        cfg = parse_config(text)
    else:
        cfg = RunConfig()
    if args.mode:
        orientation = "parallel" if args.mode == "bvmsw" else "perpendicular"
        cfg = replace(cfg, field_=replace(cfg.field_, orientation=orientation))
    if args.fc is not None:
        cfg = replace(cfg, microwave=replace(cfg.microwave, f_c_hz=args.fc))
    if args.field is not None:
        cfg = replace(cfg, field_=replace(cfg.field_, mu0_h_t=args.field))
    if args.scale is not None:
        cfg = replace(cfg, geometry=replace(cfg.geometry, scale=args.scale))
    if args.settings:
        cfg = apply_calibration_file(cfg, args.settings)
    validate_config(cfg)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def cmd_dispersion(cfg: RunConfig, out: Path) -> int:
    ctx = build_context(cfg)
    d = cfg.dispersion
    if d.log_k:
        k = np.logspace(np.log10(d.k_start_rad_per_m),
                        np.log10(d.k_stop_rad_per_m), d.n_points)
    else:
        k = np.linspace(d.k_start_rad_per_m, d.k_stop_rad_per_m, d.n_points)
    f = physics.dispersion_f(ctx, k)
    vg = physics.group_velocity(ctx, k)
    path = out / "dispersion.csv"
    _write(path, format_table("k_rad_per_m,f_hz,v_g_m_per_s", k, f, vg))
    print(f"dispersion n={d.n_points} f_fmr_hz={physics.fmr_frequency(ctx):.6g} "
          f"branch={cfg.field_.orientation} -> {path}")
    return EXIT_OK


def cmd_transmission(cfg: RunConfig, out: Path) -> int:
    nl = build_netlist(cfg)
    sp = cfg.spectrum
    f_grid = np.linspace(sp.f_start_hz, sp.f_stop_hz, sp.n_points)
    summary = []
    spectra = circuit.transmission_spectrum(nl, f_grid, floor_db=sp.floor_db)
    for ch, db in zip(circuit.CHANNELS, spectra):
        path = out / f"transmission_{ch}.csv"
        _write(path, circuit.spectrum_to_csv(f_grid, db))
        summary.append(f"{ch}_peak_db={db.max():.4g}")
    print(f"transmission n={sp.n_points} {' '.join(summary)} -> {out}")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, out: Path) -> int:
    nl = build_netlist(cfg)
    _, result = experiment.calibrate(nl)
    lines = ["# calibration settings"]
    for idx, ch in enumerate(circuit.CHANNELS):
        lines.append(f"microwave.attenuator_db.{ch} = {result.attenuator_db[idx]:.12g}")
    for idx, ch in enumerate(circuit.CHANNELS):
        lines.append(f"microwave.phase_rad.{ch} = {result.phase_offsets_rad[idx]:.12g}")
    lines.append(f"residual.amplitude_imbalance = {result.residual_amplitude_imbalance:.12g}")
    lines.append(f"residual.phase_error_rad = {result.residual_phase_error:.12g}")
    path = out / "calibration.txt"
    _write(path, "\n".join(lines) + "\n")
    atten = ",".join(f"{a:.3f}" for a in result.attenuator_db)
    print(f"calibrate attenuator_db=[{atten}] "
          f"imbalance={result.residual_amplitude_imbalance:.6g} "
          f"phase_err_rad={result.residual_phase_error:.3g} -> {path}")
    return EXIT_OK


# settings-file key -> (microwave field, channel index)
_SETTINGS_KEYS = {f"microwave.{name}.{ch}": (name, idx)
                  for name in ("attenuator_db", "phase_rad")
                  for idx, ch in enumerate(circuit.CHANNELS)}


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
    except OSError as err:
        raise ConfigError(f"cannot read settings: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"settings line {lineno}: expected 'key = value'")
        key, raw = (p.strip() for p in stripped.split("=", 1))
        if key.startswith("residual."):
            continue
        if key not in _SETTINGS_KEYS:
            raise ConfigError(f"settings line {lineno}: unknown key {key!r}")
        try:
            value = float(raw)
        except ValueError as err:
            raise ConfigError(
                f"settings line {lineno}: expected a number, got {raw!r}") from err
        name, idx = _SETTINGS_KEYS[key]
        values[name][idx] = value
    mw = replace(cfg.microwave, attenuator_db=tuple(values["attenuator_db"]),
                 phase_rad=tuple(values["phase_rad"]))
    return replace(cfg, microwave=mw)


def cmd_truthtable(cfg: RunConfig, out: Path, auto_calibrate: bool = True) -> int:
    nl = build_netlist(cfg)
    if auto_calibrate:
        nl, _ = experiment.calibrate(nl)
    report = logic.truth_table(nl, build_encoding(cfg))
    path = out / "truthtable.csv"
    _write(path, report.to_csv())
    decoded = "".join("x" if r.decoded is None else str(r.decoded)
                      for r in report.rows)
    print(f"truthtable decoded={decoded} spread={report.amplitude_spread:.4g} "
          f"matches_majority={str(report.matches_majority).lower()} -> {path}")
    if report.any_indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_switch(cfg: RunConfig, out: Path) -> int:
    nl = build_netlist(cfg)
    nl, _ = experiment.calibrate(nl)
    result = experiment.run_switching(
        nl, enc=build_encoding(cfg), ref_phase=cfg.switching.ref_phase_rad,
        timing=build_timing(cfg),
        effective_path=cfg.switching.effective_path_m * cfg.geometry.scale,
        lp_cutoff=cfg.detector.lp_cutoff_hz,
        responsivity=cfg.detector.responsivity_v,
    )
    path = out / "switch_trace.csv"
    _write(path, trace_to_csv(result.trace))
    print(f"switch t_rise_s={result.t_rise:.6g} f_clock_hz={result.f_clock:.6g} "
          f"v_max={result.levels[1]:.6g} "
          f"effective_path_m={result.effective_path:.6g} -> {path}")
    return EXIT_OK


def cmd_fulladder(cfg: RunConfig, out: Path) -> int:
    nl = build_netlist(cfg)
    nl, _ = experiment.calibrate(nl)
    enc = build_encoding(cfg)
    lines = ["a,b,cin,sum,cout,gate_amp"]
    readouts = []
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                s, cout = logic.full_adder(a, b, cin)
                ro = logic.run_logic_state(nl, logic.LogicState((a, b, cin)), enc)
                readouts.append(ro)
                lines.append(f"{a},{b},{cin},{s},{cout},{ro.amplitude:.12g}")
    check = logic.cascade_check(readouts)
    path = out / "fulladder.csv"
    _write(path, "\n".join(lines) + "\n")
    print(f"fulladder rows=8 amp_spread={check.spread:.4g} "
          f"cascadable={str(check.cascadable).lower()} -> {path}")
    return EXIT_OK


def cmd_scale(cfg: RunConfig, out: Path) -> int:
    nl = build_netlist(cfg)
    nl, _ = experiment.calibrate(nl)
    study = experiment.scaling_study(
        nl, cfg.scaling.scales,
        base_effective_path=cfg.switching.effective_path_m * cfg.geometry.scale,
        enc=build_encoding(cfg), timing=build_timing(cfg),
        lp_cutoff=cfg.detector.lp_cutoff_hz,
        responsivity=cfg.detector.responsivity_v,
    )
    path = out / "scaling.csv"
    _write(path, study.to_csv())
    print(f"scale floor_s={study.ramp_floor:.6g} slope_s={study.slope:.6g} "
          f"r_squared={study.r_squared:.6f} -> {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors main reports as one config line."""

    def error(self, message):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--mode", choices=["bvmsw", "mssw"],
                        help="dispersion branch override")
    common.add_argument("--fc", type=float, help="carrier frequency override (Hz)")
    common.add_argument("--field", type=float, help="applied field override (T)")
    common.add_argument("--scale", type=float, help="geometry scale override")
    common.add_argument("--settings", help="calibration settings file to apply")

    parser = _Parser(
        prog="spingate",
        description="Phase-encoded spin-wave majority-gate simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dispersion", parents=[common],
                   help="tabulate f(k) and group velocity")
    sub.add_parser("transmission", parents=[common],
                   help="per-channel transmission spectra")
    tt = sub.add_parser("truthtable", parents=[common],
                        help="calibrate and run all eight input states")
    tt.add_argument("--no-calibrate", action="store_true",
                    help="skip automatic calibration")
    sub.add_parser("switch", parents=[common],
                   help="phase-toggle switching transient and rise time")
    sub.add_parser("calibrate", parents=[common],
                   help="amplitude/phase calibration; writes a settings file")
    sub.add_parser("fulladder", parents=[common],
                   help="majority-composed full adder over all inputs")
    sub.add_parser("scale", parents=[common],
                   help="miniaturization sweep of the switching transient")
    return parser


# built once: constructing the parser costs more than parsing with it
PARSER = make_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        cfg = _load_config(args)
        out = _out_dir(args)
        if args.command == "dispersion":
            return cmd_dispersion(cfg, out)
        if args.command == "transmission":
            return cmd_transmission(cfg, out)
        if args.command == "truthtable":
            return cmd_truthtable(cfg, out,
                                  auto_calibrate=not args.no_calibrate)
        if args.command == "switch":
            return cmd_switch(cfg, out)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, out)
        if args.command == "fulladder":
            return cmd_fulladder(cfg, out)
        if args.command == "scale":
            return cmd_scale(cfg, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (physics.BandError, experiment.CalibrationError,
            experiment.RunwayError, NoTransitionError) as err:
        print(f"physics error: {err}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
