"""Run configuration: flat dotted-key text files with strict parsing.

The format is one ``key = value`` assignment per line, ``#`` comments,
dotted keys grouped by section.  Unknown keys are rejected so a config
never silently drifts from the code.  The defaults reproduce the
reference operating point: parallel field of 142.9 mT, carrier at
6.035 GHz, saturation magnetization fitted so the uniform-precession
frequency sits at 6.06 GHz.  Validation builds the package's records
and calls its procedures' preconditions, which hold every range check;
it only names the dotted key of the field a check rejects.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

from . import circuit, experiment, logic, physics, signal


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


@dataclass(frozen=True)
class FilmConfig:
    mu0_ms_t: float = 0.176
    thickness_m: float = 5.4e-6
    gamma_rad_per_s_t: float = physics.GAMMA_DEFAULT
    linewidth_t: float = 6.2e-5
    # fit Ms so the k = 0 frequency lands here; 0 disables the fit
    fit_fmr_hz: float = 6.06e9


@dataclass(frozen=True)
class FieldConfig:
    mu0_h_t: float = 0.1429
    orientation: str = "parallel"


@dataclass(frozen=True)
class GeometryConfig:
    w_g_m: float = 1.5e-3
    w_a_m: float = 7.5e-5
    l_in_m: tuple[float, float, float] = (10.0e-3, 10.0e-3, 10.0e-3)
    l_skew_m: tuple[float, float, float] = (6.0e-3, 0.0, 6.0e-3)
    l_out_m: float = 10.0e-3
    bend_loss_db: float = 3.0
    scale: float = 1.0


@dataclass(frozen=True)
class MicrowaveConfig:
    f_c_hz: float = 6.035e9
    drive_amplitude: float = 1.0
    attenuator_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phase_rad: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # fixed hardware asymmetry of the three feeds (connectors, excitation
    # efficiency); leveled out by the calibration procedure
    coupling_db: tuple[float, float, float] = (-0.5, 0.0, -1.2)
    coupling_phase_rad: tuple[float, float, float] = (0.35, 0.0, -0.65)
    output_coupling_db: float = 0.0


@dataclass(frozen=True)
class DetectorConfig:
    responsivity_v: float = 1.0
    lp_cutoff_hz: float = 5.0e8


@dataclass(frozen=True)
class EncodingConfig:
    phi0_rad: float = 0.0
    guard_rad: float = 0.5 * math.pi - 0.01


@dataclass(frozen=True)
class SwitchingConfig:
    dt_s: float = 1.0e-10
    duration_s: float = 4.096e-7
    t_toggle_s: float = 2.0e-7
    ramp_s: float = 2.0e-9
    ref_phase_rad: float = math.pi
    # effective transit path fitted so the reference device reproduces the
    # measured 11.3 ns transition; see experiment.fit_effective_path
    effective_path_m: float = 1.34872e-3
    toggle: bool = True


@dataclass(frozen=True)
class SpectrumConfig:
    f_start_hz: float = 5.9e9
    f_stop_hz: float = 6.12e9
    n_points: int = 441
    floor_db: float = -80.0


@dataclass(frozen=True)
class DispersionConfig:
    k_start_rad_per_m: float = 50.0
    k_stop_rad_per_m: float = 2.0e5
    n_points: int = 400
    log_k: bool = True


@dataclass(frozen=True)
class ScalingConfig:
    scales: tuple[float, ...] = (1.0, 0.5, 0.2, 0.1, 0.05)


@dataclass(frozen=True)
class RunConfig:
    film: FilmConfig = field(default_factory=FilmConfig)
    field_: FieldConfig = field(default_factory=FieldConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    microwave: MicrowaveConfig = field(default_factory=MicrowaveConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    encoding: EncodingConfig = field(default_factory=EncodingConfig)
    switching: SwitchingConfig = field(default_factory=SwitchingConfig)
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    dispersion: DispersionConfig = field(default_factory=DispersionConfig)
    scaling: ScalingConfig = field(default_factory=ScalingConfig)


# section name -> RunConfig attribute (field_ dodges the dataclass name)
_SECTIONS = {f.name.rstrip("_"): f.name for f in fields(RunConfig)}


def _parse_value(raw: str, current):
    raw = raw.strip()
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(current, tuple):
        parts = [p for p in raw.split(",") if p.strip()]
        try:
            values = tuple(float(p) for p in parts)
        except ValueError as err:
            raise ConfigError(f"bad list value {raw!r}") from err
        # per-channel triples keep their arity; free-length lists do not
        if len(current) == 3 and len(values) != 3:
            raise ConfigError(f"expected 3 values, got {len(values)}: {raw!r}")
        return values
    if isinstance(current, int) and not isinstance(current, bool):
        try:
            return int(raw)
        except ValueError as err:
            raise ConfigError(f"expected an integer, got {raw!r}") from err
    if isinstance(current, float):
        try:
            return float(raw)
        except ValueError as err:
            raise ConfigError(f"expected a number, got {raw!r}") from err
    return raw


def _format_value(value) -> str:
    # repr of a float is its shortest round-trip form, which is what makes
    # parse(serialize(cfg)) == cfg hold exactly
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# section -> its default object, keyed by field name
_DEFAULTS = {name: getattr(RunConfig(), attr) for name, attr in _SECTIONS.items()}
_FIELDS = {name: {f.name for f in fields(obj)} for name, obj in _DEFAULTS.items()}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig.

    Values are collected per section and each section is built once; a
    key given twice keeps its last value.
    """
    values = {name: {} for name in _SECTIONS}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} has no section")
        section, attr = key.split(".", 1)
        if section not in values:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        if attr not in _FIELDS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[section][attr] = _parse_value(raw, getattr(_DEFAULTS[section], attr))
    cfg = RunConfig(**{attr: replace(_DEFAULTS[name], **values[name])
                       for name, attr in _SECTIONS.items()})
    validate_config(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Dump a RunConfig to the flat text format, sections in fixed order."""
    lines = []
    for section, attr in _SECTIONS.items():
        obj = getattr(cfg, attr)
        for f in fields(obj):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def _non_finite_key(cfg: RunConfig) -> str | None:
    """First dotted key holding a NaN or infinite number, if any."""
    for section, attr in _SECTIONS.items():
        for name, value in vars(getattr(cfg, attr)).items():
            if isinstance(value, tuple):
                if not all(map(math.isfinite, value)):
                    return f"{section}.{name}"
            elif isinstance(value, float) and not math.isfinite(value):
                return f"{section}.{name}"
    return None


# config field -> record field, one table per record-backed section;
# read by the build_* functions below and by validate_config's naming
_FILM = {"mu0_ms_t": "Ms", "thickness_m": "d", "gamma_rad_per_s_t": "gamma",
         "linewidth_t": "mu0_dh0"}
_FIELD = {"mu0_h_t": "mu0_h", "orientation": "orientation"}
_GEOMETRY = {"w_g_m": "w_g", "w_a_m": "w_a", "l_in_m": "l_in",
             "l_skew_m": "l_skew", "l_out_m": "l_out",
             "bend_loss_db": "bend_loss_db", "scale": "scale"}
_MICROWAVE = {"f_c_hz": "f_c", "drive_amplitude": "drive_amplitude",
              "attenuator_db": "attenuator_db", "phase_rad": "phase_rad",
              "coupling_db": "coupling_db",
              "coupling_phase_rad": "coupling_phase_rad",
              "output_coupling_db": "output_coupling_db"}
_ENCODING = {"phi0_rad": "phi0", "guard_rad": "guard"}
_SWITCHING = {"dt_s": "dt", "duration_s": "duration", "t_toggle_s": "t_toggle",
              "ramp_s": "ramp"}
# record field or procedure argument -> the dotted key that sets it
_KEYS = {arg: f"{section}.{name}" for section, table in (
    ("film", _FILM), ("field", _FIELD), ("geometry", _GEOMETRY),
    ("microwave", _MICROWAVE), ("encoding", _ENCODING),
    ("switching", _SWITCHING),
    ("detector", {"lp_cutoff_hz": "lp_cutoff", "responsivity_v": "responsivity"}),
    ("switching", {"effective_path_m": "effective_path"}),
    ("scaling", {"scales": "scales"})) for name, arg in table.items()}
_WORD = re.compile(r"\w+")


def _build(cls, section, table: dict, **values):
    """cls from a config section through its table; values override."""
    return cls(**{arg: getattr(section, name) for name, arg in table.items()}
               | values)


def validate_config(cfg: RunConfig) -> None:
    """Raise ConfigError for a config no command can run.

    Every number must be finite, and the fields no record reads in
    range (the Ms fit target, the orientation, the spectrum and
    dispersion grids).  Then one pass builds each record (the film
    without the Ms fit, the only source of BandError) and calls each
    precondition; every record field or argument name in a ValueError
    they raise becomes its dotted config key.
    """
    bad = _non_finite_key(cfg)
    if bad:
        raise ConfigError(f"{bad} must be finite")
    if cfg.field_.orientation not in ("parallel", "perpendicular"):
        raise ConfigError("field.orientation must be parallel or perpendicular")
    if cfg.film.fit_fmr_hz < 0:
        raise ConfigError("film.fit_fmr_hz must be nonnegative")
    sp, disp = cfg.spectrum, cfg.dispersion
    for section, grid in (("spectrum", sp), ("dispersion", disp)):
        if grid.n_points < 2:
            raise ConfigError(f"{section}.n_points must be at least 2")
    if sp.f_stop_hz <= sp.f_start_hz:
        raise ConfigError("spectrum.f_stop_hz must exceed spectrum.f_start_hz")
    if disp.k_start_rad_per_m <= 0:
        raise ConfigError("dispersion.k_start_rad_per_m must be positive")
    if disp.k_stop_rad_per_m <= disp.k_start_rad_per_m:
        raise ConfigError("dispersion.k_stop_rad_per_m must exceed "
                          "dispersion.k_start_rad_per_m")
    try:
        for build in (build_film, build_field, build_geometry, build_settings,
                      build_encoding, build_timing):
            build(cfg)
        signal.check_detection(cfg.detector.lp_cutoff_hz,
                               cfg.detector.responsivity_v, cfg.switching.dt_s)
        experiment.check_effective_path(cfg.switching.effective_path_m)
        experiment.check_scales(cfg.scaling.scales)
    except ValueError as err:
        raise ConfigError(_WORD.sub(lambda m: _KEYS.get(m[0], m[0]),
                                    str(err))) from err


def build_film(cfg: RunConfig) -> physics.FilmParams:
    """The film as configured, before any Ms fit."""
    return _build(physics.FilmParams, cfg.film, _FILM,
                  Ms=cfg.film.mu0_ms_t / physics.MU0)


def build_field(cfg: RunConfig) -> physics.BiasField:
    return _build(physics.BiasField, cfg.field_, _FIELD,
                  orientation=physics.Orientation(cfg.field_.orientation))


def build_context(cfg: RunConfig) -> physics.ModeContext:
    """Film and field from the config, with the optional Ms fit applied."""
    ctx = physics.ModeContext(film=build_film(cfg), field=build_field(cfg))
    if cfg.film.fit_fmr_hz > 0:
        ctx = ctx.with_ms(physics.calibrate_ms(ctx, cfg.film.fit_fmr_hz))
    return ctx


def build_geometry(cfg: RunConfig) -> circuit.DeviceGeometry:
    return _build(circuit.DeviceGeometry, cfg.geometry, _GEOMETRY)


def build_settings(cfg: RunConfig) -> circuit.MicrowaveSettings:
    return _build(circuit.MicrowaveSettings, cfg.microwave, _MICROWAVE)


def build_encoding(cfg: RunConfig) -> logic.PhaseEncoding:
    return _build(logic.PhaseEncoding, cfg.encoding, _ENCODING)


def build_timing(cfg: RunConfig) -> experiment.SwitchTiming:
    """Switching timing; a drive without toggle has no toggle instant."""
    sw = cfg.switching
    return _build(experiment.SwitchTiming, sw, _SWITCHING,
                  t_toggle=sw.t_toggle_s if sw.toggle else None)


# include_switch is ignored; perfbench/run.py (_fit) still passes it
def build_netlist(cfg: RunConfig, include_switch: bool | None = None) -> circuit.GateNetlist:
    return circuit.build_majority_gate(
        build_geometry(cfg), build_context(cfg), build_settings(cfg))
