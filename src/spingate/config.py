"""Run configuration: flat dotted-key text files with strict parsing.

The format is one ``key = value`` assignment per line, ``#`` comments,
dotted keys grouped by section.  Unknown keys are rejected so a config
never silently drifts from the code.  The defaults reproduce the
reference operating point: parallel field of 142.9 mT, carrier at
6.035 GHz, saturation magnetization fitted so the uniform-precession
frequency sits at 6.06 GHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from . import circuit, physics


# ceilings of the drive amplitude, the detector responsivity and each
# coupling gain: every other element of a channel attenuates, so the
# summed envelope stays below 1e31 and the detected power,
# responsivity * |drive * sum of gains|^2, below 1e73, far from overflow
MAX_LEVEL = 1.0e10
MAX_GAIN_DB = 200.0


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


_SECTIONS = {
    "film": "film",
    "field": "field_",
    "geometry": "geometry",
    "microwave": "microwave",
    "detector": "detector",
    "encoding": "encoding",
    "switching": "switching",
    "spectrum": "spectrum",
    "dispersion": "dispersion",
    "scaling": "scaling",
}


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


def validate_config(cfg: RunConfig) -> None:
    """Raise ConfigError for a config no command can run.

    Every number must be finite (NaN passes every ordering test below);
    then the per-field ranges apply.
    """
    bad = _non_finite_key(cfg)
    if bad:
        raise ConfigError(f"{bad} must be finite")
    if cfg.field_.orientation not in ("parallel", "perpendicular"):
        raise ConfigError("field.orientation must be parallel or perpendicular")
    if cfg.film.mu0_ms_t <= 0 or cfg.film.thickness_m <= 0:
        raise ConfigError("film constants must be positive")
    if cfg.film.linewidth_t < 0 or cfg.film.fit_fmr_hz < 0:
        raise ConfigError("film.linewidth_t and film.fit_fmr_hz must be nonnegative")
    if cfg.film.gamma_rad_per_s_t <= 0:
        raise ConfigError("film.gamma_rad_per_s_t must be positive")
    if cfg.field_.mu0_h_t <= 0:
        raise ConfigError("field.mu0_h_t must be positive")
    g = cfg.geometry
    for name in ("w_g_m", "w_a_m", "scale"):
        if getattr(g, name) <= 0:
            raise ConfigError(f"geometry.{name} must be positive")
    least = {"l_in_m": min(g.l_in_m), "l_skew_m": min(g.l_skew_m),
             "l_out_m": g.l_out_m, "bend_loss_db": g.bend_loss_db}
    for name, value in least.items():
        if value < 0:
            raise ConfigError(f"geometry.{name} must be nonnegative")
    m = cfg.microwave
    if any(db < 0 for db in m.attenuator_db):
        raise ConfigError("microwave.attenuator_db entries must be nonnegative")
    if m.f_c_hz <= 0:
        raise ConfigError("microwave.f_c_hz must be positive")
    if not 0 < m.drive_amplitude <= MAX_LEVEL:
        raise ConfigError(f"microwave.drive_amplitude must lie in (0, {MAX_LEVEL:g}]")
    if max(m.coupling_db) > MAX_GAIN_DB:
        raise ConfigError(f"microwave.coupling_db entries must not exceed {MAX_GAIN_DB:g} dB")
    if m.output_coupling_db > MAX_GAIN_DB:
        raise ConfigError(f"microwave.output_coupling_db must not exceed {MAX_GAIN_DB:g} dB")
    if not 0 < cfg.detector.responsivity_v <= MAX_LEVEL:
        raise ConfigError(f"detector.responsivity_v must lie in (0, {MAX_LEVEL:g}]")
    if not 0 < cfg.encoding.guard_rad <= 0.5 * math.pi:
        raise ConfigError("encoding.guard_rad must lie in (0, pi/2]")
    sw = cfg.switching
    if sw.dt_s <= 0 or sw.duration_s <= sw.dt_s:
        raise ConfigError("switching grid is degenerate")
    if not 0 < sw.ramp_s <= sw.duration_s:
        raise ConfigError("switching.ramp_s must lie in (0, switching.duration_s]")
    if sw.toggle and not 0 < sw.t_toggle_s < sw.duration_s:
        raise ConfigError("switching.t_toggle_s must lie in (0, switching.duration_s)")
    if sw.effective_path_m < 0:
        raise ConfigError("switching.effective_path_m must be nonnegative")
    if not 0 < cfg.detector.lp_cutoff_hz < 0.5 / sw.dt_s:
        raise ConfigError("detector.lp_cutoff_hz must lie in (0, 1/(2*switching.dt_s))")
    if cfg.spectrum.n_points < 2 or cfg.spectrum.f_stop_hz <= cfg.spectrum.f_start_hz:
        raise ConfigError("spectrum grid is degenerate")
    if cfg.dispersion.n_points < 2 or cfg.dispersion.k_stop_rad_per_m <= cfg.dispersion.k_start_rad_per_m:
        raise ConfigError("dispersion grid is degenerate")
    if cfg.dispersion.k_start_rad_per_m <= 0:
        raise ConfigError("dispersion.k_start_rad_per_m must be positive")
    if any(s <= 0 for s in cfg.scaling.scales):
        raise ConfigError("scaling.scales must be positive")


def build_context(cfg: RunConfig) -> physics.ModeContext:
    """Film and field from the config, with the optional Ms fit applied."""
    film = physics.FilmParams(
        Ms=cfg.film.mu0_ms_t / physics.MU0,
        d=cfg.film.thickness_m,
        gamma=cfg.film.gamma_rad_per_s_t,
        mu0_dh0=cfg.film.linewidth_t,
        label="config",
    )
    bias = physics.BiasField(
        mu0_h=cfg.field_.mu0_h_t,
        orientation=physics.Orientation(cfg.field_.orientation),
    )
    ctx = physics.ModeContext(film=film, field=bias)
    if cfg.film.fit_fmr_hz > 0:
        ctx = ctx.with_ms(physics.calibrate_ms(ctx, cfg.film.fit_fmr_hz))
    return ctx


def build_geometry(cfg: RunConfig) -> circuit.DeviceGeometry:
    g = cfg.geometry
    return circuit.DeviceGeometry(
        w_g=g.w_g_m, w_a=g.w_a_m, l_in=g.l_in_m, l_skew=g.l_skew_m,
        l_out=g.l_out_m, bend_loss_db=g.bend_loss_db, scale=g.scale,
    )


def build_settings(cfg: RunConfig) -> circuit.MicrowaveSettings:
    m = cfg.microwave
    return circuit.MicrowaveSettings(
        f_c=m.f_c_hz,
        drive_amplitude=m.drive_amplitude,
        attenuator_db=m.attenuator_db,
        phase_rad=m.phase_rad,
        coupling_db=m.coupling_db,
        coupling_phase_rad=m.coupling_phase_rad,
        output_coupling_db=m.output_coupling_db,
    )


# include_switch is ignored; perfbench/run.py (_fit) still passes it
def build_netlist(cfg: RunConfig, include_switch: bool | None = None) -> circuit.GateNetlist:
    return circuit.build_majority_gate(
        build_geometry(cfg), build_context(cfg), build_settings(cfg))
