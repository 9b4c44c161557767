"""Run configuration: flat dotted-key text files with strict parsing.

The format is one ``key = value`` assignment per line, ``#`` comments,
dotted keys grouped by section.  Unknown keys are rejected so a config
never silently drifts from the code.  The defaults reproduce the
reference operating point: parallel field of 142.9 mT, carrier at
6.035 GHz, saturation magnetization fitted so the uniform-precession
frequency sits at 6.06 GHz.  Validation builds the records every
command runs on (a Setup) and calls the procedures' preconditions, which
hold every range check; it only names the dotted key of the field a
check rejects.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import circuit, experiment, logic, physics, signal, table
from .record import fields, record


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


@record
class FilmConfig:
    mu0_ms_t: float = 0.176
    thickness_m: float = 5.4e-6
    gamma_rad_per_s_t: float = physics.GAMMA_DEFAULT
    linewidth_t: float = 6.2e-5
    # fit Ms so the k = 0 frequency lands here; 0 disables the fit
    fit_fmr_hz: float = 6.06e9


@record
class FieldConfig:
    mu0_h_t: float = 0.1429
    orientation: str = "parallel"


@record
class GeometryConfig:
    w_a_m: float = 7.5e-5
    l_in_m: tuple[float, float, float] = (10.0e-3, 10.0e-3, 10.0e-3)
    l_skew_m: tuple[float, float, float] = (6.0e-3, 0.0, 6.0e-3)
    l_out_m: float = 10.0e-3
    bend_loss_db: float = 3.0
    scale: float = 1.0


@record
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


@record
class DetectorConfig:
    responsivity_v: float = 1.0
    lp_cutoff_hz: float = 5.0e8


@record
class EncodingConfig:
    phi0_rad: float = 0.0
    guard_rad: float = 0.5 * math.pi - 0.01


@record
class SwitchingConfig:
    dt_s: float = 1.0e-10
    duration_s: float = 4.096e-7
    t_toggle_s: float = 2.0e-7
    ramp_s: float = 2.0e-9
    ref_phase_rad: float = math.pi
    # effective transit path fitted so the reference device reproduces the
    # measured 11.3 ns transition; see experiment.fit_effective_path
    effective_path_m: float = 1.34872e-3


@record
class Grid:
    """The n points np.linspace(start, stop, n) spaces, or, if log, their
    powers of ten (np.logspace's, when start and stop are np.log10 of its
    ends), computed a range at a time: the grids of the spectrum commands
    are never whole in memory."""

    start: float
    stop: float
    n: int
    log: bool = False

    def points(self, lo: int, hi: int) -> np.ndarray:
        """Points lo to hi of the grid, bit for bit those of the whole.

        np.linspace's float64 formula (numpy 2.4), on the indices lo to hi
        alone: index * step + start, or index / div * delta where the step
        underflows to 0, index * delta on a one-point grid, and the last
        point set to stop.  A log grid takes np.power(10, .) in place.
        Raises ValueError unless 0 <= lo <= hi <= n.
        """
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(
                f"points {lo} to {hi} are not a range of {self.n} points")
        y = np.arange(lo, hi, dtype=np.float64)
        delta = self.stop - self.start
        div = self.n - 1
        if div > 0:
            step = delta / div
            if step == 0:
                y /= div
                y *= delta
            else:
                y *= step
        else:
            y *= delta
        y += self.start
        # a nonempty range that ends a grid of two or more points
        if lo < hi == self.n > 1:
            y[-1] = self.stop
        if self.log:
            np.power(10.0, y, out=y)
        return y

    def ascends(self) -> bool:
        """Whether each point lies above the one before it (a NaN lies
        above nothing, and nothing above it).

        np.linspace rounds each point by at most about two ulps of the
        larger end, so a finite step of more than 16 ulps ascends; a finer
        linear grid, or a log one, is checked point by point,
        table.COMPUTE_ROWS points at a time.
        """
        if self.n > 1 and not self.log:
            step = (self.stop - self.start) / (self.n - 1)
            ulp = math.ulp(max(abs(self.start), abs(self.stop)))
            if 16.0 * ulp < step < math.inf:
                return True
        rows = table.COMPUTE_ROWS
        # each range reaches one point into the next, which checks the
        # step across their boundary
        for lo in range(0, self.n - 1, rows):
            y = self.points(lo, min(lo + rows, self.n - 1) + 1)
            if not np.all(y[1:] > y[:-1]):
                return False
        return True


@record
class SpectrumConfig:
    f_start_hz: float = 5.9e9
    f_stop_hz: float = 6.12e9
    n_points: int = 441
    floor_db: float = -80.0

    def grid(self) -> Grid:
        """The frequencies (Hz) transmission runs on."""
        return Grid(self.f_start_hz, self.f_stop_hz, self.n_points)


@record
class DispersionConfig:
    k_start_rad_per_m: float = 50.0
    k_stop_rad_per_m: float = 2.0e5
    n_points: int = 400
    log_k: bool = True

    def grid(self) -> Grid:
        """The wavenumbers (rad/m) dispersion runs on: np.logspace's
        between the ends if log_k, else np.linspace's."""
        if self.log_k:
            return Grid(float(np.log10(self.k_start_rad_per_m)),
                        float(np.log10(self.k_stop_rad_per_m)),
                        self.n_points, log=True)
        return Grid(self.k_start_rad_per_m, self.k_stop_rad_per_m,
                    self.n_points)


@record
class ScalingConfig:
    scales: tuple[float, ...] = (1.0, 0.5, 0.2, 0.1, 0.05)


# the default sections are shared by every RunConfig: records are frozen
@record
class RunConfig:
    film: FilmConfig = FilmConfig()
    field: FieldConfig = FieldConfig()
    geometry: GeometryConfig = GeometryConfig()
    microwave: MicrowaveConfig = MicrowaveConfig()
    detector: DetectorConfig = DetectorConfig()
    encoding: EncodingConfig = EncodingConfig()
    switching: SwitchingConfig = SwitchingConfig()
    spectrum: SpectrumConfig = SpectrumConfig()
    dispersion: DispersionConfig = DispersionConfig()
    scaling: ScalingConfig = ScalingConfig()


# the section names, RunConfig's attributes in order
_SECTIONS = fields(RunConfig)


def number(raw: str, kind=float):
    """kind(raw), float or int, refusing the digit-group underscores
    ('1_0') Python's parsers accept: serialize_config never writes one,
    and a value that holds one is a typo to report, not a number."""
    if "_" in raw:
        raise ValueError(f"invalid {kind.__name__} literal: {raw!r}")
    return kind(raw)


def _parse_value(raw: str, current):
    raw = raw.strip()
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(current, tuple):
        # a blank value is the empty list; an empty entry is an error
        try:
            values = tuple(number(p) for p in raw.split(",")) if raw else ()
        except ValueError as err:
            raise ConfigError(f"bad list value {raw!r}") from err
        # per-channel triples keep their arity; free-length lists do not
        if len(current) == 3 and len(values) != 3:
            raise ConfigError(f"expected 3 values, got {len(values)}: {raw!r}")
        return values
    if isinstance(current, int) and not isinstance(current, bool):
        try:
            return number(raw, int)
        except ValueError as err:
            raise ConfigError(f"expected an integer, got {raw!r}") from err
    if isinstance(current, float):
        try:
            return number(raw)
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
_DEFAULTS = {name: getattr(RunConfig(), name) for name in _SECTIONS}
_FIELDS = {name: set(fields(obj)) for name, obj in _DEFAULTS.items()}


def read_assignments(text: str, where: str = "line"):
    """Yield (lineno, key, raw value) for each ``key = value`` line.

    ``#`` starts a comment and blank lines are skipped; a line without
    ``=`` raises ConfigError, naming it as ``{where} {lineno}``.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where} {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        yield lineno, key, raw


def read_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse a flat key = value document into a RunConfig, unvalidated.

    Values are collected per section, overrides (dotted key -> value of
    the field's type) replace them, and each section is built once; a key
    given twice keeps its last value.  Only the syntax, the keys and the
    value types of the text are checked here; see validate_config.
    """
    values = {name: {} for name in _SECTIONS}
    for lineno, key, raw in read_assignments(text):
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} has no section")
        section, attr = key.split(".", 1)
        if section not in values:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        if attr not in _FIELDS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[section][attr] = _parse_value(
                raw, getattr(_DEFAULTS[section], attr))
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {err}") from err
    for key, value in (overrides or {}).items():
        section, attr = key.split(".", 1)
        values[section][attr] = value
    return RunConfig(**{name: type(_DEFAULTS[name])(**values[name])
                        for name in _SECTIONS})


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig."""
    cfg = read_config(text)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Dump a RunConfig to the flat text format, sections in fixed order."""
    lines = []
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for name in fields(obj):
            lines.append(f"{section}.{name} = {_format_value(getattr(obj, name))}")
    return "\n".join(lines) + "\n"


def _non_finite_key(cfg: RunConfig) -> str | None:
    """First dotted key holding a NaN or infinite number, if any."""
    for section in _SECTIONS:
        for name, value in vars(getattr(cfg, section)).items():
            if isinstance(value, tuple):
                if not all(map(math.isfinite, value)):
                    return f"{section}.{name}"
            elif isinstance(value, float) and not math.isfinite(value):
                return f"{section}.{name}"
    return None


# config field -> record field, one table per record-backed section;
# read by validate_config to build each record and to name its keys
_FILM = {"mu0_ms_t": "Ms", "thickness_m": "d", "gamma_rad_per_s_t": "gamma",
         "linewidth_t": "mu0_dh0"}
_FIELD = {"mu0_h_t": "mu0_h", "orientation": "orientation"}
_GEOMETRY = {"w_a_m": "w_a", "l_in_m": "l_in", "l_skew_m": "l_skew",
             "l_out_m": "l_out", "bend_loss_db": "bend_loss_db",
             "scale": "scale"}
_MICROWAVE = {"f_c_hz": "f_c", "drive_amplitude": "drive_amplitude",
              "attenuator_db": "attenuator_db", "phase_rad": "phase_rad",
              "coupling_db": "coupling_db",
              "coupling_phase_rad": "coupling_phase_rad",
              "output_coupling_db": "output_coupling_db"}
_ENCODING = {"phi0_rad": "phi0", "guard_rad": "guard"}
_SWITCHING = {"dt_s": "dt", "duration_s": "duration", "t_toggle_s": "t_toggle",
              "ramp_s": "ramp"}
_DETECTOR = {"lp_cutoff_hz": "lp_cutoff", "responsivity_v": "responsivity"}
# record field or procedure argument -> the dotted key that sets it
_KEYS = {arg: f"{section}.{name}" for section, table in (
    ("film", _FILM), ("field", _FIELD), ("geometry", _GEOMETRY),
    ("microwave", _MICROWAVE), ("encoding", _ENCODING),
    ("switching", _SWITCHING), ("detector", _DETECTOR),
    ("switching", {"effective_path_m": "effective_path"}),
    ("scaling", {"scales": "scales"})) for name, arg in table.items()}
_WORD = re.compile(r"\w+")


def _build(cls, section, table: dict, **values):
    """cls from a config section through its table; values override."""
    return cls(**{arg: getattr(section, name) for name, arg in table.items()}
               | values)


@record
class Setup:
    """The records validate_config built from one config, which every
    command runs on: the film as configured (before any Ms fit), the bias
    field, the geometry, the microwave settings and the keywords of
    experiment.run_switching (which experiment.scaling_study takes too;
    the effective path scales with the geometry)."""

    cfg: RunConfig
    film: physics.FilmParams
    bias: physics.BiasField
    geometry: circuit.DeviceGeometry
    settings: circuit.MicrowaveSettings
    switching: dict

    def context(self) -> physics.ModeContext:
        """Film and field, with the optional Ms fit applied: the only
        source of BandError before a command runs."""
        ctx = physics.ModeContext(film=self.film, field=self.bias)
        if self.cfg.film.fit_fmr_hz > 0:
            ctx = ctx.with_ms(physics.calibrate_ms(ctx, self.cfg.film.fit_fmr_hz))
        return ctx

    def netlist(self) -> circuit.GateNetlist:
        return circuit.build_majority_gate(self.geometry, self.context(),
                                           self.settings)


def validate_config(cfg: RunConfig) -> Setup:
    """The records of a config, or ConfigError for one no command can run.

    Every number must be finite, and the fields no record reads in
    range (the Ms fit target, the orientation, the spectrum and
    dispersion grids, of 2 to experiment.MAX_SAMPLES points, the spectrum
    grid strictly ascending as np.linspace makes it).  Then one
    pass builds each record and calls each precondition; every record
    field or argument name in a ValueError they raise becomes its dotted
    config key.
    """
    bad = _non_finite_key(cfg)
    if bad:
        raise ConfigError(f"{bad} must be finite")
    if cfg.field.orientation not in ("parallel", "perpendicular"):
        raise ConfigError("field.orientation must be parallel or perpendicular")
    if cfg.film.fit_fmr_hz < 0:
        raise ConfigError("film.fit_fmr_hz must be nonnegative")
    sp, disp = cfg.spectrum, cfg.dispersion
    for section, grid in (("spectrum", sp), ("dispersion", disp)):
        if not 2 <= grid.n_points <= experiment.MAX_SAMPLES:
            raise ConfigError(f"{section}.n_points must lie in "
                              f"[2, {experiment.MAX_SAMPLES}]")
    if sp.f_stop_hz <= sp.f_start_hz:
        raise ConfigError("spectrum.f_stop_hz must exceed spectrum.f_start_hz")
    # transmission writes its files block by block, so a grid that does
    # not ascend is refused here, before any block is written
    if not sp.grid().ascends():
        raise ConfigError(
            f"spectrum.n_points = {sp.n_points} makes a grid from "
            "spectrum.f_start_hz to spectrum.f_stop_hz that does not "
            "ascend strictly in float64")
    if disp.k_start_rad_per_m <= 0:
        raise ConfigError("dispersion.k_start_rad_per_m must be positive")
    if disp.k_stop_rad_per_m <= disp.k_start_rad_per_m:
        raise ConfigError("dispersion.k_stop_rad_per_m must exceed "
                          "dispersion.k_start_rad_per_m")
    sw = cfg.switching
    try:
        setup = Setup(
            cfg,
            _build(physics.FilmParams, cfg.film, _FILM,
                   Ms=cfg.film.mu0_ms_t / physics.MU0),
            _build(physics.BiasField, cfg.field, _FIELD,
                   orientation=physics.Orientation(cfg.field.orientation)),
            _build(circuit.DeviceGeometry, cfg.geometry, _GEOMETRY),
            _build(circuit.MicrowaveSettings, cfg.microwave, _MICROWAVE),
            _build(dict, cfg.detector, _DETECTOR,
                   enc=_build(logic.PhaseEncoding, cfg.encoding, _ENCODING),
                   timing=_build(experiment.SwitchTiming, sw, _SWITCHING),
                   ref_phase=sw.ref_phase_rad,
                   effective_path=sw.effective_path_m * cfg.geometry.scale))
        signal.check_detection(cfg.detector.lp_cutoff_hz,
                               cfg.detector.responsivity_v, sw.dt_s)
        experiment.check_effective_path(sw.effective_path_m)
        experiment.check_scales(cfg.scaling.scales)
    except ValueError as err:
        raise ConfigError(_WORD.sub(lambda m: _KEYS.get(m[0], m[0]),
                                    str(err))) from err
    return setup


# include_switch is ignored; perfbench/run.py (_fit) still passes it
def build_netlist(cfg: RunConfig, include_switch: bool | None = None) -> circuit.GateNetlist:
    return validate_config(cfg).netlist()
