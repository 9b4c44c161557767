"""The gate record: microwave conditioning and the film waveguide network.

Three input arms (attenuator, phase shifter, excitation transducer,
film segments, a bend on the skewed arms) merge in a combiner into one
output arm (film segment, detection transducer, diode).  A channel's
gain at an absolute frequency is a frequency-flat constant times the
film gain over its summed length times the antenna shape; the combiner
is an ideal lossless adder, so channel superposition happens at the
amplitude level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import physics
from ._kernels import kernels
from .signal import MAX_LEVEL, format_table

CHANNELS = ("i1", "i2", "i3")
# ceiling of each coupling gain, the one element of a channel that
# amplifies: with the drive capped too, the envelope stays below 1e31
MAX_GAIN_DB = 200.0


def _loss_amp(db: float) -> float:
    """Amplitude factor of an insertion loss given in dB (>= 0)."""
    return 10.0 ** (-db / 20.0)


@dataclass(frozen=True)
class DeviceGeometry:
    """Widths and per-segment path lengths of the three-arm gate.

    Lengths are the as-built values in metres; ``scale`` multiplies every
    length and width on evaluation, which is how the miniaturization study
    shrinks the device.  The default segment lengths are read off the
    device photograph and are config, not measurement.
    """

    w_g: float = 1.5e-3
    w_a: float = 7.5e-5
    l_in: tuple[float, float, float] = (10.0e-3, 10.0e-3, 10.0e-3)
    l_skew: tuple[float, float, float] = (6.0e-3, 0.0, 6.0e-3)
    l_out: float = 10.0e-3
    bend_loss_db: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        for name in ("w_g", "w_a", "scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name, values in (("l_in", self.l_in), ("l_skew", self.l_skew),
                             ("l_out", (self.l_out,)),
                             ("bend_loss_db", (self.bend_loss_db,))):
            if not all(v >= 0 for v in values):
                raise ValueError(f"{name} must be nonnegative")

    def antenna_width(self) -> float:
        return self.w_a * self.scale

    def length_in(self, idx: int) -> float:
        return self.l_in[idx] * self.scale

    def length_skew(self, idx: int) -> float:
        return self.l_skew[idx] * self.scale

    def length_out(self) -> float:
        return self.l_out * self.scale

    def rescaled(self, factor: float) -> "DeviceGeometry":
        return replace(self, scale=self.scale * factor)


@dataclass(frozen=True)
class MicrowaveSettings:
    """Per-channel conditioning and drive parameters.

    attenuator_db / phase_rad are the adjustable elements the calibration
    procedure acts on; coupling_db / coupling_phase_rad model the fixed
    hardware asymmetry of connectors and excitation efficiency.
    """

    f_c: float = 6.035e9
    drive_amplitude: float = 1.0
    attenuator_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phase_rad: tuple[float, float, float] = (0.0, 0.0, 0.0)
    coupling_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    coupling_phase_rad: tuple[float, float, float] = (0.0, 0.0, 0.0)
    output_coupling_db: float = 0.0

    def __post_init__(self):
        if not self.f_c > 0:
            raise ValueError("f_c must be positive")
        if not 0 < self.drive_amplitude <= MAX_LEVEL:
            raise ValueError(f"drive_amplitude must lie in (0, {MAX_LEVEL:g}]")
        if not all(db >= 0 for db in self.attenuator_db):
            raise ValueError("attenuator_db entries must be nonnegative")
        for name, values in (("coupling_db", self.coupling_db),
                             ("output_coupling_db", (self.output_coupling_db,))):
            if not all(db <= MAX_GAIN_DB for db in values):
                raise ValueError(f"{name} must not exceed {MAX_GAIN_DB:g} dB")


@dataclass(frozen=True)
class CarrierPropagation:
    """The part of each channel's carrier gain that only the film sets.

    k is the solved wavenumber of the carrier f_c (NaN in the stopband),
    shared by the three channels; film[i] is channel i's film gain over
    its summed length and shape the antenna shape of both transducers,
    each a one-element array at f = [f_c].
    """

    k: float
    film: tuple
    shape: np.ndarray


@dataclass(frozen=True)
class GateNetlist:
    """The three-input gate: three input arms merging into one output arm.

    Arm i runs attenuator, phase shifter and excitation antenna into its
    input film segment and, where its skew length is nonzero, a bend plus
    the skew segment; an ideal lossless combiner adds the arms into the
    output segment, the detection antenna and the diode.  Every
    per-channel quantity derives from the geometry and the settings.
    Frozen, so derived quantities are cached on the instance; the only
    edit is ``with_controls``.
    """

    ctx: physics.ModeContext
    geometry: DeviceGeometry
    settings: MicrowaveSettings

    @cached_property
    def lengths(self) -> tuple[float, float, float]:
        """Summed film length of each channel: input, skew, output."""
        g = self.geometry
        return tuple(((0.0 + g.length_in(i)) + g.length_skew(i)) + g.length_out()
                     for i in range(len(CHANNELS)))

    @cached_property
    def constants(self) -> tuple[complex, complex, complex]:
        """Frequency-flat gain of each channel.

        Attenuator, phase shifter, input coupling, the bend loss where the
        skew is nonzero and the output coupling, multiplied in chain
        order.  Couplings are gains (positive dB amplifies), unlike the
        losses.
        """
        s, g = self.settings, self.geometry
        out_coupling = complex(10.0 ** (s.output_coupling_db / 20.0))
        constants = []
        for i in range(len(CHANNELS)):
            const = 1.0 + 0.0j
            const *= _loss_amp(s.attenuator_db[i])
            const *= cmath.exp(1j * s.phase_rad[i])
            const *= 10.0 ** (s.coupling_db[i] / 20.0) * cmath.exp(
                1j * s.coupling_phase_rad[i])
            if g.length_skew(i) > 0.0:
                const *= _loss_amp(g.bend_loss_db)
            const *= out_coupling
            constants.append(const)
        return tuple(constants)

    @cached_property
    def carrier_propagation(self) -> CarrierPropagation:
        """k(f_c), solved once, each channel's film gain and the shape."""
        f = np.array([self.settings.f_c])
        k = physics.solve_k_grid(self.ctx, f)
        film = tuple(waveguide_transfer(self.ctx, length, f, k,
                                        self.settings.f_c, k[0])
                     for length in self.lengths)
        return CarrierPropagation(k=k[0], film=film,
                                  shape=transducer_efficiency(self.geometry, k) ** 2)

    @cached_property
    def carrier_gains(self) -> np.ndarray:
        """Read-only complex gains of i1, i2, i3 at the carrier."""
        gains = np.array([channel_transfer(self, ch, self.settings.f_c)
                          for ch in CHANNELS])
        gains.flags.writeable = False
        return gains

    def with_controls(self, *, attenuator_db=None, phase_rad=None) -> "GateNetlist":
        """Copy with new attenuator and/or phase shifter settings.

        Lengths, the carrier and the film stay, so the copy inherits the
        carrier propagation (solving it here if it is not yet).
        """
        settings = self.settings
        if attenuator_db is not None:
            settings = replace(settings, attenuator_db=tuple(attenuator_db))
        if phase_rad is not None:
            settings = replace(settings, phase_rad=tuple(phase_rad))
        out = replace(self, settings=settings)
        # cached_property storage: the copy starts with the same value
        out.__dict__["carrier_propagation"] = self.carrier_propagation
        return out


def transducer_efficiency(geometry: DeviceGeometry, k) -> np.ndarray:
    """Wavenumber-selective coupling of a stripline antenna of width w_a.

    gain = sinc(k * w_a / 2) at the solved wavenumbers k (rad/m); exactly 0
    where k is NaN, the stopband, and where k * w_a / 2 overflows, the
    limit of the sinc.  The caller multiplies in any per-antenna coupling
    constant.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(k, dtype=np.float64) * (0.5 * geometry.antenna_width())
    inside = np.isfinite(x)
    return np.where(inside, np.sinc(np.where(inside, x, 0.0) / math.pi), 0.0)


def waveguide_transfer(ctx: physics.ModeContext, length: float, f, k,
                       f_c: float, k_c: float) -> np.ndarray:
    """Complex gain of a film segment of the given length.

    k are the solved wavenumbers of f and k_c that of the carrier f_c
    (NaN outside the band).  Carrier phase -k_c*length; each spectral bin
    is delayed by length/|vg(f)| relative to the carrier and damped by
    exp(-eta*length/|vg(f)|), eta the film's damping rate.  Stopband
    frequencies return exactly 0; zero length is an exact unit gain.
    """
    return kernels.waveguide_gain(
        np.asarray(f, dtype=np.float64), np.asarray(k, dtype=np.float64),
        float(f_c), float(k_c), float(length), physics.damping_rate(ctx),
        ctx.omega_h, ctx.omega_m, ctx.film.d, ctx.branch)


def channel_transfer(nl: GateNetlist, channel: str, f, k=None):
    """Complex gain from one source to the detector input.

    The channel's constant times the film gain over its summed length
    (the gain of a segment is exponential in its length) times the
    antenna shape of both transducers; k(f) is shared by the film and the
    transducers.  At the carrier (a scalar f equal to f_c) the
    propagation is the netlist's cached ``carrier_propagation``; elsewhere
    k are the solved wavenumbers of f, solved here unless given, which
    lets the channels of one grid share one solve.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    idx = CHANNELS.index(channel)
    f_c = nl.settings.f_c
    if np.ndim(f) == 0 and f == f_c:
        prop = nl.carrier_propagation
        film, shape = prop.film[idx], prop.shape
    else:
        f_arr = np.atleast_1d(np.asarray(f, dtype=np.float64))
        if k is None:
            k = physics.solve_k_grid(nl.ctx, f_arr)
        film = waveguide_transfer(nl.ctx, nl.lengths[idx], f_arr, k, f_c,
                                  nl.carrier_propagation.k)
        shape = transducer_efficiency(nl.geometry, k) ** 2
    gain = nl.constants[idx] * film * shape
    return gain if np.ndim(f) else complex(gain[0])


def transmission_spectrum(nl: GateNetlist, f_grid,
                          floor_db: float = -80.0) -> tuple[np.ndarray, ...]:
    """|S21| in dB of i1, i2 and i3 over a frequency grid, floored at floor_db.

    k(f) is solved once for the three channels, which are evaluated one
    at a time.  The floor replaces exact stopband zeros and clips any
    deeper physical decay, mimicking a finite instrument noise floor.
    """
    f_grid = np.asarray(f_grid, dtype=np.float64)
    if f_grid.size > 1 and np.any(np.diff(f_grid) <= 0):
        raise ValueError("frequency grid must be ascending")
    k = physics.solve_k_grid(nl.ctx, f_grid)
    spectra = []
    for ch in CHANNELS:
        gain = np.abs(channel_transfer(nl, ch, f_grid, k))
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(gain)
        spectra.append(np.maximum(db, floor_db))
    return tuple(spectra)


def build_majority_gate(geometry: DeviceGeometry, ctx: physics.ModeContext,
                        settings: MicrowaveSettings | None = None) -> GateNetlist:
    """The three-input one-output gate of a geometry, film and settings."""
    return GateNetlist(ctx=ctx, geometry=geometry,
                       settings=settings or MicrowaveSettings())


def spectrum_to_csv(f_grid, db) -> str:
    """CSV text with columns f_hz, s21_db."""
    return format_table("f_hz,s21_db", f_grid, db)
