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
from functools import cached_property

import numpy as np

from . import physics
from ._kernels import kernels
from .record import record, replace
from .signal import MAX_LEVEL, phase_setting
from .table import write_rows

CHANNELS = ("i1", "i2", "i3")
# ceiling of each coupling gain, the one element of a channel that
# amplifies: with the drive capped too, the envelope stays below 1e31
MAX_GAIN_DB = 200.0
# dB of a decay by one neper, 20*log10(e)
_DB_PER_NEPER = 20.0 / math.log(10.0)


def _loss_amp(db: float) -> float:
    """Amplitude factor of an insertion loss given in dB (>= 0)."""
    return 10.0 ** (-db / 20.0)


@record
class DeviceGeometry:
    """Antenna width and per-segment path lengths of the three-arm gate.

    Lengths are the as-built values in metres; ``scale`` multiplies every
    length and the width where the netlist reads them, which is how the
    miniaturization study shrinks the device.  The default segment
    lengths are read off the device photograph and are config, not
    measurement.
    """

    w_a: float = 7.5e-5
    l_in: tuple[float, float, float] = (10.0e-3, 10.0e-3, 10.0e-3)
    l_skew: tuple[float, float, float] = (6.0e-3, 0.0, 6.0e-3)
    l_out: float = 10.0e-3
    bend_loss_db: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        for name in ("w_a", "scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name, values in (("l_in", self.l_in), ("l_skew", self.l_skew),
                             ("l_out", (self.l_out,)),
                             ("bend_loss_db", (self.bend_loss_db,))):
            if not all(v >= 0 for v in values):
                raise ValueError(f"{name} must be nonnegative")

    def rescaled(self, factor: float) -> "DeviceGeometry":
        return replace(self, scale=self.scale * factor)


@record
class MicrowaveSettings:
    """Per-channel conditioning and drive parameters.

    attenuator_db / phase_rad are the adjustable elements the calibration
    procedure acts on; coupling_db / coupling_phase_rad model the fixed
    hardware asymmetry of connectors and excitation efficiency.  A
    phase_rad entry outside (-pi, pi] is kept as its phasor's angle.
    """

    f_c: float = 6.035e9
    drive_amplitude: float = 1.0
    attenuator_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phase_rad: tuple[float, float, float] = (0.0, 0.0, 0.0)
    coupling_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    coupling_phase_rad: tuple[float, float, float] = (0.0, 0.0, 0.0)
    output_coupling_db: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phase_rad", tuple(
            phase_setting(rad, "phase_rad") for rad in self.phase_rad))
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


@record
class Propagation:
    """What the film and the antennas set on a frequency grid, the same
    for the three channels.

    k holds the solved wavenumbers and speed the group speed |v_g| there
    (both NaN in the stopband), shape the squared antenna shape of both
    transducers (0 there), one entry per frequency.  The carrier is the
    one-point grid [f_c].
    """

    k: np.ndarray
    speed: np.ndarray
    shape: np.ndarray


@record
class GateNetlist:
    """The three-input gate: three input arms merging into one output arm.

    Arm i runs attenuator, phase shifter and excitation antenna into its
    input film segment and, where its skew length is nonzero, a bend plus
    the skew segment; an ideal lossless combiner adds the arms into the
    output segment, the detection antenna and the diode.  Every
    per-channel quantity derives from the geometry and the settings.
    Frozen, so derived quantities are cached on the instance; the edits
    are ``with_controls`` and ``rescaled``.
    """

    ctx: physics.ModeContext
    geometry: DeviceGeometry
    settings: MicrowaveSettings

    @cached_property
    def lengths(self) -> tuple[float, float, float]:
        """Summed film length of each channel: input, skew, output."""
        g = self.geometry
        return tuple(((0.0 + g.l_in[i] * g.scale) + g.l_skew[i] * g.scale)
                     + g.l_out * g.scale for i in range(len(CHANNELS)))

    def _constants(self, attenuator_db) -> tuple[complex, complex, complex]:
        """Frequency-flat gain of each channel at the given attenuator
        settings, the rest as set.

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
            const *= _loss_amp(attenuator_db[i])
            const *= cmath.exp(1j * s.phase_rad[i])
            const *= 10.0 ** (s.coupling_db[i] / 20.0) * cmath.exp(
                1j * s.coupling_phase_rad[i])
            if g.l_skew[i] * g.scale > 0.0:
                const *= _loss_amp(g.bend_loss_db)
            const *= out_coupling
            constants.append(const)
        return tuple(constants)

    def chain_floor_db(self, attenuator_db) -> tuple[float, float, float]:
        """Lowest level, in dB, of each channel's frequency-flat chain
        ahead of the output coupling at the given attenuator settings:
        after the attenuator, or after the coupling and the bend loss
        that follow it in _constants, whichever is lower."""
        s, g = self.settings, self.geometry
        floors = []
        for i in range(len(CHANNELS)):
            inner_db = s.coupling_db[i]
            if g.l_skew[i] * g.scale > 0.0:
                inner_db -= g.bend_loss_db
            floors.append(min(0.0, inner_db) - attenuator_db[i])
        return tuple(floors)

    @cached_property
    def constants(self) -> tuple[complex, complex, complex]:
        """Frequency-flat gain of each channel at its settings."""
        return self._constants(self.settings.attenuator_db)

    @cached_property
    def carrier(self) -> Propagation:
        """The propagation of the one-point grid [f_c]: k(f_c) and |v_g|
        there, solved once, and the shape."""
        return propagation(self,
                           physics.solve_k_grid(self.ctx, self.settings.f_c))

    @cached_property
    def carrier_film(self) -> np.ndarray:
        """The three channels' film gains at the carrier, one kernel call
        over their summed lengths."""
        prop = self.carrier
        return waveguide_transfer(self.ctx, self.lengths, prop.k, prop.speed,
                                  prop.k[0])

    def _gains(self, constants) -> np.ndarray:
        """Read-only vector product constants x film x shape."""
        gains = np.array(constants) * self.carrier_film * self.carrier.shape
        gains.flags.writeable = False
        return gains

    @cached_property
    def carrier_gains(self) -> np.ndarray:
        """Read-only complex gains of i1, i2, i3 at the carrier: the
        vector product constants x film x shape."""
        return self._gains(self.constants)

    def carrier_gains_at(self, attenuator_db) -> np.ndarray:
        """The carrier gains of this netlist with other attenuator
        settings, bit for bit those of its ``with_controls`` copy, without
        making the copy."""
        return self._gains(self._constants(attenuator_db))

    def with_controls(self, *, attenuator_db=None, phase_rad=None) -> "GateNetlist":
        """Copy with new attenuator and/or phase shifter settings.

        Lengths, the carrier and the film stay, so the copy inherits the
        carrier and its film gains (computing them here if they are not
        yet) and recomputes only its constants.
        """
        controls = {}
        if attenuator_db is not None:
            controls["attenuator_db"] = tuple(attenuator_db)
        if phase_rad is not None:
            controls["phase_rad"] = tuple(phase_rad)
        out = replace(self, settings=replace(self.settings, **controls))
        # cached_property storage: the copy starts with the same values
        out.__dict__["carrier"] = self.carrier
        out.__dict__["carrier_film"] = self.carrier_film
        return out

    def rescaled(self, factor: float) -> "GateNetlist":
        """Copy with every length and the antenna width scaled by factor.

        The film, the field and the carrier stay, so the copy reuses this
        netlist's k(f_c) and |v_g| there (solving them here if they are
        not yet) and recomputes only the film gains and the antenna shape:
        bit for bit those of a gate built from scratch.
        """
        out = replace(self, geometry=self.geometry.rescaled(factor))
        out.__dict__["carrier"] = propagation(out, self.carrier.k,
                                              self.carrier.speed)
        return out


def transducer_efficiency(geometry: DeviceGeometry, k) -> np.ndarray:
    """Wavenumber-selective coupling of a stripline antenna of width w_a.

    gain = sinc(k * w_a / 2) at the solved wavenumbers k (rad/m); exactly 0
    where k is NaN, the stopband, and where k * w_a / 2 overflows, the
    limit of the sinc.  The caller multiplies in any per-antenna coupling
    constant.
    """
    width = geometry.w_a * geometry.scale
    # the sinc of an infinite argument is NaN (sin(inf)), set to its
    # limit 0 with the stopband's
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(k, dtype=np.float64) * (0.5 * width)
        gain = np.sinc(x / math.pi)
    inside = np.isfinite(x)
    if not inside.all():
        gain[~inside] = 0.0
    return gain


def propagation(nl: GateNetlist, k, speed=None) -> Propagation:
    """The propagation of a netlist's film and antennas at the solved
    wavenumbers k (rad/m, NaN outside the band); the group speed, unless
    given, is evaluated in the band only."""
    if speed is None:
        inband = ~np.isnan(k)
        if inband.all():
            speed = np.abs(physics.group_velocity(nl.ctx, k))
        else:
            speed = np.full(k.shape, np.nan)
            speed[inband] = np.abs(physics.group_velocity(nl.ctx, k[inband]))
    return Propagation(k=k, speed=speed,
                       shape=transducer_efficiency(nl.geometry, k) ** 2)


def waveguide_transfer(ctx: physics.ModeContext, length, k, speed,
                       k_c: float) -> np.ndarray:
    """Complex gain of a film segment of the given length.

    k and speed hold the solved wavenumbers and group speeds |vg| of the
    frequencies (NaN outside the band, see ``propagation``), k_c the
    carrier's wavenumber.  Carrier phase -k_c*length; every bin is delayed
    by length/|vg(f)| and damped by exp(-eta*length/|vg(f)|), eta the
    film's damping rate.  Stopband frequencies return exactly 0; zero
    length is an exact unit gain.  An array of lengths that broadcasts
    against k gives the gains of several segments at once.
    """
    return kernels.waveguide_gain(
        np.asarray(k, dtype=np.float64), np.asarray(speed, dtype=np.float64),
        float(k_c), np.asarray(length, dtype=np.float64),
        physics.damping_rate(ctx), ctx.branch)


def channel_transfer(nl: GateNetlist, channel: str, f) -> np.ndarray:
    """Complex gain from one source to the detector input over a
    frequency grid (a scalar f is the one-point grid [f]).

    The channel's constant times the film gain over its summed length
    (the gain of a segment is exponential in its length) times the
    antenna shape of both transducers, both set by k(f), as the grid's
    ``propagation`` holds them.  On the one-point grid [f_c] the gain of
    channel i is entry i of the netlist's ``carrier_gains``, bit for bit.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    idx = CHANNELS.index(channel)
    prop = propagation(nl, physics.solve_k_grid(nl.ctx, f))
    film = waveguide_transfer(nl.ctx, nl.lengths[idx], prop.k, prop.speed,
                              nl.carrier.k[0])
    return nl.constants[idx] * film * prop.shape


def _ascending(f_grid) -> np.ndarray:
    """f_grid as a float64 array, or ValueError unless each point lies
    above the one before it (a NaN lies above nothing, and nothing above
    it)."""
    f_grid = np.asarray(f_grid, dtype=np.float64)
    if not np.all(f_grid[1:] > f_grid[:-1]):
        raise ValueError("frequency grid must be ascending")
    return f_grid


def transmission_spectrum(nl: GateNetlist, f_grid,
                          floor_db: float = -80.0) -> tuple[np.ndarray, ...]:
    """|S21| in dB of i1, i2 and i3 over a frequency grid, floored at floor_db.

    The magnitude of channel_transfer, taken in dB without its phase:
    curve i is 20*log10|c_i| + 20*log10(shape) - L_i * loss, with c_i the
    channel's constant, shape the squared antenna shape, L_i the summed
    film length and loss = 20*log10(e) * eta / |v_g| the film's decay in
    dB per metre, exp(-eta*L/|v_g|) in dB.  The grid's propagation and the
    two per-bin terms are computed once for the three channels; a channel
    costs one multiply and two adds, and a zero-length one is the unit
    film gain at every bin.  The floor (np.fmax) replaces the stopband
    (NaN k, zero shape), the band edges where |v_g| is 0, a zero constant
    and any deeper physical decay, mimicking a finite instrument noise
    floor.  It agrees with max(20*log10|channel_transfer|, floor_db) to a
    few 1e-15 relative, with the same bins on the floor, and below the
    ~-6000 dB where the complex gain underflows it still writes the decay.
    """
    f_grid = _ascending(f_grid)
    prop = propagation(nl, physics.solve_k_grid(nl.ctx, f_grid))
    # the two per-bin terms, in place of the shape and the speed this call
    # made; -inf (log10(0)), inf and NaN (|v_g| = 0, and 0/0 without
    # damping) all end on the floor
    with np.errstate(divide="ignore", invalid="ignore"):
        shape_db = np.log10(prop.shape, out=prop.shape)
        shape_db *= 20.0
        loss = np.divide(_DB_PER_NEPER * physics.damping_rate(nl.ctx),
                         prop.speed, out=prop.speed)
    del prop
    spectra = []
    with np.errstate(over="ignore"):
        for length, const in zip(nl.lengths, nl.constants):
            level = 20.0 * math.log10(abs(const)) if const else -math.inf
            if length:
                db = np.multiply(length, loss)
                np.subtract(shape_db, db, out=db)
            else:
                db = shape_db.copy()
            db += level
            spectra.append(np.fmax(db, floor_db, out=db))
    return tuple(spectra)


def build_majority_gate(geometry: DeviceGeometry, ctx: physics.ModeContext,
                        settings: MicrowaveSettings | None = None) -> GateNetlist:
    """The three-input one-output gate of a geometry, film and settings."""
    return GateNetlist(ctx=ctx, geometry=geometry,
                       settings=settings or MicrowaveSettings())


def spectrum_to_csv(nl: GateNetlist, grid, paths,
                    floor_db: float = -80.0) -> np.ndarray:
    """Write the transmission_spectrum of each channel over a frequency
    grid (a config.Grid) to its path as CSV with columns f_hz, s21_db, and
    return each channel's peak in dB.

    The writer asks for the ascending grid table.COMPUTE_ROWS frequencies
    at a time: the grid computes each range, and transmission_spectrum
    runs on it, just before the writer formats its rows, so neither the
    grid nor any spectrum is ever whole in memory.  Every stage of it is
    elementwise, so the bytes are those of one call on the whole grid.
    The grid's ascent is checked before a file is opened, as a range's
    call checks only its own steps.  The shared f_hz column is formatted
    once for all the files.
    """
    if not grid.ascends():
        raise ValueError("frequency grid must be ascending")
    peaks = np.full(len(CHANNELS), -np.inf)

    def columns(lo: int, hi: int):
        f = grid.points(lo, hi)
        spectra = transmission_spectrum(nl, f, floor_db)
        # each peak from its own contiguous spectrum, not a strided
        # column of the block
        np.maximum(peaks, [db.max() for db in spectra], out=peaks)
        return (f, *spectra)

    write_rows(paths, "f_hz,s21_db", 1, grid.n, columns)
    return peaks
