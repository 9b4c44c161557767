"""Two-port netlist of the microwave chain and the film waveguide network.

Three input chains (source, attenuator, phase shifter, optional switch
plus delay line, excitation transducer, film segments, bend) merge in a
combiner into one output chain (film segment, detection transducer,
diode).  Chain evaluation multiplies the complex gains of all elements
at a given absolute frequency; the combiner itself is an ideal lossless
adder, so channel superposition happens at the amplitude level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import physics
from ._kernels import kernels
from .signal import format_table

CHANNELS = ("i1", "i2", "i3")


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
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.w_g <= 0 or self.w_a <= 0 or self.l_out < 0:
            raise ValueError("widths must be positive, lengths nonnegative")
        if any(v < 0 for v in self.l_in) or any(v < 0 for v in self.l_skew):
            raise ValueError("segment lengths must be nonnegative")

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
    include_switch: bool = False
    switch_delay_rad: float = math.pi
    crosstalk: tuple[complex, complex, complex] = (0j, 0j, 0j)

    def __post_init__(self):
        if self.f_c <= 0:
            raise ValueError("carrier frequency must be positive")
        if any(db < 0 for db in self.attenuator_db):
            raise ValueError("attenuation must be nonnegative")


@dataclass(frozen=True)
class Component:
    """One two-port element; ``params`` is a flat str->float mapping."""

    kind: str
    params: dict = field(default_factory=dict)

    KINDS = (
        "source", "splitter", "attenuator", "phase_shifter", "switch",
        "delay_line", "transducer_in", "waveguide", "bend", "combiner",
        "transducer_out", "diode",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.kind in ("attenuator", "bend") and self.params.get("db", 0.0) < 0:
            raise ValueError(f"{self.kind} loss must be nonnegative")
        if self.kind == "waveguide" and self.params.get("m", 0.0) < 0:
            raise ValueError("segment length must be nonnegative")


@dataclass(frozen=True)
class CarrierPropagation:
    """The part of each channel's carrier gain that only the film sets.

    k is the solved wavenumber of the carrier f_c (NaN in the stopband),
    shared by the three channels; film[i] and shape[i] are channel i's
    film gain over its summed segment length and its transducer shape
    (None without transducers), each a one-element array at f = [f_c].
    """

    f: np.ndarray
    k: float
    film: tuple
    shape: tuple


@dataclass(frozen=True)
class GateNetlist:
    """Three ordered input chains merging into one output chain.

    Frozen: edits build a new instance (``with_component_params``), so
    quantities derived from the netlist are cached on it.  The carrier
    propagation depends only on the film, the geometry, the carrier and
    the film segments, so an edited copy inherits it unless the edit is
    to a ``waveguide`` segment.
    """

    ctx: physics.ModeContext
    geometry: DeviceGeometry
    settings: MicrowaveSettings
    chains: dict
    output: tuple

    def __post_init__(self):
        if set(self.chains) != set(CHANNELS):
            raise ValueError("netlist needs exactly the channels i1, i2, i3")
        for name, chain in self.chains.items():
            if chain[0].kind != "source" or chain[-1].kind != "combiner":
                raise ValueError(f"chain {name} must run source -> combiner")

    @cached_property
    def carrier_propagation(self) -> CarrierPropagation:
        """k(f_c), solved once, and each channel's film gain and shape."""
        f = np.array([self.settings.f_c])
        k = physics.solve_k_grid(self.ctx, f)
        film, shape = zip(*(_propagation(self, ch, f, k, k[0])
                            for ch in CHANNELS))
        return CarrierPropagation(f=f, k=k[0], film=film, shape=shape)

    @cached_property
    def carrier_gains(self) -> np.ndarray:
        """Read-only complex gains of i1, i2, i3 at the carrier, switch open."""
        gains = np.array([channel_transfer(self, ch, self.settings.f_c)
                          for ch in CHANNELS])
        gains.flags.writeable = False
        return gains

    def component(self, channel: str, kind: str) -> Component:
        for comp in self.chains[channel]:
            if comp.kind == kind:
                return comp
        raise KeyError(f"no {kind} in channel {channel}")

    def with_component_params(self, channel: str, kind: str, **params) -> "GateNetlist":
        """Copy of the netlist with one component's parameters replaced.

        The copy keeps an already computed carrier propagation unless the
        component is a ``waveguide`` segment.
        """
        chain = list(self.chains[channel])
        for i, comp in enumerate(chain):
            if comp.kind == kind:
                chain[i] = Component(kind, {**comp.params, **params})
                break
        else:
            raise KeyError(f"no {kind} in channel {channel}")
        chains = {**self.chains, channel: tuple(chain)}
        out = replace(self, chains=chains)
        if kind != "waveguide" and "carrier_propagation" in self.__dict__:
            # cached_property storage: the copy starts with the same value
            out.__dict__["carrier_propagation"] = self.carrier_propagation
        return out


def transducer_efficiency(geometry: DeviceGeometry, k) -> np.ndarray:
    """Wavenumber-selective coupling of a stripline antenna of width w_a.

    gain = sinc(k * w_a / 2) at the solved wavenumbers k (rad/m); exactly 0
    where k is NaN, the stopband.  The caller multiplies in any
    per-antenna coupling constant.
    """
    k = np.asarray(k, dtype=np.float64)
    x = np.where(np.isnan(k), 0.0, k) * (0.5 * geometry.antenna_width())
    return np.where(np.isnan(k), 0.0, np.sinc(x / math.pi))


def waveguide_transfer(ctx: physics.ModeContext, length: float, f, k,
                       f_c: float, k_c: float) -> np.ndarray:
    """Complex gain of a film segment of the given length.

    k are the solved wavenumbers of f and k_c that of the carrier f_c
    (NaN outside the band).  Carrier phase -k_c*length; each spectral bin
    is delayed by length/|vg(f)| relative to the carrier and damped by
    exp(-eta*length/|vg(f)|), eta the film's damping rate.  Stopband
    frequencies return exactly 0; zero length is an exact unit gain.
    """
    if length < 0:
        raise ValueError("segment length must be nonnegative")
    return kernels.waveguide_gain(
        np.asarray(f, dtype=np.float64), np.asarray(k, dtype=np.float64),
        float(f_c), float(k_c), float(length), physics.damping_rate(ctx),
        ctx.omega_h, ctx.omega_m, ctx.film.d, ctx.branch)


def _constant(nl: GateNetlist, channel: str,
              switch_closed: bool) -> tuple[complex, float]:
    """Frequency-flat gain of a channel and the phase of its delay line.

    Losses, phase settings and transducer couplings fold into one
    constant; the delay-line phase counts only with the switch closed.
    """
    const = 1.0 + 0.0j
    delay_rad = 0.0
    for comp in (*nl.chains[channel], *nl.output):
        kind, params = comp.kind, comp.params
        if kind in ("attenuator", "bend"):
            const *= _loss_amp(params.get("db", 0.0))
        elif kind == "phase_shifter":
            const *= cmath.exp(1j * params.get("rad", 0.0))
        elif kind in ("transducer_in", "transducer_out"):
            # gain convention: positive dB amplifies, unlike the loss elements
            const *= 10.0 ** (params.get("gain_db", 0.0) / 20.0) * cmath.exp(
                1j * params.get("rad", 0.0))
        elif kind == "delay_line" and switch_closed:
            delay_rad += params.get("rad", 0.0)
    return const, delay_rad


def _propagation(nl: GateNetlist, channel: str, f: np.ndarray, k: np.ndarray,
                 k_c: float):
    """Film gain over the channel's summed segment length, and its
    transducer shape (None without transducers), at the solved k of f."""
    length = 0.0
    n_transducers = 0
    for comp in (*nl.chains[channel], *nl.output):
        if comp.kind == "waveguide":
            length += comp.params.get("m", 0.0)
        elif comp.kind in ("transducer_in", "transducer_out"):
            n_transducers += 1
    film = waveguide_transfer(nl.ctx, length, f, k, nl.settings.f_c, k_c)
    shape = (transducer_efficiency(nl.geometry, k) ** n_transducers
             if n_transducers else None)
    return film, shape


def channel_transfer(nl: GateNetlist, channel: str, f,
                     switch_closed: bool = False):
    """Product of all element gains from one source to the detector input.

    Includes the shared output chain.  The product is folded in one pass:
    losses, phase settings and transducer couplings make one constant;
    film segments multiply into one propagation over their summed length
    (the gain of a segment is exponential in its length); both
    transducers share the antenna shape; a closed switch adds the delay
    line's phase ramp.  Sources, splitters, the switch itself, the
    combiner and the diode are unit gains.  k(f) is solved once and shared
    by the film and the transducers; at the carrier (a scalar f equal to
    f_c) the propagation is the netlist's cached ``carrier_propagation``.
    ``switch_closed`` routes the signal through the delay line where a
    switch is present.  Any electromagnetic crosstalk constant for the
    channel is added on top of the propagating path.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    idx = CHANNELS.index(channel)
    const, delay_rad = _constant(nl, channel, switch_closed)
    f_c = nl.settings.f_c
    if np.ndim(f) == 0 and f == f_c:
        prop = nl.carrier_propagation
        f_arr, film, shape = prop.f, prop.film[idx], prop.shape[idx]
    else:
        f_arr = np.atleast_1d(np.asarray(f, dtype=np.float64))
        k = physics.solve_k_grid(nl.ctx, f_arr)
        if f_arr.size == 1 and f_arr[0] == f_c:
            k_c = k[0]
        else:
            k_c = physics.solve_k_grid(nl.ctx, f_c)[0]
        film, shape = _propagation(nl, channel, f_arr, k, k_c)
    gain = const * film
    if shape is not None:
        gain = gain * shape
    if delay_rad:
        tau = delay_rad / (2.0 * math.pi * f_c)
        gain = gain * np.exp(-1j * 2.0 * math.pi * f_arr * tau)
    xt = nl.settings.crosstalk[idx]
    if xt != 0:
        gain = gain + complex(xt)
    return gain if np.ndim(f) else complex(gain[0])


def transmission_spectrum(nl: GateNetlist, channel: str, f_grid,
                          floor_db: float = -80.0) -> np.ndarray:
    """|S21| in dB over a frequency grid, floored at floor_db.

    The floor replaces exact stopband zeros and clips any deeper physical
    decay, mimicking a finite instrument noise floor.
    """
    f_grid = np.asarray(f_grid, dtype=np.float64)
    if f_grid.size > 1 and np.any(np.diff(f_grid) <= 0):
        raise ValueError("frequency grid must be ascending")
    gain = np.abs(channel_transfer(nl, channel, f_grid))
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(gain)
    return np.maximum(db, floor_db)


def build_majority_gate(geometry: DeviceGeometry, ctx: physics.ModeContext,
                        settings: MicrowaveSettings | None = None) -> GateNetlist:
    """Assemble the three-input one-output gate netlist.

    Each input chain: source, splitter, attenuator, phase shifter,
    (switch + delay line on i2 when requested), excitation transducer,
    input segment, bend + skew segment where the skew length is nonzero,
    combiner.  Output chain: output segment, detection transducer, diode.
    """
    settings = settings or MicrowaveSettings()
    chains = {}
    for idx, name in enumerate(CHANNELS):
        chain = [
            Component("source"),
            Component("splitter"),
            Component("attenuator", {"db": settings.attenuator_db[idx]}),
            Component("phase_shifter", {"rad": settings.phase_rad[idx]}),
        ]
        if settings.include_switch and name == "i2":
            chain.append(Component("switch", {"state": 0.0}))
            chain.append(Component("delay_line", {"rad": settings.switch_delay_rad}))
        chain.append(Component("transducer_in", {
            "gain_db": settings.coupling_db[idx],
            "rad": settings.coupling_phase_rad[idx],
        }))
        chain.append(Component("waveguide", {"m": geometry.length_in(idx)}))
        if geometry.length_skew(idx) > 0.0:
            chain.append(Component("bend", {"db": geometry.bend_loss_db}))
            chain.append(Component("waveguide", {"m": geometry.length_skew(idx)}))
        chain.append(Component("combiner"))
        chains[name] = tuple(chain)
    output = (
        Component("waveguide", {"m": geometry.length_out()}),
        Component("transducer_out", {"gain_db": settings.output_coupling_db}),
        Component("diode"),
    )
    return GateNetlist(ctx=ctx, geometry=geometry, settings=settings,
                       chains=chains, output=output)


def netlist_to_text(nl: GateNetlist) -> str:
    """Flat key-value dump of the netlist structure and parameters."""
    lines = []
    geo = nl.geometry
    lines.append(f"geometry.w_g_m = {geo.w_g:.12g}")
    lines.append(f"geometry.w_a_m = {geo.w_a:.12g}")
    for i, name in enumerate(CHANNELS):
        lines.append(f"geometry.l_in_m.{name} = {geo.l_in[i]:.12g}")
    for i, name in enumerate(CHANNELS):
        lines.append(f"geometry.l_skew_m.{name} = {geo.l_skew[i]:.12g}")
    lines.append(f"geometry.l_out_m = {geo.l_out:.12g}")
    lines.append(f"geometry.bend_loss_db = {geo.bend_loss_db:.12g}")
    lines.append(f"geometry.scale = {geo.scale:.12g}")
    lines.append(f"microwave.f_c_hz = {nl.settings.f_c:.12g}")
    for name in CHANNELS:
        for j, comp in enumerate(nl.chains[name]):
            prefix = f"channel.{name}.component[{j}]"
            lines.append(f"{prefix}.kind = {comp.kind}")
            for key in sorted(comp.params):
                lines.append(f"{prefix}.params.{key} = {comp.params[key]:.12g}")
    for j, comp in enumerate(nl.output):
        prefix = f"output.component[{j}]"
        lines.append(f"{prefix}.kind = {comp.kind}")
        for key in sorted(comp.params):
            lines.append(f"{prefix}.params.{key} = {comp.params[key]:.12g}")
    return "\n".join(lines) + "\n"


def spectrum_to_csv(f_grid, db) -> str:
    """CSV text with columns f_hz, s21_db."""
    return format_table("f_hz,s21_db", f_grid, db)
