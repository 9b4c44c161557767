"""Phase encoding, majority logic, gate evaluation and composition.

A bit rides on the carrier phase: logic 1 is logic 0 shifted by pi.  The
gate output is read back by comparing the output phase against the
all-zero reference state, decoding inside a guard window around each code
phase and reporting the margin to the decision boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import circuit
from .signal import wrap_phase

TABLE_ROW_ORDER = (
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
    (1, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
)
# an output at or below this share of the gate's unanimity amplitude
# sum(|g_i|) per unit drive is indeterminate
REL_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseEncoding:
    """Code phases for the two logic levels plus the decode half-window."""

    phi0: float = 0.0
    guard: float = 0.5 * math.pi - 0.01

    def __post_init__(self):
        if not 0.0 < self.guard <= 0.5 * math.pi:
            raise ValueError("guard must lie in (0, pi/2]")

    @property
    def phi1(self) -> float:
        return float(wrap_phase(self.phi0 + math.pi))


@dataclass(frozen=True)
class LogicState:
    bits: tuple[int, int, int]

    def __post_init__(self):
        if len(self.bits) != 3 or any(b not in (0, 1) for b in self.bits):
            raise ValueError("state is exactly three bits")

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class GateReadout:
    """Amplitude, phase and decoded bit of one gate evaluation.

    decoded_bit is None when the phase falls outside both guard windows or
    the amplitude is below the floor; margin is the distance to the
    nearest decision boundary and is nonnegative either way.
    """

    amplitude: float
    phase: float
    decoded_bit: int | None
    margin: float


def majority(a: int, b: int, c: int) -> int:
    """1 iff at least two of the three bits are 1."""
    return 1 if a + b + c >= 2 else 0


def encode(bit: int, enc: PhaseEncoding) -> float:
    return enc.phi0 if bit == 0 else enc.phi0 + math.pi


def decode(phase: float, enc: PhaseEncoding) -> int | None:
    d0 = abs(wrap_phase(phase - enc.phi0))
    d1 = abs(wrap_phase(phase - enc.phi1))
    if d0 <= enc.guard and d0 <= d1:
        return 0
    if d1 <= enc.guard:
        return 1
    return None


def _readout(out: complex, ref_phase: float, enc: PhaseEncoding,
             amplitude_floor: float) -> GateReadout:
    amplitude = abs(out)
    if amplitude <= amplitude_floor:
        return GateReadout(amplitude=amplitude, phase=0.0, decoded_bit=None,
                           margin=0.0)
    phase = float(wrap_phase(np.angle(out) - ref_phase + enc.phi0))
    bit = decode(phase, enc)
    d0 = abs(wrap_phase(phase - enc.phi0))
    d1 = abs(wrap_phase(phase - enc.phi1))
    if bit is None:
        margin = min(d0, d1) - enc.guard
    else:
        margin = enc.guard - (d0 if bit == 0 else d1)
    return GateReadout(amplitude=amplitude, phase=phase, decoded_bit=bit,
                       margin=margin)


def run_logic_state(nl: circuit.GateNetlist, state: LogicState,
                    enc: PhaseEncoding | None = None) -> GateReadout:
    """Drive one input state through the netlist and decode the output.

    Each channel is driven with the common amplitude at its encoded
    phase; the complex channel gains at the carrier do the rest.  The
    output phase is referenced to the all-zero drive of the same netlist,
    which is how the read-out is anchored after calibration.  The model is
    linear in the drive, so the output is decoded per unit drive and only
    the amplitude scales with it: every decoded bit and margin is the same
    at any drive.  An output at or below REL_FLOOR times the gate's
    unanimity amplitude sum(|g_i|) per unit drive is indeterminate.
    """
    enc = enc or PhaseEncoding()
    drive = nl.settings.drive_amplitude
    gains = nl.carrier_gains
    phasors = np.exp(1j * np.array([encode(bit, enc) for bit in state.bits]))
    zeros = np.full(3, np.exp(1j * encode(0, enc)))
    out = complex(np.dot(phasors, gains))
    out_ref = complex(np.dot(zeros, gains))
    floor = REL_FLOOR * float(np.abs(gains).sum())
    if abs(out_ref) <= floor:
        return GateReadout(amplitude=drive * abs(out), phase=0.0,
                           decoded_bit=None, margin=0.0)
    ro = _readout(out, float(np.angle(out_ref)), enc, floor)
    return replace(ro, amplitude=drive * ro.amplitude)


@dataclass(frozen=True)
class TruthTableRow:
    in_phases: tuple[float, float, float]
    state: LogicState
    out_phase: float
    out_amplitude: float
    decoded: int | None
    margin: float


@dataclass(frozen=True)
class TruthTableReport:
    rows: tuple[TruthTableRow, ...]

    @property
    def any_indeterminate(self) -> bool:
        return any(r.decoded is None for r in self.rows)

    @property
    def matches_majority(self) -> bool:
        return all(r.decoded == majority(*r.state.bits) for r in self.rows)

    @property
    def amplitude_spread(self) -> float:
        amps = [r.out_amplitude for r in self.rows]
        lo = min(amps)
        return math.inf if lo == 0 else max(amps) / lo

    def to_csv(self) -> str:
        lines = ["in_phase_i1_rad,in_phase_i2_rad,in_phase_i3_rad,state,"
                 "out_phase_rad,out_amp,decoded"]
        for r in self.rows:
            dec = "indeterminate" if r.decoded is None else str(r.decoded)
            phases = ",".join(f"{p:.12g}" for p in r.in_phases)
            lines.append(f"{phases},{r.state},{r.out_phase:.12g},"
                         f"{r.out_amplitude:.12g},{dec}")
        return "\n".join(lines) + "\n"


def truth_table(nl: circuit.GateNetlist,
                enc: PhaseEncoding | None = None) -> TruthTableReport:
    """Evaluate all eight input states in the canonical row order."""
    enc = enc or PhaseEncoding()
    rows = []
    for bits in TABLE_ROW_ORDER:
        state = LogicState(bits)
        ro = run_logic_state(nl, state, enc)
        in_phases = tuple(float(wrap_phase(encode(b, enc))) for b in bits)
        rows.append(TruthTableRow(
            in_phases=in_phases, state=state, out_phase=ro.phase,
            out_amplitude=ro.amplitude, decoded=ro.decoded_bit,
            margin=ro.margin,
        ))
    return TruthTableReport(rows=tuple(rows))


@dataclass(frozen=True)
class CascadeCheck:
    cascadable: bool
    spread: float


def cascade_check(readouts: list[GateReadout],
                  tolerance: float = 1.5) -> CascadeCheck:
    """Amplitude max/min ratio over the readouts against a fan-out budget."""
    if len(readouts) < 2:
        raise ValueError("need at least two readouts")
    amps = [r.amplitude for r in readouts]
    lo = min(amps)
    spread = math.inf if lo == 0 else max(amps) / lo
    return CascadeCheck(cascadable=spread <= tolerance, spread=spread)


def full_adder(a: int, b: int, cin: int) -> tuple[int, int]:
    """(sum, cout) from three majority gates plus phase-level inversions.

    cout = majority(a, b, cin); the inversions feeding the sum gate are
    free pi phase shifts at the encoding layer.
    """
    cout = majority(a, b, cin)
    m = majority(a, b, 1 - cin)
    s = majority(1 - cout, m, cin)
    return s, cout
