"""Phase encoding, majority logic, gate evaluation and composition.

A bit rides on the carrier phase: logic 1 is logic 0 shifted by pi.  The
gate output is read back by comparing the output phase against the
all-zero reference state, decoding inside a guard window around each code
phase and reporting the margin to the decision boundary.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import circuit
from .record import record
from .signal import phase_setting, wrap_phase

TABLE_ROW_ORDER = (
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
    (1, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
)
# an output at or below this share of the gate's unanimity amplitude
# sum(|g_i|) per unit drive is indeterminate
REL_FLOOR = 1e-12
# a fan-out budget: the widest max/min amplitude spread over the states
# of one gate that a next gate could take as its inputs
CASCADE_TOLERANCE = 1.5


@record
class PhaseEncoding:
    """Code phases for the two logic levels plus the decode half-window;
    a phi0 outside (-pi, pi] is kept as its phasor's angle."""

    phi0: float = 0.0
    guard: float = 0.5 * math.pi - 0.01

    def __post_init__(self):
        object.__setattr__(self, "phi0", phase_setting(self.phi0, "phi0"))
        if not 0.0 < self.guard <= 0.5 * math.pi:
            raise ValueError("guard must lie in (0, pi/2]")

    @cached_property
    def phi1(self) -> float:
        return float(wrap_phase(self.phi0 + math.pi))


@record
class LogicState:
    bits: tuple[int, int, int]

    def __post_init__(self):
        if len(self.bits) != 3 or any(b not in (0, 1) for b in self.bits):
            raise ValueError("state is exactly three bits")

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


# the input states of a truth table, in TABLE_ROW_ORDER
TABLE_STATES = tuple(LogicState(bits) for bits in TABLE_ROW_ORDER)


@record
class GateReadout:
    """Input state, output amplitude, phase and decoded bit of one gate
    evaluation.

    decoded_bit is None when the phase falls outside both guard windows or
    the amplitude is below the floor; margin is the distance to the
    nearest decision boundary and is nonnegative either way.
    """

    state: LogicState
    amplitude: float
    phase: float
    decoded_bit: int | None
    margin: float


def majority(a: int, b: int, c: int) -> int:
    """1 iff at least two of the three bits are 1."""
    return 1 if a + b + c >= 2 else 0


def encode(bit: int, enc: PhaseEncoding) -> float:
    return enc.phi0 if bit == 0 else enc.phi0 + math.pi


def decide(phase: float, enc: PhaseEncoding) -> tuple[int | None, float]:
    """Decoded bit of a referenced phase and its margin to the nearest
    decision boundary."""
    d0 = abs(wrap_phase(phase - enc.phi0))
    d1 = abs(wrap_phase(phase - enc.phi1))
    if d0 <= enc.guard and d0 <= d1:
        return 0, enc.guard - d0
    if d1 <= enc.guard:
        return 1, enc.guard - d1
    return None, min(d0, d1) - enc.guard


def read_out(nl: circuit.GateNetlist, states: list[LogicState],
             enc: PhaseEncoding | None = None) -> list[GateReadout]:
    """Drive each input state through the netlist and decode its output.

    Each channel is driven with the common amplitude at its encoded
    phase; the complex channel gains at the carrier do the rest.  Output
    phases are referenced to the all-zero drive of the same netlist,
    which is how the read-out is anchored after calibration.  The model is
    linear in the drive, so outputs are decoded per unit drive and only
    the amplitude scales with it: every decoded bit and margin is the same
    at any drive.  An output at or below REL_FLOOR times the gate's
    unanimity amplitude sum(|g_i|) per unit drive is indeterminate, and
    so is every output when the all-zero reference is.

    The two code phasors, the floor and the phases of the reference and
    of all outputs (one np.angle) are computed once per call.  Each
    output, the reference's first, is its own np.dot of phasors and
    gains: a matrix product rounds differently, and every state's output
    is that of the state alone.
    """
    enc = enc or PhaseEncoding()
    drive = nl.settings.drive_amplitude
    gains = nl.carrier_gains
    codes = np.exp(1j * np.array([encode(0, enc), encode(1, enc)]))
    phasors = codes[np.array([(0, 0, 0), *(state.bits for state in states)])]
    out_ref, *outs = [complex(np.dot(row, gains)) for row in phasors]
    floor = REL_FLOOR * float(np.abs(gains).sum())
    if abs(out_ref) <= floor:
        return [GateReadout(state, drive * abs(out), 0.0, None, 0.0)
                for state, out in zip(states, outs)]
    ref_phase, *angles = np.angle([out_ref, *outs]).tolist()
    readouts = []
    for state, out, angle in zip(states, outs, angles):
        amplitude = abs(out)
        if amplitude <= floor:
            readouts.append(GateReadout(state, drive * amplitude, 0.0, None, 0.0))
            continue
        phase = wrap_phase(angle - ref_phase + enc.phi0)
        readouts.append(GateReadout(state, drive * amplitude, phase,
                                    *decide(phase, enc)))
    return readouts


def amplitude_spread(readouts) -> float:
    """Max/min ratio of the read-out amplitudes, inf when the weakest is 0:
    the amplitude normalization a gate needs before another gate can take
    its outputs as inputs (compare with CASCADE_TOLERANCE)."""
    amps = [r.amplitude for r in readouts]
    if len(amps) < 2:
        raise ValueError("need at least two readouts")
    lo = min(amps)
    return math.inf if lo == 0 else max(amps) / lo


@record
class TruthTableReport:
    """The read-outs of the eight input states under one encoding."""

    rows: tuple[GateReadout, ...]

    @property
    def any_indeterminate(self) -> bool:
        return any(r.decoded_bit is None for r in self.rows)

    @property
    def matches_majority(self) -> bool:
        return all(r.decoded_bit == majority(*r.state.bits) for r in self.rows)


def truth_table(nl: circuit.GateNetlist,
                enc: PhaseEncoding | None = None) -> TruthTableReport:
    """Evaluate all eight input states in the canonical row order."""
    return TruthTableReport(rows=tuple(read_out(nl, TABLE_STATES, enc)))


def full_adder(a: int, b: int, cin: int) -> tuple[int, int]:
    """(sum, cout) from three majority gates plus phase-level inversions.

    cout = majority(a, b, cin); the inversions feeding the sum gate are
    free pi phase shifts at the encoding layer.
    """
    cout = majority(a, b, cin)
    m = majority(a, b, 1 - cin)
    s = majority(1 - cout, m, cin)
    return s, cout
