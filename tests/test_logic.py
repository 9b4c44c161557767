import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spingate import circuit as ct
from spingate import cli
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate.record import replace

FC = 6.035e9


def make_ctx():
    film = ph.FilmParams(Ms=0.185 / ph.MU0, d=5.4e-6, mu0_dh0=6.2e-5)
    return ph.ModeContext(film, ph.BiasField(0.1429))


def symmetric_netlist(**kwargs):
    geo = ct.DeviceGeometry(l_skew=(0.0, 0.0, 0.0))
    return ct.build_majority_gate(geo, make_ctx(), ct.MicrowaveSettings(**kwargs))


ALL_BITS = list(itertools.product((0, 1), repeat=3))


class TestMajority:
    @pytest.mark.parametrize("bits,expect", [
        ((0, 0, 0), 0), ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0),
        ((1, 0, 1), 1), ((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 1, 1), 1),
    ])
    def test_truth_table(self, bits, expect):
        assert lg.majority(*bits) == expect

    def test_permutation_symmetric(self):
        for bits in ALL_BITS:
            values = {lg.majority(*perm) for perm in itertools.permutations(bits)}
            assert len(values) == 1

    def test_self_dual(self):
        for a, b, c in ALL_BITS:
            assert lg.majority(1 - a, 1 - b, 1 - c) == 1 - lg.majority(a, b, c)


class TestEncodeDecode:
    def test_encode_levels(self):
        enc = lg.PhaseEncoding()
        assert lg.encode(0, enc) == 0.0
        assert lg.encode(1, enc) == pytest.approx(math.pi)

    def test_phi1_is_phi0_plus_pi_wrapped(self):
        enc = lg.PhaseEncoding(phi0=2.5)
        assert enc.phi1 == pytest.approx(2.5 - math.pi)

    def test_decode_near_codes(self):
        enc = lg.PhaseEncoding()
        assert lg.decide(0.05, enc)[0] == 0
        assert lg.decide(math.pi - 0.05, enc)[0] == 1
        assert lg.decide(-math.pi + 0.02, enc)[0] == 1

    def test_decode_boundary_indeterminate(self):
        enc = lg.PhaseEncoding()
        assert lg.decide(math.pi / 2.0, enc)[0] is None
        assert lg.decide(-math.pi / 2.0, enc)[0] is None

    def test_guard_validation(self):
        with pytest.raises(ValueError):
            lg.PhaseEncoding(guard=0.0)
        with pytest.raises(ValueError):
            lg.PhaseEncoding(guard=2.0)

    def test_phase_settings_kept_in_range(self):
        # a phase in (-pi, pi] is kept as given, -pi and any value outside
        # become the angle of the phasor, and a non-finite one is named
        assert lg.PhaseEncoding(phi0=2.5).phi0 == 2.5
        assert lg.PhaseEncoding(phi0=-math.pi).phi0 == math.pi
        assert ct.MicrowaveSettings(phase_rad=(-math.pi, 0.1, 1e17)).phase_rad == (
            math.pi, 0.1, math.atan2(math.sin(1e17), math.cos(1e17)))
        with pytest.raises(ValueError, match="^phi0 "):
            lg.PhaseEncoding(phi0=math.nan)
        with pytest.raises(ValueError, match="^phase_rad "):
            ct.MicrowaveSettings(phase_rad=(0.0, math.inf, 0.0))

    def test_covariance_under_offset(self):
        enc = lg.PhaseEncoding(phi0=0.8)
        for bit in (0, 1):
            assert lg.decide(lg.encode(bit, enc), enc)[0] == bit


def read_state(nl, bits):
    """One input state read out alone."""
    return lg.read_out(nl, [lg.LogicState(bits)])[0]


class TestRunLogicState:
    def test_all_states_match_majority(self):
        nl = symmetric_netlist()
        for bits in ALL_BITS:
            ro = read_state(nl, bits)
            assert ro.decoded_bit == lg.majority(*bits), bits
            assert ro.margin > math.pi / 4

    def test_complement_states_differ_by_pi(self):
        nl = symmetric_netlist()
        a = read_state(nl, (1, 0, 0))
        b = read_state(nl, (0, 1, 1))
        delta = abs(float(np.angle(np.exp(1j * (a.phase - b.phase)))))
        assert delta == pytest.approx(math.pi, abs=1e-9)

    def test_unanimous_amplitude_ratio(self):
        nl = symmetric_netlist()
        amp_unanimous = read_state(nl, (1, 1, 1)).amplitude
        amp_majority = read_state(nl, (1, 1, 0)).amplitude
        assert amp_unanimous / amp_majority == pytest.approx(3.0, abs=1e-9)

    def test_dead_gate_indeterminate(self):
        # a carrier above the band: every carrier gain is exactly 0
        nl = symmetric_netlist(f_c=7.0e9)
        assert not np.any(nl.carrier_gains)
        ro = read_state(nl, (1, 0, 1))
        assert ro.decoded_bit is None
        assert ro.margin == 0.0


@pytest.fixture(scope="module")
def reference_gates():
    # the calibrated reference gate, and the x8 one whose carrier gains
    # are about 1e-18
    cfg = cf.RunConfig()
    return [ex.calibrate(cf.build_netlist(replace(
        cfg, geometry=replace(cfg.geometry, scale=scale))))[0]
        for scale in (1.0, 8.0)]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-323, 10), gate=st.integers(0, 1),
       phi0=st.floats(-math.pi, math.pi))
def test_decoding_independent_of_drive(reference_gates, k, gate, phi0):
    # the model is linear in the drive: at 10^k over the accepted range
    # (0, 1e10] every decoded bit, margin and phase is the one at drive 1
    nl = reference_gates[gate]
    enc = lg.PhaseEncoding(phi0=phi0)
    scaled = ct.build_majority_gate(nl.geometry, nl.ctx, replace(
        nl.settings, drive_amplitude=10.0 ** k))
    base = lg.truth_table(nl, enc)
    report = lg.truth_table(scaled, enc)
    assert base.matches_majority and not base.any_indeterminate
    assert ([r.decoded_bit for r in report.rows]
            == [r.decoded_bit for r in base.rows])
    assert [r.margin for r in report.rows] == [r.margin for r in base.rows]
    assert [r.phase for r in report.rows] == [r.phase for r in base.rows]


@settings(max_examples=40, deadline=None)
@given(phi0=st.floats(4.0, 1e300), sign=st.sampled_from([1.0, -1.0]))
@example(phi0=1e17, sign=1.0)
def test_far_phi0_still_decodes_majority(reference_gates, phi0, sign):
    # far outside (-pi, pi], phi0 + pi rounds back to phi0 unless phi0 is
    # stored as its phasor's angle: the code phases stay pi apart
    enc = lg.PhaseEncoding(phi0=sign * phi0)
    assert -math.pi < enc.phi0 <= math.pi
    report = lg.truth_table(reference_gates[0], enc)
    assert report.matches_majority and not report.any_indeterminate


class TestTruthTable:
    def test_row_order_and_decoding(self):
        nl = symmetric_netlist()
        report = lg.truth_table(nl)
        assert tuple(r.state.bits for r in report.rows) == lg.TABLE_ROW_ORDER
        assert report.matches_majority
        assert not report.any_indeterminate
        assert lg.amplitude_spread(report.rows) == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [math.pi, 0.7, -1.3])
    def test_common_phase_offset_covariance(self, delta):
        # shifting all code phases together never changes the decoding
        nl = symmetric_netlist()
        report = lg.truth_table(nl, lg.PhaseEncoding(phi0=delta))
        assert report.matches_majority
        base = lg.truth_table(nl)
        for a, b in zip(report.rows, base.rows):
            assert a.margin == pytest.approx(b.margin, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(coupling_db=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
           coupling_rad=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
           theta=st.floats(-math.pi, math.pi))
    def test_global_input_phase_leaves_decoding(self, coupling_db,
                                                coupling_rad, theta):
        # rotating every input together rotates the all-zero reference too
        nl = ct.build_majority_gate(ct.DeviceGeometry(), make_ctx(),
                                    ct.MicrowaveSettings(
                                        coupling_db=coupling_db,
                                        coupling_phase_rad=coupling_rad))
        rotated = nl.with_controls(
            phase_rad=[rad + theta for rad in nl.settings.phase_rad])
        base = lg.truth_table(nl)
        turned = lg.truth_table(rotated)
        for a, b in zip(base.rows, turned.rows):
            assert b.amplitude == pytest.approx(a.amplitude, rel=1e-12)
            turn = np.angle(np.exp(1j * (b.phase - a.phase)))
            assert abs(float(turn)) < 1e-9
            assert b.margin == pytest.approx(a.margin, abs=1e-9)
            if abs(a.margin) > 1e-9:
                assert b.decoded_bit == a.decoded_bit

    def test_amplitudes_take_two_exact_levels(self):
        nl = symmetric_netlist()
        report = lg.truth_table(nl)
        amps = np.array([r.amplitude for r in report.rows])
        base = amps.min()
        for row, amp in zip(report.rows, amps):
            unanimous = len(set(row.state.bits)) == 1
            expect = 3.0 * base if unanimous else base
            assert amp == pytest.approx(expect, rel=1e-9)

    def test_attenuated_channel_flags_miscalibration(self):
        # 20 dB down on i3: ties fall to the weak channel at tiny amplitude
        nl = symmetric_netlist(coupling_db=(0.0, 0.0, -20.0))
        report = lg.truth_table(nl)
        # an evenly driven gate never drops below a third of its unanimity
        # amplitude; the imbalance collapses some rows far under that
        amps = [r.amplitude for r in report.rows]
        assert min(amps) < 0.25 * max(amps)
        # two-wave behavior: agreeing strong pair wins, else the remainder
        for row in report.rows:
            b1, b2, b3 = row.state.bits
            expect = b1 if b1 == b2 else b3
            assert row.decoded_bit == expect

    def test_csv_shape(self, tmp_path):
        assert cli.main(["truthtable", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "truthtable.csv").read_text().strip().split("\n")
        assert lines[0].startswith("in_phase_i1_rad,")
        assert len(lines) == 9
        assert ",000," in lines[1] and ",111," in lines[8]


class TestCascadeCheck:
    def test_ideal_gate_not_cascadable(self):
        nl = symmetric_netlist()
        readouts = [read_state(nl, b) for b in ALL_BITS]
        spread = lg.amplitude_spread(readouts)
        assert spread == pytest.approx(3.0, abs=1e-9)
        assert lg.CASCADE_TOLERANCE == 1.5
        assert not spread <= lg.CASCADE_TOLERANCE

    def test_duplicate_readout_cascadable(self):
        ro = lg.GateReadout(state=lg.LogicState((0, 0, 0)), amplitude=1.0,
                            phase=0.0, decoded_bit=0, margin=1.0)
        spread = lg.amplitude_spread([ro, ro])
        assert spread == 1.0
        assert spread <= lg.CASCADE_TOLERANCE

    def test_zero_amplitude_infinite_spread(self):
        state = lg.LogicState((0, 0, 0))
        ro0 = lg.GateReadout(state=state, amplitude=0.0, phase=0.0,
                             decoded_bit=None, margin=0.0)
        ro1 = lg.GateReadout(state=state, amplitude=1.0, phase=0.0,
                             decoded_bit=0, margin=1.0)
        assert lg.amplitude_spread([ro0, ro1]) == math.inf

    def test_needs_two(self):
        with pytest.raises(ValueError):
            lg.amplitude_spread([lg.GateReadout(lg.LogicState((0, 0, 0)),
                                                1.0, 0.0, 0, 1.0)])


class TestFullAdder:
    def test_exhaustive_against_arithmetic(self):
        for a, b, cin in ALL_BITS:
            s, cout = lg.full_adder(a, b, cin)
            assert 2 * cout + s == a + b + cin

    def test_carry_is_majority(self):
        for a, b, cin in ALL_BITS:
            assert lg.full_adder(a, b, cin)[1] == lg.majority(a, b, cin)

    @pytest.mark.parametrize("bits,expect", [((1, 1, 1), (1, 1)),
                                             ((1, 0, 0), (1, 0))])
    def test_examples(self, bits, expect):
        assert lg.full_adder(*bits) == expect


class TestLogicStateType:
    def test_validation(self):
        with pytest.raises(ValueError):
            lg.LogicState((0, 1))
        with pytest.raises(ValueError):
            lg.LogicState((0, 1, 2))

    def test_str(self):
        assert str(lg.LogicState((1, 0, 1))) == "101"


def scalar_readout(nl, bits, enc):
    """One state's read-out computed alone, as a per-state loop would:
    np.dot of its phasors, np.angle of its scalar output, np.mod wraps."""
    def wrap(x):
        return math.pi - np.mod(math.pi - np.asarray(x), 2.0 * math.pi)

    gains = nl.carrier_gains
    out = complex(np.dot(np.exp(1j * np.array([lg.encode(b, enc) for b in bits])),
                         gains))
    out_ref = complex(np.dot(np.full(3, np.exp(1j * lg.encode(0, enc))), gains))
    floor = lg.REL_FLOOR * float(np.abs(gains).sum())
    amplitude = nl.settings.drive_amplitude * abs(out)
    state = lg.LogicState(bits)
    if abs(out_ref) <= floor or abs(out) <= floor:
        return lg.GateReadout(state, amplitude, 0.0, None, 0.0)
    phase = float(wrap(np.angle(out) - float(np.angle(out_ref)) + enc.phi0))
    d0 = float(abs(wrap(phase - enc.phi0)))
    d1 = float(abs(wrap(phase - enc.phi1)))
    if d0 <= enc.guard and d0 <= d1:
        return lg.GateReadout(state, amplitude, phase, 0, enc.guard - d0)
    if d1 <= enc.guard:
        return lg.GateReadout(state, amplitude, phase, 1, enc.guard - d1)
    return lg.GateReadout(state, amplitude, phase, None,
                          min(d0, d1) - enc.guard)


def readout_bits(ro):
    """A read-out as exact values: floats by their bytes."""
    return (ro.state, np.float64(ro.amplitude).tobytes(), np.float64(ro.phase).tobytes(),
            ro.decoded_bit, np.float64(ro.margin).tobytes())


def readout_gates(orientation):
    """A calibrated and an uncalibrated gate with the reference feed
    asymmetry; a symmetric gate whose i3 is attenuated by 400 dB, so the
    outputs where i1 and i2 cancel sit below the floor; and a dead gate,
    its carrier above the band, whose all-zero reference is at the floor."""
    ctx = ph.ModeContext(make_ctx().film, ph.BiasField(0.1429, orientation))
    lo, hi = ph.band_limits(ctx)
    settings_ = ct.MicrowaveSettings(
        f_c=lo + 0.6 * (hi - lo), drive_amplitude=0.7,
        coupling_db=(-0.5, 0.0, -1.2), coupling_phase_rad=(0.35, 0.0, -0.65))
    raw = ct.build_majority_gate(ct.DeviceGeometry(), ctx, settings_)
    floored = ct.build_majority_gate(
        ct.DeviceGeometry(l_skew=(0.0, 0.0, 0.0)), ctx,
        replace(settings_, coupling_db=(0.0,) * 3, coupling_phase_rad=(0.0,) * 3,
                attenuator_db=(0.0, 0.0, 400.0)))
    dead = ct.build_majority_gate(ct.DeviceGeometry(), ctx,
                                  replace(settings_, f_c=1.1 * hi))
    return {"calibrated": ex.calibrate(raw)[0], "uncalibrated": raw,
            "floored": floored, "dead": dead}


@pytest.mark.parametrize("orientation", list(ph.Orientation))
@pytest.mark.parametrize("gate", ["calibrated", "uncalibrated", "floored",
                                  "dead"])
@pytest.mark.parametrize("phi0", [0.0, 2.5])
def test_shared_readout_matches_each_state_alone(orientation, gate, phi0):
    # truth_table reads the eight states in one read_out call; each row is
    # the read_out of its state alone, and both are the state read out by
    # a per-state loop, field for field and bit for bit
    nl = readout_gates(orientation)[gate]
    enc = lg.PhaseEncoding(phi0=phi0)
    report = lg.truth_table(nl, enc)
    indeterminate = 0
    for row in report.rows:
        alone = lg.read_out(nl, [row.state], enc)[0]
        assert readout_bits(row) == readout_bits(alone)
        assert readout_bits(alone) == readout_bits(
            scalar_readout(nl, row.state.bits, enc))
        indeterminate += row.decoded_bit is None
    assert indeterminate == {"floored": 4, "dead": 8}.get(gate, 0)


@pytest.mark.parametrize("mode", ["bvmsw", "mssw"])
def test_fulladder_gate_amp_is_each_state_alone(mode, tmp_path, monkeypatch):
    # cmd_fulladder reads its eight states in one read_out call on the
    # calibrated gate; each read-out is the read_out of that state alone
    seen = []
    read_out = lg.read_out

    def spy(nl, states, enc=None):
        readouts = read_out(nl, states, enc)
        seen.append((nl, states, enc, readouts))
        return readouts

    monkeypatch.setattr(lg, "read_out", spy)
    fc = "6.035e9" if mode == "bvmsw" else "6.14e9"
    assert cli.main(["fulladder", "--mode", mode, "--fc", fc,
                     "--out", str(tmp_path)]) == 0
    (nl, states, enc, readouts), = seen
    lines = (tmp_path / "fulladder.csv").read_text().splitlines()[1:]
    assert [s.bits for s in states] == ALL_BITS
    for state, ro, line in zip(states, readouts, lines):
        alone = lg.read_out(nl, [state], enc)[0]
        assert readout_bits(ro) == readout_bits(alone)
        assert line.split(",")[:3] == [str(b) for b in state.bits]
        assert line.split(",")[5] == f"{alone.amplitude:.12g}"


@pytest.mark.parametrize("mode", ["bvmsw", "mssw"])
def test_truthtable_and_fulladder_share_readouts(mode, tmp_path, capsys):
    # both commands read out the same calibrated gate: each state's
    # gate_amp is its out_amp, and both summaries print the one spread
    fc = "6.035e9" if mode == "bvmsw" else "6.14e9"
    flags = ["--mode", mode, "--fc", fc]
    setup = cli._load_config(cli.PARSER.parse_args(["truthtable", *flags]))
    rows = lg.truth_table(ex.calibrate(setup.netlist())[0],
                          setup.switching["enc"]).rows
    spread = lg.amplitude_spread(rows)
    amps, printed = {}, {}
    for command, column in (("truthtable", "out_amp"),
                            ("fulladder", "gate_amp")):
        out = tmp_path / command
        assert cli.main([command, *flags, "--out", str(out)]) == 0
        printed[command] = dict(
            word.split("=") for word in capsys.readouterr().out.split()
            if "=" in word)
        lines = (out / f"{command}.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            values = dict(zip(header, line.split(",")))
            state = values.get("state") or "".join(
                values[bit] for bit in ("a", "b", "cin"))
            amps.setdefault(state, []).append(values[column])
    assert amps == {str(r.state): [f"{r.amplitude:.12g}"] * 2 for r in rows}
    assert printed["truthtable"]["spread"] == f"{spread:.4g}"
    assert printed["fulladder"]["amp_spread"] == f"{spread:.4g}"
    assert printed["fulladder"]["cascadable"] == str(
        spread <= lg.CASCADE_TOLERANCE).lower()
