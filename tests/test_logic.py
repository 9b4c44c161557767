import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingate import circuit as ct
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph

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
        assert lg.decode(0.05, enc) == 0
        assert lg.decode(math.pi - 0.05, enc) == 1
        assert lg.decode(-math.pi + 0.02, enc) == 1

    def test_decode_boundary_indeterminate(self):
        enc = lg.PhaseEncoding()
        assert lg.decode(math.pi / 2.0, enc) is None
        assert lg.decode(-math.pi / 2.0, enc) is None

    def test_guard_validation(self):
        with pytest.raises(ValueError):
            lg.PhaseEncoding(guard=0.0)
        with pytest.raises(ValueError):
            lg.PhaseEncoding(guard=2.0)

    def test_covariance_under_offset(self):
        enc = lg.PhaseEncoding(phi0=0.8)
        for bit in (0, 1):
            assert lg.decode(lg.encode(bit, enc), enc) == bit


class TestRunLogicState:
    def test_all_states_match_majority(self):
        nl = symmetric_netlist()
        for bits in ALL_BITS:
            ro = lg.run_logic_state(nl, lg.LogicState(bits))
            assert ro.decoded_bit == lg.majority(*bits), bits
            assert ro.margin > math.pi / 4

    def test_complement_states_differ_by_pi(self):
        nl = symmetric_netlist()
        a = lg.run_logic_state(nl, lg.LogicState((1, 0, 0)))
        b = lg.run_logic_state(nl, lg.LogicState((0, 1, 1)))
        delta = abs(float(np.angle(np.exp(1j * (a.phase - b.phase)))))
        assert delta == pytest.approx(math.pi, abs=1e-9)

    def test_unanimous_amplitude_ratio(self):
        nl = symmetric_netlist()
        amp_unanimous = lg.run_logic_state(nl, lg.LogicState((1, 1, 1))).amplitude
        amp_majority = lg.run_logic_state(nl, lg.LogicState((1, 1, 0))).amplitude
        assert amp_unanimous / amp_majority == pytest.approx(3.0, abs=1e-9)

    def test_dead_gate_indeterminate(self):
        # a carrier above the band: every carrier gain is exactly 0
        nl = symmetric_netlist(f_c=7.0e9)
        assert not np.any(nl.carrier_gains)
        ro = lg.run_logic_state(nl, lg.LogicState((1, 0, 1)))
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
    assert [r.decoded for r in report.rows] == [r.decoded for r in base.rows]
    assert [r.margin for r in report.rows] == [r.margin for r in base.rows]
    assert [r.out_phase for r in report.rows] == [r.out_phase for r in base.rows]


class TestTruthTable:
    def test_row_order_and_decoding(self):
        nl = symmetric_netlist()
        report = lg.truth_table(nl)
        assert tuple(r.state.bits for r in report.rows) == lg.TABLE_ROW_ORDER
        assert report.matches_majority
        assert not report.any_indeterminate
        assert report.amplitude_spread == pytest.approx(3.0, abs=1e-9)

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
            assert b.out_amplitude == pytest.approx(a.out_amplitude, rel=1e-12)
            turn = np.angle(np.exp(1j * (b.out_phase - a.out_phase)))
            assert abs(float(turn)) < 1e-9
            assert b.margin == pytest.approx(a.margin, abs=1e-9)
            if abs(a.margin) > 1e-9:
                assert b.decoded == a.decoded

    def test_amplitudes_take_two_exact_levels(self):
        nl = symmetric_netlist()
        report = lg.truth_table(nl)
        amps = np.array([r.out_amplitude for r in report.rows])
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
        amps = [r.out_amplitude for r in report.rows]
        assert min(amps) < 0.25 * max(amps)
        # two-wave behavior: agreeing strong pair wins, else the remainder
        for row in report.rows:
            b1, b2, b3 = row.state.bits
            expect = b1 if b1 == b2 else b3
            assert row.decoded == expect

    def test_csv_shape(self):
        nl = symmetric_netlist()
        lines = lg.truth_table(nl).to_csv().strip().split("\n")
        assert lines[0].startswith("in_phase_i1_rad,")
        assert len(lines) == 9
        assert ",000," in lines[1] and ",111," in lines[8]


class TestCascadeCheck:
    def test_ideal_gate_not_cascadable(self):
        nl = symmetric_netlist()
        readouts = [lg.run_logic_state(nl, lg.LogicState(b)) for b in ALL_BITS]
        check = lg.cascade_check(readouts, tolerance=1.5)
        assert check.spread == pytest.approx(3.0, abs=1e-9)
        assert not check.cascadable

    def test_duplicate_readout_cascadable(self):
        ro = lg.GateReadout(amplitude=1.0, phase=0.0, decoded_bit=0, margin=1.0)
        check = lg.cascade_check([ro, ro])
        assert check.spread == 1.0
        assert check.cascadable

    def test_zero_amplitude_infinite_spread(self):
        ro0 = lg.GateReadout(amplitude=0.0, phase=0.0, decoded_bit=None, margin=0.0)
        ro1 = lg.GateReadout(amplitude=1.0, phase=0.0, decoded_bit=0, margin=1.0)
        assert lg.cascade_check([ro0, ro1]).spread == math.inf

    def test_needs_two(self):
        with pytest.raises(ValueError):
            lg.cascade_check([lg.GateReadout(1.0, 0.0, 0, 1.0)])


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
