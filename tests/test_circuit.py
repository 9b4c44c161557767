import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_product
from spingate import circuit as ct
from spingate import physics as ph
from spingate._kernels import kernels
from spingate.cli import main

FC = 6.035e9


def make_ctx(mu0_ms=0.185, orientation=ph.Orientation.PARALLEL, linewidth=6.2e-5):
    film = ph.FilmParams(Ms=mu0_ms / ph.MU0, d=5.4e-6, mu0_dh0=linewidth)
    return ph.ModeContext(film, ph.BiasField(0.1429, orientation))


CTX = make_ctx()


def antenna(ctx, geo, f):
    """Transducer efficiency at the solved wavenumbers of f."""
    return ct.transducer_efficiency(geo, ph.solve_k_grid(ctx, f))


def segment(ctx, length, f, f_c=FC):
    """Film segment gain at the solved wavenumbers of f and f_c."""
    f = np.atleast_1d(f)
    return ct.waveguide_transfer(ctx, length, f, ph.solve_k_grid(ctx, f), f_c,
                                 ph.solve_k_grid(ctx, f_c)[0])


def symmetric_netlist(ctx=CTX, **settings_kwargs):
    geo = ct.DeviceGeometry(l_skew=(0.0, 0.0, 0.0))
    return ct.build_majority_gate(geo, ctx, ct.MicrowaveSettings(**settings_kwargs))


class TestTransducer:
    def test_small_k_limit(self):
        # just under the band top the wavenumber collapses, sinc -> 1
        f_top = ph.band_limits(CTX)[1]
        eff = antenna(CTX, ct.DeviceGeometry(), f_top * (1 - 1e-9))
        assert abs(eff) == pytest.approx(1.0, abs=1e-6)

    def test_first_antenna_zero(self):
        geo = ct.DeviceGeometry()
        k_zero = 2.0 * math.pi / geo.w_a
        f = ph.dispersion_f(CTX, k_zero)
        assert abs(antenna(CTX, geo, f)) < 1e-9

    def test_carrier_value(self):
        # sinc(0.213) with the 75 um stripline at the carrier wavenumber
        eff = antenna(CTX, ct.DeviceGeometry(), FC)
        assert eff == pytest.approx(0.9925, abs=2e-4)

    def test_stopband_zero(self):
        assert antenna(CTX, ct.DeviceGeometry(), 7.0e9) == 0.0


class TestWaveguideTransfer:
    def test_zero_length_unity_everywhere(self):
        f = np.array([3.0e9, FC, 7.0e9])
        np.testing.assert_array_equal(segment(CTX, 0.0, f),
                                      np.ones(3, dtype=complex))

    def test_lossless_carrier_phase(self):
        ctx0 = make_ctx(linewidth=0.0)
        k_c = ph.solve_k(ctx0, FC)
        length = 2.0e-3
        gain = segment(ctx0, length, FC)
        assert abs(gain) == pytest.approx(1.0, rel=1e-12)
        expect = -k_c * length
        assert np.angle(gain) == pytest.approx(
            float(np.angle(np.exp(1j * expect))), abs=1e-9)

    def test_decay_over_5mm(self):
        # decay length |vg|/eta is about 5.2 mm at the carrier
        gain = segment(CTX, 5.0e-3, FC)
        assert abs(gain) == pytest.approx(0.3847, abs=2e-3)
        assert abs(gain) == pytest.approx(math.exp(-1.0), rel=0.05)

    def test_stopband_zero(self):
        f = np.array([6.2e9, 3.9e9])
        np.testing.assert_array_equal(
            segment(CTX, 1e-3, f), np.zeros(2, dtype=complex))

    def test_out_of_band_carrier_kills_segment(self):
        gain = segment(CTX, 1e-3, np.array([6.0e9]), 7.0e9)
        assert gain[0] == 0.0

    def test_segment_split_multiplicative(self):
        f = np.linspace(5.95e9, 6.05e9, 7)
        whole = segment(CTX, 5.0e-3, f)
        split = segment(CTX, 2.0e-3, f) * segment(CTX, 3.0e-3, f)
        np.testing.assert_allclose(split, whole, atol=1e-12)

    def test_magnitude_direction_independent(self):
        # pure propagation is reciprocal: |gain| depends only on the length
        f = np.linspace(5.95e9, 6.05e9, 5)
        a = np.abs(segment(CTX, 4.0e-3, f))
        b = np.abs(segment(CTX, 2.0e-3, f) * segment(CTX, 2.0e-3, f))
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestChannelTransfer:
    def test_near_identity_chain(self):
        # vanishing antenna width and zero lengths leave only unit elements
        geo = ct.DeviceGeometry(w_a=1e-12, l_in=(0, 0, 0), l_skew=(0, 0, 0),
                                l_out=0.0)
        nl = ct.build_majority_gate(geo, CTX)
        gain = ct.channel_transfer(nl, "i2", FC)
        assert gain == pytest.approx(1.0, abs=1e-9)

    def test_attenuator_scaling(self):
        nl = symmetric_netlist()
        base = abs(ct.channel_transfer(nl, "i1", FC))
        nl3 = nl.with_controls(attenuator_db=(3.0, 0.0, 0.0))
        assert abs(ct.channel_transfer(nl3, "i1", FC)) / base == pytest.approx(
            10 ** (-3.0 / 20.0), rel=1e-12)

    def test_stopband_propagates(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        assert ct.channel_transfer(nl, "i1", 7.0e9) == 0.0
        assert abs(ct.channel_transfer(nl, "i1", FC)) > 0.0

    def test_monotone_loss(self):
        # more attenuation or a lossier bend never raises the gain
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        f = np.linspace(5.9e9, 6.1e9, 31)
        base = np.abs(ct.channel_transfer(nl, "i1", f))
        lossier = (nl.with_controls(attenuator_db=(2.5, 0.0, 0.0)),
                   ct.build_majority_gate(
                       replace(nl.geometry, bend_loss_db=6.0), CTX))
        for nl2 in lossier:
            assert np.all(np.abs(ct.channel_transfer(nl2, "i1", f))
                          <= base + 1e-15)


lengths = st.floats(0.0, 12.0e-3)
phases = st.floats(-math.pi, math.pi)


def triple(values):
    return st.tuples(values, values, values)


@st.composite
def netlists(draw):
    """Random gate with its carrier inside the band."""
    orientation = draw(st.sampled_from(list(ph.Orientation)))
    ctx = make_ctx(orientation=orientation,
                   linewidth=draw(st.floats(0.0, 2.0e-4)))
    lo, hi = ph.band_limits(ctx)
    f_c = lo + draw(st.floats(0.2, 0.9)) * (hi - lo)
    geo = ct.DeviceGeometry(
        w_a=draw(st.floats(1e-5, 2e-4)),
        l_in=draw(triple(lengths)),
        l_skew=draw(st.tuples(lengths, st.just(0.0), lengths)),
        l_out=draw(lengths),
        bend_loss_db=draw(st.floats(0.0, 6.0)),
        scale=draw(st.floats(0.05, 1.0)))
    settings_ = ct.MicrowaveSettings(
        f_c=f_c,
        attenuator_db=draw(triple(st.floats(0.0, 20.0))),
        phase_rad=draw(triple(phases)),
        coupling_db=draw(triple(st.floats(-3.0, 3.0))),
        coupling_phase_rad=draw(triple(phases)),
        output_coupling_db=draw(st.floats(-3.0, 3.0)))
    return ct.build_majority_gate(geo, ctx, settings_), lo, hi


def rounding_budget(nl, channel, f):
    """Relative tolerance of the folded product against the element one.

    exp(a) * exp(b) and exp(a + b) round apart by ~eps * |a + b|, so next
    to a 1e-12 floor the budget grows by 1e-15 per radian of phase and per
    neper of decay the film path accumulates at f (up to ~1e5 rad where
    the backward-volume wave crawls near the band bottom).
    """
    geo, i = nl.geometry, ct.CHANNELS.index(channel)
    length = (geo.l_in[i] + geo.l_skew[i] + geo.l_out) * geo.scale
    k = ph.solve_k_grid(nl.ctx, f)
    vg = np.abs(ph.group_velocity(nl.ctx, np.where(np.isnan(k), 0.0, k)))
    k_c = ph.solve_k(nl.ctx, nl.settings.f_c)
    rate = 2.0 * math.pi * np.abs(f - nl.settings.f_c) + ph.damping_rate(nl.ctx)
    return 1e-12 + 1e-15 * length * (k_c + rate / vg)


@settings(max_examples=150, deadline=None)
@given(net=netlists(), channel=st.sampled_from(ct.CHANNELS),
       grid=st.booleans(), u=st.floats(0.1, 1.0))
def test_channel_transfer_matches_element_product(net, channel, grid, u):
    # the folded product equals the element-by-element one, in the band
    # and (as exact zeros) in the stopband
    nl, lo, hi = net
    if grid:
        f = np.concatenate([[0.9 * lo], np.linspace(lo + 0.1 * (hi - lo), hi, 64),
                            [1.1 * hi]])
    else:
        f = lo + u * (hi - lo)
    got = ct.channel_transfer(nl, channel, f)
    ref = chain_product(nl, channel, f)
    assert np.ndim(got) == np.ndim(f)
    budget = rounding_budget(nl, channel, np.atleast_1d(f))
    assert np.all(np.abs(got - ref) <= budget * np.abs(ref))


def test_carrier_gains_cached_per_netlist():
    nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
    gains = nl.carrier_gains
    assert nl.carrier_gains is gains
    assert not gains.flags.writeable
    np.testing.assert_array_equal(
        gains, [ct.channel_transfer(nl, ch, FC) for ch in ct.CHANNELS])
    # an edited netlist is a new instance with its own gains
    nl3 = nl.with_controls(attenuator_db=(3.0, 0.0, 0.0))
    assert nl3.carrier_gains[0] == pytest.approx(gains[0] * 10 ** (-3.0 / 20.0),
                                                 rel=1e-12)


def reference_gate(orientation):
    """Gate with the reference feed asymmetry, its carrier inside the band."""
    ctx = make_ctx(orientation=orientation)
    lo, hi = ph.band_limits(ctx)
    settings_ = ct.MicrowaveSettings(
        f_c=lo + 0.6 * (hi - lo),
        coupling_db=(-0.5, 0.0, -1.2), coupling_phase_rad=(0.35, 0.0, -0.65))
    return ct.build_majority_gate(ct.DeviceGeometry(), ctx, settings_)


def count_solves(monkeypatch):
    calls = []
    solve = kernels.solve_k
    monkeypatch.setattr(kernels, "solve_k",
                        lambda *args: calls.append(args) or solve(*args))
    return calls


@pytest.mark.parametrize("orientation", list(ph.Orientation))
def test_derived_netlists_match_fresh_ones(orientation, monkeypatch):
    # a with_controls copy inherits the carrier propagation, so it solves
    # no k, and its gains are those of a gate built from scratch with the
    # same settings, bit for bit
    nl = reference_gate(orientation)
    calls = count_solves(monkeypatch)
    leveled = nl.with_controls(attenuator_db=(2.5, 0.0, 1.0))
    assert len(calls) == 1  # the parent's carrier, solved for the copy
    copies = [leveled, nl.with_controls(phase_rad=(0.7, -0.2, 3.0)),
              leveled.with_controls(attenuator_db=(0.0, 4.0, 0.0),
                                    phase_rad=(0.0, 1.0, -1.0))]
    gains = [copy.carrier_gains for copy in copies]
    assert len(calls) == 1
    assert copies[2].settings.attenuator_db == (0.0, 4.0, 0.0)
    for copy, g in zip(copies, gains):
        assert copy.carrier_propagation is nl.carrier_propagation
        fresh = ct.build_majority_gate(copy.geometry, copy.ctx, copy.settings)
        assert g.tobytes() == fresh.carrier_gains.tobytes()


@pytest.mark.parametrize("orientation", list(ph.Orientation))
@pytest.mark.parametrize("copied", [False, True])
def test_carrier_propagation_equals_fresh_solve(orientation, copied):
    # at a scalar carrier frequency channel_transfer reads the cached
    # propagation, inherited by a with_controls copy; a one-element grid
    # solves k afresh: the same bits
    nl = reference_gate(orientation)
    if copied:
        nl = nl.with_controls(attenuator_db=(1.0, 0.0, 2.0),
                              phase_rad=(0.5, 0.0, -0.5))
    f_c = nl.settings.f_c
    for idx, ch in enumerate(ct.CHANNELS):
        cached = ct.channel_transfer(nl, ch, f_c)
        solved = ct.channel_transfer(nl, ch, np.array([f_c]))[0]
        assert complex(solved) == cached
        assert np.array([cached]).tobytes() == solved.tobytes()
        assert nl.carrier_gains[idx] == cached


class TestTransmissionSpectrum:
    def test_floor_above_band_top(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        f = np.linspace(6.1e9, 6.3e9, 11)
        for db in ct.transmission_spectrum(nl, f):
            np.testing.assert_array_equal(db, -80.0)

    def test_passband_above_floor(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        f = np.linspace(5.95e9, 6.05e9, 21)
        db = ct.transmission_spectrum(nl, f)[1]
        assert np.all(db > -80.0)

    def test_distinct_channels(self):
        settings = ct.MicrowaveSettings(coupling_db=(-0.5, 0.0, -1.2))
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX, settings)
        f = np.linspace(5.95e9, 6.05e9, 21)
        curves = ct.transmission_spectrum(nl, f)
        # the shared k-solve gives each channel's own evaluation, bit for bit
        for ch, db in zip(ct.CHANNELS, curves):
            own = 20.0 * np.log10(np.abs(ct.channel_transfer(nl, ch, f)))
            assert db.tobytes() == np.maximum(own, -80.0).tobytes()
        assert not np.allclose(curves[0], curves[1])
        assert not np.allclose(curves[0], curves[2])
        assert not np.allclose(curves[1], curves[2])

    def test_configurable_floor(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        db = ct.transmission_spectrum(nl, np.array([7.0e9]), floor_db=-60.0)
        assert [curve[0] for curve in db] == [-60.0] * 3

    def test_grid_must_ascend(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        with pytest.raises(ValueError):
            ct.transmission_spectrum(nl, np.array([6.0e9, 5.9e9]))


def test_transmission_solves_each_grid_once(tmp_path, monkeypatch):
    # one grid solve for the three channels plus the carrier's
    calls = count_solves(monkeypatch)
    assert main(["transmission", "--out", str(tmp_path)]) == 0
    sizes = sorted(np.size(args[0]) for args in calls)
    assert sizes == [1, 441]


class TestBuildMajorityGate:
    def test_structure(self):
        # input, skew and output segments sum per channel; the constants
        # multiply attenuator, shifter and both couplings in
        settings = ct.MicrowaveSettings(
            attenuator_db=(0.0, 6.0, 0.0), phase_rad=(0.0, 0.5, 0.0),
            coupling_db=(0.0, -2.0, 0.0), coupling_phase_rad=(0.0, 0.25, 0.0),
            output_coupling_db=1.0)
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX, settings)
        assert nl.settings is settings
        assert nl.lengths == pytest.approx((26.0e-3, 20.0e-3, 26.0e-3),
                                           rel=1e-15)
        assert nl.constants[1] == pytest.approx(
            10 ** (-7.0 / 20.0) * np.exp(0.75j), rel=1e-15)

    def test_center_chain_has_no_bend(self):
        # the 3 dB bend loss sits on the skewed outer arms only
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        bend = 10 ** (-3.0 / 20.0)
        assert nl.constants == pytest.approx((bend, 1.0, bend), rel=1e-15)

    def test_scale_multiplies_lengths(self):
        geo = ct.DeviceGeometry()
        scaled = geo.rescaled(0.05)
        assert scaled.length_in(0) == pytest.approx(0.05 * geo.length_in(0))
        assert scaled.antenna_width() == pytest.approx(0.05 * geo.antenna_width())
        # the gain of a scaled gate equals the gain built from scaled lengths
        nl_a = ct.build_majority_gate(scaled, CTX)
        manual = ct.DeviceGeometry(
            w_a=geo.w_a * 0.05, w_g=geo.w_g * 0.05,
            l_in=tuple(v * 0.05 for v in geo.l_in),
            l_skew=tuple(v * 0.05 for v in geo.l_skew),
            l_out=geo.l_out * 0.05)
        nl_b = ct.build_majority_gate(manual, CTX)
        assert ct.channel_transfer(nl_a, "i1", FC) == pytest.approx(
            ct.channel_transfer(nl_b, "i1", FC), rel=1e-12)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ct.DeviceGeometry(scale=0.0)
        with pytest.raises(ValueError):
            ct.DeviceGeometry(l_in=(-1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ct.MicrowaveSettings(attenuator_db=(-1.0, 0.0, 0.0))

    def test_output_coupling_ceiling(self):
        # 5e16 dB used to reach carrier_gains and raise a bare OverflowError
        with pytest.raises(ValueError, match="^output_coupling_db must not"):
            ct.MicrowaveSettings(output_coupling_db=5e16)


class TestSerialization:
    def test_spectrum_csv(self):
        lines = ct.spectrum_to_csv([6.0e9], [-33.25]).strip().split("\n")
        assert lines == ["f_hz,s21_db", "6000000000,-33.25"]
