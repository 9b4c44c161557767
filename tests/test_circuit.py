import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_product
from spingate import circuit as ct
from spingate import physics as ph

FC = 6.035e9
EPS = np.finfo(np.float64).eps


def make_ctx(mu0_ms=0.185, orientation=ph.Orientation.PARALLEL, linewidth=6.2e-5):
    film = ph.FilmParams(Ms=mu0_ms / ph.MU0, d=5.4e-6, mu0_dh0=linewidth)
    return ph.ModeContext(film, ph.BiasField(0.1429, orientation))


CTX = make_ctx()


def symmetric_netlist(ctx=CTX, **settings_kwargs):
    geo = ct.DeviceGeometry(l_skew=(0.0, 0.0, 0.0))
    return ct.build_majority_gate(geo, ctx, ct.MicrowaveSettings(**settings_kwargs))


class TestTransducer:
    def test_small_k_limit(self):
        # just under the band top the wavenumber collapses, sinc -> 1
        f_top = ph.band_limits(CTX)[1]
        eff = ct.transducer_efficiency(CTX, ct.DeviceGeometry(), f_top * (1 - 1e-9))
        assert abs(eff) == pytest.approx(1.0, abs=1e-6)

    def test_first_antenna_zero(self):
        geo = ct.DeviceGeometry()
        k_zero = 2.0 * math.pi / geo.w_a
        f = ph.dispersion_f(CTX, k_zero)
        assert abs(ct.transducer_efficiency(CTX, geo, f)) < 1e-9

    def test_carrier_value(self):
        # sinc(0.213) with the 75 um stripline at the carrier wavenumber
        eff = ct.transducer_efficiency(CTX, ct.DeviceGeometry(), FC)
        assert eff == pytest.approx(0.9925, abs=2e-4)

    def test_stopband_zero(self):
        assert ct.transducer_efficiency(CTX, ct.DeviceGeometry(), 7.0e9) == 0.0


class TestWaveguideTransfer:
    def test_zero_length_unity_everywhere(self):
        f = np.array([3.0e9, FC, 7.0e9])
        np.testing.assert_array_equal(ct.waveguide_transfer(CTX, 0.0, f, FC),
                                      np.ones(3, dtype=complex))

    def test_lossless_carrier_phase(self):
        ctx0 = make_ctx(linewidth=0.0)
        k_c = ph.solve_k(ctx0, FC)
        length = 2.0e-3
        gain = ct.waveguide_transfer(ctx0, length, FC, FC)
        assert abs(gain) == pytest.approx(1.0, rel=1e-12)
        expect = -k_c * length
        assert np.angle(gain) == pytest.approx(
            float(np.angle(np.exp(1j * expect))), abs=1e-9)

    def test_decay_over_5mm(self):
        # decay length |vg|/eta is about 5.2 mm at the carrier
        gain = ct.waveguide_transfer(CTX, 5.0e-3, FC, FC)
        assert abs(gain) == pytest.approx(0.3847, abs=2e-3)
        assert abs(gain) == pytest.approx(math.exp(-1.0), rel=0.05)

    def test_stopband_zero(self):
        f = np.array([6.2e9, 3.9e9])
        np.testing.assert_array_equal(
            ct.waveguide_transfer(CTX, 1e-3, f, FC), np.zeros(2, dtype=complex))

    def test_out_of_band_carrier_kills_segment(self):
        gain = ct.waveguide_transfer(CTX, 1e-3, np.array([6.0e9]), 7.0e9)
        assert gain[0] == 0.0

    def test_segment_split_multiplicative(self):
        f = np.linspace(5.95e9, 6.05e9, 7)
        whole = ct.waveguide_transfer(CTX, 5.0e-3, f, FC)
        split = (ct.waveguide_transfer(CTX, 2.0e-3, f, FC)
                 * ct.waveguide_transfer(CTX, 3.0e-3, f, FC))
        np.testing.assert_allclose(split, whole, atol=1e-12)

    def test_magnitude_direction_independent(self):
        # pure propagation is reciprocal: |gain| depends only on the length
        f = np.linspace(5.95e9, 6.05e9, 5)
        a = np.abs(ct.waveguide_transfer(CTX, 4.0e-3, f, FC))
        b = np.abs(ct.waveguide_transfer(CTX, 2.0e-3, f, FC)
                   * ct.waveguide_transfer(CTX, 2.0e-3, f, FC))
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
        nl3 = nl.with_component_params("i1", "attenuator", db=3.0)
        assert abs(ct.channel_transfer(nl3, "i1", FC)) / base == pytest.approx(
            10 ** (-3.0 / 20.0), rel=1e-12)

    def test_stopband_propagates(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        assert ct.channel_transfer(nl, "i1", 7.0e9) == 0.0
        assert abs(ct.channel_transfer(nl, "i1", FC)) > 0.0

    def test_monotone_loss(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        f = np.linspace(5.9e9, 6.1e9, 31)
        base = np.abs(ct.channel_transfer(nl, "i1", f))
        for extra in (ct.Component("attenuator", {"db": 2.5}),
                      ct.Component("bend", {"db": 3.0})):
            chains = {**nl.chains,
                      "i1": nl.chains["i1"][:-1] + (extra, nl.chains["i1"][-1])}
            nl2 = ct.GateNetlist(ctx=nl.ctx, geometry=nl.geometry,
                                 settings=nl.settings, chains=chains,
                                 output=nl.output)
            assert np.all(np.abs(ct.channel_transfer(nl2, "i1", f))
                          <= base + 1e-15)

    def test_crosstalk_fills_stopband(self):
        settings = ct.MicrowaveSettings(crosstalk=(1e-4 + 0j, 0j, 0j))
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX, settings)
        assert ct.channel_transfer(nl, "i1", 7.0e9) == pytest.approx(1e-4)
        assert ct.channel_transfer(nl, "i2", 7.0e9) == 0.0

    def test_switch_routes_delay_line(self):
        settings = ct.MicrowaveSettings(include_switch=True)
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX, settings)
        g_direct = ct.channel_transfer(nl, "i2", FC, switch_closed=False)
        g_delayed = ct.channel_transfer(nl, "i2", FC, switch_closed=True)
        assert abs(g_direct) == pytest.approx(abs(g_delayed), rel=1e-12)
        diff = np.angle(g_delayed / g_direct)
        assert abs(diff) == pytest.approx(math.pi, abs=1e-9)


lengths = st.floats(0.0, 12.0e-3)
phases = st.floats(-math.pi, math.pi)


def triple(values):
    return st.tuples(values, values, values)


@st.composite
def netlists(draw):
    """Random gate with extra lossy elements; carrier inside the band."""
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
        output_coupling_db=draw(st.floats(-3.0, 3.0)),
        include_switch=draw(st.booleans()),
        switch_delay_rad=draw(st.floats(-2.0 * math.pi, 2.0 * math.pi)),
        crosstalk=draw(triple(st.sampled_from([0j, 1e-4 + 0j, -3e-3j]))))
    nl = ct.build_majority_gate(geo, ctx, settings_)
    extras = draw(st.lists(st.tuples(
        st.sampled_from(ct.CHANNELS), st.sampled_from(["attenuator", "bend"]),
        st.floats(0.0, 10.0)), max_size=3))
    chains = dict(nl.chains)
    for channel, kind, db in extras:
        chain = chains[channel]
        chains[channel] = chain[:-1] + (ct.Component(kind, {"db": db}), chain[-1])
    nl = ct.GateNetlist(ctx=ctx, geometry=geo, settings=settings_,
                        chains=chains, output=nl.output)
    return nl, lo, hi


def rounding_budget(nl, channel, f):
    """Relative tolerance of the folded product against the element one.

    exp(a) * exp(b) and exp(a + b) round apart by ~eps * |a + b|, so next
    to a 1e-12 floor the budget grows by 1e-15 per radian of phase and per
    neper of decay the film path accumulates at f (up to ~1e5 rad where
    the backward-volume wave crawls near the band bottom).
    """
    chain = (*nl.chains[channel], *nl.output)
    length = sum(c.params["m"] for c in chain if c.kind == "waveguide")
    k = ph.solve_k_grid(nl.ctx, f)
    vg = np.abs(ph.group_velocity(nl.ctx, np.where(np.isnan(k), 0.0, k)))
    k_c = ph.solve_k(nl.ctx, nl.settings.f_c)
    rate = 2.0 * math.pi * np.abs(f - nl.settings.f_c) + ph.damping_rate(nl.ctx)
    return 1e-12 + 1e-15 * length * (k_c + rate / vg)


@settings(max_examples=150, deadline=None)
@given(net=netlists(), channel=st.sampled_from(ct.CHANNELS),
       switch_closed=st.booleans(), grid=st.booleans(),
       u=st.floats(0.1, 1.0))
def test_channel_transfer_matches_element_product(net, channel, switch_closed,
                                                  grid, u):
    # the folded product equals the element-by-element one, in the band
    # and (as exact zeros or the crosstalk constant) in the stopband
    nl, lo, hi = net
    if grid:
        f = np.concatenate([[0.9 * lo], np.linspace(lo + 0.1 * (hi - lo), hi, 64),
                            [1.1 * hi]])
    else:
        f = lo + u * (hi - lo)
    got = ct.channel_transfer(nl, channel, f, switch_closed=switch_closed)
    ref = chain_product(nl, channel, f, switch_closed=switch_closed)
    assert np.ndim(got) == np.ndim(f)
    # relative to the propagating path, plus the rounding of adding the
    # crosstalk constant, which can cancel or swamp the path in the sum
    path = np.abs(ref - nl.settings.crosstalk[ct.CHANNELS.index(channel)])
    budget = rounding_budget(nl, channel, np.atleast_1d(f))
    assert np.all(np.abs(got - ref) <= budget * path + 2.0 * EPS * np.abs(ref))


def test_carrier_gains_cached_per_netlist():
    nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
    gains = nl.carrier_gains
    assert nl.carrier_gains is gains
    assert not gains.flags.writeable
    np.testing.assert_array_equal(
        gains, [ct.channel_transfer(nl, ch, FC) for ch in ct.CHANNELS])
    # an edited netlist is a new instance with its own gains
    nl3 = nl.with_component_params("i1", "attenuator", db=3.0)
    assert nl3.carrier_gains[0] == pytest.approx(gains[0] * 10 ** (-3.0 / 20.0),
                                                 rel=1e-12)


class TestTransmissionSpectrum:
    def test_floor_above_band_top(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        f = np.linspace(6.1e9, 6.3e9, 11)
        db = ct.transmission_spectrum(nl, "i2", f)
        np.testing.assert_array_equal(db, -80.0)

    def test_passband_above_floor(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        f = np.linspace(5.95e9, 6.05e9, 21)
        db = ct.transmission_spectrum(nl, "i2", f)
        assert np.all(db > -80.0)

    def test_distinct_channels(self):
        settings = ct.MicrowaveSettings(coupling_db=(-0.5, 0.0, -1.2))
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX, settings)
        f = np.linspace(5.95e9, 6.05e9, 21)
        curves = [ct.transmission_spectrum(nl, chn, f) for chn in ct.CHANNELS]
        assert not np.allclose(curves[0], curves[1])
        assert not np.allclose(curves[0], curves[2])
        assert not np.allclose(curves[1], curves[2])

    def test_configurable_floor(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        db = ct.transmission_spectrum(nl, "i1", np.array([7.0e9]), floor_db=-60.0)
        assert db[0] == -60.0

    def test_grid_must_ascend(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        with pytest.raises(ValueError):
            ct.transmission_spectrum(nl, "i1", np.array([6.0e9, 5.9e9]))


class TestBuildMajorityGate:
    def test_structure(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        assert set(nl.chains) == {"i1", "i2", "i3"}
        for name in ct.CHANNELS:
            kinds = [c.kind for c in nl.chains[name]]
            assert kinds[0] == "source" and kinds[-1] == "combiner"
        assert [c.kind for c in nl.output] == ["waveguide", "transducer_out",
                                               "diode"]

    def test_switch_only_when_requested(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        with pytest.raises(KeyError):
            nl.component("i2", "switch")
        nl_sw = ct.build_majority_gate(ct.DeviceGeometry(), CTX,
                                       ct.MicrowaveSettings(include_switch=True))
        assert nl_sw.component("i2", "switch").kind == "switch"
        assert nl_sw.component("i2", "delay_line").params["rad"] == math.pi
        with pytest.raises(KeyError):
            nl_sw.component("i1", "switch")

    def test_center_chain_has_no_bend(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        kinds_center = [c.kind for c in nl.chains["i2"]]
        kinds_outer = [c.kind for c in nl.chains["i1"]]
        assert "bend" not in kinds_center
        assert "bend" in kinds_outer

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


class TestSerialization:
    def test_netlist_text_keys(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        text = ct.netlist_to_text(nl)
        assert "geometry.w_g_m = 0.0015" in text
        assert "channel.i1.component[0].kind = source" in text
        assert "output.component[1].kind = transducer_out" in text
        assert "channel.i1.component[2].params.db = 0" in text

    def test_spectrum_csv(self):
        lines = ct.spectrum_to_csv([6.0e9], [-33.25]).strip().split("\n")
        assert lines == ["f_hz,s21_db", "6000000000,-33.25"]
