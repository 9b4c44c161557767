import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_product, csv_table, fd_group_velocity, group_speed
from spingate import circuit as ct
from spingate import config as cf
from spingate import physics as ph
from spingate._kernels import kernels
from spingate import table
from spingate.cli import main
from spingate.record import replace
from spingate.table import COMPUTE_ROWS

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
    k = ph.solve_k_grid(ctx, f)
    return ct.waveguide_transfer(ctx, length, k, group_speed(ctx, k),
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


@pytest.mark.parametrize("orientation, f_c, offset", [
    (ph.Orientation.PARALLEL, FC, -40e6), (ph.Orientation.PARALLEL, FC, 20e6),
    (ph.Orientation.PERPENDICULAR, 6.12e9, -40e6),
    (ph.Orientation.PERPENDICULAR, 6.12e9, 40e6)])
def test_group_delay_off_the_carrier(orientation, f_c, offset):
    # -dphase/domega of a channel, by central difference, is its film path
    # over |v_g(f)| off the carrier too, on either branch; the constants and
    # the antenna shape add no delay
    ctx = make_ctx(orientation=orientation)
    nl = ct.build_majority_gate(ct.DeviceGeometry(), ctx,
                                ct.MicrowaveSettings(f_c=f_c))
    f, h = f_c + offset, 1.0e4
    gain = ct.channel_transfer(nl, "i2", np.array([f - h, f + h]))
    delay = -np.angle(gain[1] / gain[0]) / (2.0 * math.pi * 2.0 * h)
    expect = nl.lengths[1] / abs(fd_group_velocity(ctx, ph.solve_k(ctx, f)))
    assert delay == pytest.approx(expect, rel=1e-6)


class TestChannelTransfer:
    def test_near_identity_chain(self):
        # vanishing antenna width and zero lengths leave only unit elements
        geo = ct.DeviceGeometry(w_a=1e-12, l_in=(0, 0, 0), l_skew=(0, 0, 0),
                                l_out=0.0)
        nl = ct.build_majority_gate(geo, CTX)
        assert nl.carrier_gains[1] == pytest.approx(1.0, abs=1e-9)

    def test_attenuator_scaling(self):
        nl = symmetric_netlist()
        base = abs(nl.carrier_gains[0])
        nl3 = nl.with_controls(attenuator_db=(3.0, 0.0, 0.0))
        assert abs(nl3.carrier_gains[0]) / base == pytest.approx(
            10 ** (-3.0 / 20.0), rel=1e-12)

    def test_stopband_propagates(self):
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        # a scalar frequency is the one-point grid
        np.testing.assert_array_equal(ct.channel_transfer(nl, "i1", 7.0e9), [0.0])
        assert abs(nl.carrier_gains[0]) > 0.0

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
    to a 1e-12 floor the budget grows by 1e-15 per radian of phase,
    k_c*L + |k - k_c|*L, and per neper of decay the film path accumulates
    at f (up to ~1e5 where the backward-volume wave crawls near the band
    bottom).
    """
    geo, i = nl.geometry, ct.CHANNELS.index(channel)
    length = (geo.l_in[i] + geo.l_skew[i] + geo.l_out) * geo.scale
    k = np.nan_to_num(ph.solve_k_grid(nl.ctx, f))
    vg = np.abs(ph.group_velocity(nl.ctx, k))
    k_c = ph.solve_k(nl.ctx, nl.settings.f_c)
    return 1e-12 + 1e-15 * length * (k_c + np.abs(k - k_c)
                                     + ph.damping_rate(nl.ctx) / vg)


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
    assert got.shape == np.shape(np.atleast_1d(f))
    budget = rounding_budget(nl, channel, np.atleast_1d(f))
    assert np.all(np.abs(got - ref) <= budget * np.abs(ref))


def test_carrier_gains_cached_per_netlist():
    nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
    gains = nl.carrier_gains
    assert nl.carrier_gains is gains
    assert not gains.flags.writeable
    np.testing.assert_array_equal(
        gains, [ct.channel_transfer(nl, ch, FC)[0] for ch in ct.CHANNELS])
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
    # a with_controls copy inherits the carrier and its film gains, so it
    # solves no k, and its gains are those of a gate built from scratch
    # with the same settings, bit for bit
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
        assert copy.carrier is nl.carrier
        assert copy.carrier_film is nl.carrier_film
        fresh = ct.build_majority_gate(copy.geometry, copy.ctx, copy.settings)
        assert g.tobytes() == fresh.carrier_gains.tobytes()


@pytest.mark.parametrize("orientation", list(ph.Orientation))
@pytest.mark.parametrize("copied", [False, True])
def test_carrier_propagation_equals_fresh_solve(orientation, copied):
    # the cached carrier gains are channel_transfer on the one-point grid
    # [f_c], which solves k afresh: the same bits, on a with_controls copy
    # that inherits the carrier, on rescaled copies that reuse its k and
    # |v_g|, and, all exactly 0, at a carrier outside the band
    nl = reference_gate(orientation)
    if copied:
        nl = nl.with_controls(attenuator_db=(1.0, 0.0, 2.0),
                              phase_rad=(0.5, 0.0, -0.5))
    lo, hi = ph.band_limits(nl.ctx)
    outside = [ct.build_majority_gate(nl.geometry, nl.ctx,
                                      replace(nl.settings, f_c=f_c))
               for f_c in (0.9 * lo, 1.1 * hi)]
    for gate in [nl, nl.rescaled(0.05), nl.rescaled(3.0), *outside]:
        f_c = gate.settings.f_c
        for idx, ch in enumerate(ct.CHANNELS):
            solved = ct.channel_transfer(gate, ch, np.array([f_c]))
            scalar = ct.channel_transfer(gate, ch, f_c)
            assert solved.shape == scalar.shape == (1,)
            assert solved.tobytes() == scalar.tobytes()
            assert solved.tobytes() == gate.carrier_gains[idx:idx + 1].tobytes()
    for gate in outside:
        np.testing.assert_array_equal(gate.carrier_gains, 0.0)


@pytest.mark.parametrize("orientation", list(ph.Orientation))
def test_rescaled_netlist_matches_fresh_one(orientation, monkeypatch):
    # the film and the field do not scale: a rescaled copy reuses the
    # carrier's k and |v_g| and solves nothing, and its film gains, shape
    # and gains are those of a gate built from scratch, bit for bit
    nl = reference_gate(orientation).with_controls(attenuator_db=(1.0, 0.0, 2.0))
    nl.carrier
    calls = count_solves(monkeypatch)
    for factor in (0.05, 0.5, 3.0):
        scaled = nl.rescaled(factor)
        scaled.carrier_gains
        assert calls == []
        fresh = ct.build_majority_gate(nl.geometry.rescaled(factor), nl.ctx,
                                       nl.settings)
        assert scaled.geometry == fresh.geometry
        assert scaled.settings == nl.settings
        ours, theirs = scaled.carrier, fresh.carrier
        for name in ("k", "speed", "shape"):
            assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
        assert scaled.carrier_film.tobytes() == fresh.carrier_film.tobytes()
        assert scaled.carrier_gains.tobytes() == fresh.carrier_gains.tobytes()
        calls.clear()


# |S21| in dB against 20*log10 of the complex gain's magnitude: on 1500
# random gates of the netlists() kind (scale up to 3), each on a 400-point
# grid across both band edges with a -1000 dB floor, the two put the same
# bins on the floor and agree in the others to 5.7e-13 dB, at most 4.8e-15
# of max(1, |dB|): a 20x margin to this budget
DB_RTOL = 1e-13


def assert_db_of_gain(db, gain, floor_db, budget=None):
    """db is max(20*log10|gain|, floor_db): the same bins on the floor, the
    others within budget dB (by default DB_RTOL * max(1, |dB|))."""
    with np.errstate(divide="ignore"):
        ref = np.maximum(20.0 * np.log10(np.abs(gain)), floor_db)
    np.testing.assert_array_equal(db == floor_db, ref == floor_db)
    if budget is None:
        budget = DB_RTOL * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(db - ref) <= budget)


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
        # the shared k-solve gives each channel's own magnitude in dB
        for ch, db in zip(ct.CHANNELS, curves):
            assert_db_of_gain(db, ct.channel_transfer(nl, ch, f), -80.0)
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

    @pytest.mark.parametrize("orientation", list(ph.Orientation))
    def test_memory_of_a_large_grid(self, orientation):
        # one propagation for the three channels, its shape and speed turned
        # into the per-bin dB terms in place and the wavenumbers solved in
        # place, on a grid reaching just past both band edges: the peak, in
        # float64 arrays of the grid, is set by the iterative k-solve on the
        # backward-volume branch (measured 10.9) and by the propagation on
        # the surface branch (closed form, measured 7.9)
        ctx = make_ctx(orientation=orientation)
        lo, hi = ph.band_limits(ctx)
        nl = ct.build_majority_gate(ct.DeviceGeometry(), ctx,
                                    ct.MicrowaveSettings(f_c=0.5 * (lo + hi)))
        arrays = {ph.Orientation.PARALLEL: 11.5,
                  ph.Orientation.PERPENDICULAR: 8.5}[orientation]
        n = 2 ** 15
        f = np.linspace(lo - 0.02 * (hi - lo), hi + 0.02 * (hi - lo), n)
        tracemalloc.start()
        try:
            ct.transmission_spectrum(nl, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * n


@settings(max_examples=60, deadline=None)
@given(net=netlists(), below=st.floats(1e-3, 0.3), above=st.floats(1e-3, 0.3),
       n=st.integers(2, 400), floor_db=st.sampled_from([-80.0, -1000.0]))
def test_spectrum_is_each_channels_gain_in_db(net, below, above, n, floor_db):
    # grids across both band edges, on both branches: NaN k in the
    # stopband and v_g -> 0 at the edges, where the magnitude in dB must
    # still floor the bins the complex response floors, and match it in
    # the others
    nl, lo, hi = net
    edges = [lo, hi, *(np.nextafter(x, y) for x, y in ((lo, hi), (hi, lo))),
             *(lo + (hi - lo) * np.array([1e-12, 1e-9, 1 - 1e-9, 1 - 1e-12]))]
    f = np.unique(np.r_[np.linspace(lo - below * (hi - lo),
                                    hi + above * (hi - lo), n), edges])
    curves = ct.transmission_spectrum(nl, f, floor_db=floor_db)
    for ch, db in zip(ct.CHANNELS, curves):
        assert_db_of_gain(db, ct.channel_transfer(nl, ch, f), floor_db)


@settings(max_examples=60, deadline=None)
@given(net=netlists())
def test_spectrum_matches_the_element_product(net):
    # against the gate multiplied element by element, on the grid of
    # test_channel_transfer_matches_element_product: a relative gain
    # error r is 20*log10(e)*r dB
    nl, lo, hi = net
    f = np.concatenate([[0.9 * lo], np.linspace(lo + 0.1 * (hi - lo), hi, 64),
                        [1.1 * hi]])
    curves = ct.transmission_spectrum(nl, f, floor_db=-1000.0)
    for ch, db in zip(ct.CHANNELS, curves):
        budget = 20.0 / math.log(10.0) * rounding_budget(nl, ch, f)
        assert_db_of_gain(db, chain_product(nl, ch, f), -1000.0, budget)


def test_spectrum_needs_no_complex_response(monkeypatch):
    # the magnitude comes from the propagation alone: no channel gain, no
    # film gain and no carrier solve
    nl = reference_gate(ph.Orientation.PARALLEL)
    lo, hi = ph.band_limits(nl.ctx)
    f = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 101)
    expected = [ct.channel_transfer(nl, ch, f) for ch in ct.CHANNELS]

    def refused(*args, **kwargs):
        raise AssertionError("complex response evaluated")

    monkeypatch.setattr(ct, "channel_transfer", refused)
    monkeypatch.setattr(kernels, "waveguide_gain", refused)
    calls = count_solves(monkeypatch)
    curves = ct.transmission_spectrum(nl, f)
    assert [np.size(args[0]) for args in calls] == [f.size]
    for db, gain in zip(curves, expected):
        assert_db_of_gain(db, gain, -80.0)


def test_spectrum_is_independent_of_the_carrier():
    # |S21| has no phase reference: gates that differ in f_c alone, one of
    # them outside the band (which zeroes the complex film gain), give the
    # same curves
    nl = reference_gate(ph.Orientation.PERPENDICULAR)
    lo, hi = ph.band_limits(nl.ctx)
    f = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 101)
    curves = ct.transmission_spectrum(nl, f)
    assert np.any(curves[0] > -80.0)
    for f_c in (lo + 0.3 * (hi - lo), 0.5 * lo):
        other = ct.build_majority_gate(nl.geometry, nl.ctx,
                                       replace(nl.settings, f_c=f_c))
        for db, own in zip(ct.transmission_spectrum(other, f), curves):
            assert db.tobytes() == own.tobytes()


@pytest.mark.parametrize("linewidth", [0.0, 6.2e-5])
def test_spectrum_edge_rules(linewidth, monkeypatch):
    # i1 has zero length, i2 a constant that underflows to 0, and one
    # in-band bin a group speed of 0: the stopband and i2 lie on the floor,
    # i1 has the unit film gain at every bin, i3 floors the zero-speed bin
    # (with damping and, as 0/0, without), all as the complex response does
    ctx = make_ctx(linewidth=linewidth)
    geo = ct.DeviceGeometry(l_in=(0.0, 5e-3, 5e-3), l_skew=(0.0, 0.0, 0.0),
                            l_out=0.0)
    nl = ct.build_majority_gate(
        geo, ctx, ct.MicrowaveSettings(attenuator_db=(0.0, 1e4, 0.0)))
    assert nl.lengths[0] == 0.0 and nl.constants[1] == 0.0
    lo, hi = ph.band_limits(ctx)
    f = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 61)
    velocity = ph.group_velocity

    def stalled(ctx_, k):
        v = velocity(ctx_, k)
        v[v.size // 2] = 0.0
        return v

    monkeypatch.setattr(ph, "group_velocity", stalled)
    curves = ct.transmission_spectrum(nl, f)
    stop = np.isnan(ph.solve_k_grid(ctx, f))
    stalled_bin = np.flatnonzero(~stop)[np.count_nonzero(~stop) // 2]
    assert curves[0][stalled_bin] > -80.0
    assert curves[2][stalled_bin] == -80.0
    np.testing.assert_array_equal(curves[1], -80.0)
    for ch, db in zip(ct.CHANNELS, curves):
        np.testing.assert_array_equal(db[stop], -80.0)
        assert_db_of_gain(db, ct.channel_transfer(nl, ch, f), -80.0)


def test_transmission_solves_each_grid_once(tmp_path, monkeypatch):
    # one solve for the three channels per block of the grid and no
    # carrier solve: the reference grid is one block, and a grid of three
    # blocks and a ragged fourth is solved once in all, no solve larger
    # than the block
    calls = count_solves(monkeypatch)
    assert main(["transmission", "--out", str(tmp_path)]) == 0
    sizes = sorted(np.size(args[0]) for args in calls)
    assert sizes == [441]
    n = 3 * COMPUTE_ROWS + 123
    config = tmp_path / "cfg.txt"
    config.write_text(f"spectrum.n_points = {n}\n")
    calls.clear()
    assert main(["transmission", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    sizes = sorted(np.size(args[0]) for args in calls)
    assert sum(sizes) == n
    assert max(sizes) <= COMPUTE_ROWS


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

    def test_chain_floor_is_the_lowest_flat_level(self):
        # after the attenuator, or after the coupling and the bend loss of
        # a skewed arm, whichever is lower: i1 gains 2 dB past its bend,
        # i2 has no bend, i3 ends 2 dB down
        nl = ct.build_majority_gate(
            ct.DeviceGeometry(), CTX,
            ct.MicrowaveSettings(coupling_db=(5.0, -2.0, 1.0)))
        assert nl.chain_floor_db((1.0, 2.0, 3.0)) == (-1.0, -4.0, -5.0)
        assert nl.chain_floor_db((math.inf, 0.0, 0.0))[0] == -math.inf

    def test_scale_multiplies_lengths(self):
        geo = ct.DeviceGeometry()
        scaled = geo.rescaled(0.05)
        nl_a = ct.build_majority_gate(scaled, CTX)
        assert nl_a.lengths == pytest.approx(
            [0.05 * v for v in ct.build_majority_gate(geo, CTX).lengths])
        k = np.linspace(1e3, 1e5, 7)
        np.testing.assert_allclose(
            ct.transducer_efficiency(scaled, k),
            ct.transducer_efficiency(replace(geo, w_a=0.05 * geo.w_a), k),
            rtol=1e-12)
        # the gain of a scaled gate equals the gain built from scaled lengths
        manual = ct.DeviceGeometry(
            w_a=geo.w_a * 0.05,
            l_in=tuple(v * 0.05 for v in geo.l_in),
            l_skew=tuple(v * 0.05 for v in geo.l_skew),
            l_out=geo.l_out * 0.05)
        nl_b = ct.build_majority_gate(manual, CTX)
        assert nl_a.carrier_gains == pytest.approx(nl_b.carrier_gains, rel=1e-12)

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
    def test_spectrum_csv(self, tmp_path):
        # one file per channel, the stopband on the floor; the peaks are
        # returned for the summary line
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        paths = [tmp_path / f"s21_{ch}.csv" for ch in ct.CHANNELS]
        peaks = ct.spectrum_to_csv(nl, cf.Grid(7.0e9, 7.0e9, 1), paths,
                                   floor_db=-33.25)
        for path in paths:
            lines = path.read_text().strip().split("\n")
            assert lines == ["f_hz,s21_db", "7000000000,-33.25"]
        assert list(peaks) == [-33.25] * 3

    @pytest.mark.parametrize("orientation", list(ph.Orientation))
    def test_blocks_write_the_whole_grid(self, tmp_path, orientation):
        # a grid of two blocks and a ragged third, past both band edges:
        # the files hold the spectra of one call on the whole grid, byte
        # for byte, and the peaks are theirs
        nl = reference_gate(orientation)
        lo, hi = ph.band_limits(nl.ctx)
        grid = cf.Grid(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo),
                       2 * COMPUTE_ROWS + 777)
        f = np.linspace(grid.start, grid.stop, grid.n)
        paths = [tmp_path / f"s21_{ch}.csv" for ch in ct.CHANNELS]
        peaks = ct.spectrum_to_csv(nl, grid, paths, floor_db=-150.0)
        spectra = ct.transmission_spectrum(nl, f, floor_db=-150.0)
        for path, db, peak in zip(paths, spectra, peaks):
            assert path.read_text() == csv_table("f_hz,s21_db", f, db)
            assert peak == db.max()

    @pytest.mark.parametrize("orientation", list(ph.Orientation))
    @pytest.mark.parametrize("last", [0.5, 1.2])
    def test_a_one_point_last_block_is_the_grid(self, tmp_path, monkeypatch,
                                                 orientation, last):
        # COMPUTE_ROWS + 1 frequencies from below the band: the last block
        # is one point, which the kernels take through their one-point
        # path, in the band (last = 0.5) or past it (1.2); the files and
        # the peaks are those of one block over the whole grid, byte for
        # byte
        nl = reference_gate(orientation)
        lo, hi = ph.band_limits(nl.ctx)
        grid = cf.Grid(lo - 0.1 * (hi - lo), lo + last * (hi - lo),
                       COMPUTE_ROWS + 1)
        blocked = [tmp_path / f"blocked_{ch}.csv" for ch in ct.CHANNELS]
        whole = [tmp_path / f"whole_{ch}.csv" for ch in ct.CHANNELS]
        peaks = ct.spectrum_to_csv(nl, grid, blocked, floor_db=-150.0)
        monkeypatch.setattr(table, "COMPUTE_ROWS", 2 * COMPUTE_ROWS)
        assert peaks.tobytes() == ct.spectrum_to_csv(
            nl, grid, whole, floor_db=-150.0).tobytes()
        for ours, theirs in zip(blocked, whole):
            assert ours.read_bytes() == theirs.read_bytes()

    def test_grid_must_ascend_across_blocks(self, tmp_path, monkeypatch):
        # a grid of half-ulp steps above 2.0, whose first repeated point
        # is put across a block boundary: each block's call checks only
        # its own steps, and the repeat is refused before any file is
        # opened
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        grid = cf.Grid(2.0, 2.0 + 0.5 * math.ulp(2.0) * 99, 100)
        f = np.linspace(grid.start, grid.stop, grid.n)
        first = int(np.flatnonzero(f[1:] <= f[:-1])[0])
        assert first > 0
        monkeypatch.setattr(table, "COMPUTE_ROWS", first + 1)
        path = tmp_path / "s21.csv"
        with pytest.raises(ValueError, match="ascending"):
            ct.spectrum_to_csv(nl, grid, [path] * 3)
        assert not path.exists()

    # the (start, stop, n) of grids [6e9, nan, nan], [nan, 6e9], [6e9, nan]
    @pytest.mark.parametrize("f", [(6.0e9, math.nan, 3), (math.nan, 6.0e9, 2),
                                   (6.0e9, math.nan, 2)])
    def test_a_nan_grid_does_not_ascend(self, tmp_path, f):
        # one rule for both: np.diff(f) <= 0 is False at a NaN, so
        # transmission_spectrum returned the floor there as if it were
        # stopband, while spectrum_to_csv refused the grid
        nl = ct.build_majority_gate(ct.DeviceGeometry(), CTX)
        grid = cf.Grid(*f)
        with pytest.raises(ValueError, match="ascending"):
            ct.transmission_spectrum(nl, grid.points(0, grid.n))
        path = tmp_path / "s21.csv"
        with pytest.raises(ValueError, match="ascending"):
            ct.spectrum_to_csv(nl, grid, [path] * 3)
        assert not path.exists()
