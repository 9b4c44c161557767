"""Numpy kernels: wavenumber inversion properties and the detector scan."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from spingate._kernels import BRANCH_BV, BRANCH_S, _core_py, backend_name, kernels

GAMMA = 2.0 * math.pi * 28.0e9
WH = GAMMA * 0.1429
WM = GAMMA * 0.185
D = 5.4e-6
ETA = 5.45e6
FC = 6.035e9

films = st.tuples(
    st.floats(0.01, 2.0).map(lambda t: GAMMA * t),  # wh from mu0*H
    st.floats(0.01, 2.0).map(lambda t: GAMMA * t),  # wm from mu0*Ms
    st.floats(1e-8, 1e-4),                          # thickness
)
# position inside the open band, dense at both edges
band_fraction = st.one_of(
    st.floats(1e-9, 1.0 - 1e-9),
    st.floats(1e-9, 1e-3),
    st.floats(1e-9, 1e-3).map(lambda e: 1.0 - e),
)
branches = st.sampled_from([BRANCH_BV, BRANCH_S])


def edges(wh, wm, branch):
    """Open band (f_lo, f_hi) in Hz, from the dispersion's limits."""
    w_fmr = math.sqrt(wh * (wh + wm))
    if branch == BRANCH_BV:
        return wh / (2.0 * math.pi), w_fmr / (2.0 * math.pi)
    return w_fmr / (2.0 * math.pi), math.sqrt(w_fmr ** 2 + 0.25 * wm * wm) / (2.0 * math.pi)


def solve_one(f, wh, wm, d, branch):
    return kernels.solve_k(np.array([f]), wh, wm, d, branch)[0]


def test_backend_selection_consistent():
    assert backend_name() == "python"
    assert kernels is _core_py


@settings(max_examples=300, deadline=None)
@given(film=films, u=band_fraction, branch=branches)
def test_solve_k_round_trip(film, u, branch):
    # f(k(f)) = f across the band, including k -> 0 and k -> infinity
    wh, wm, d = film
    lo, hi = edges(wh, wm, branch)
    f = lo + u * (hi - lo)
    k = solve_one(f, wh, wm, d, branch)
    assert k > 0.0 and math.isfinite(k)
    f_back = kernels.dispersion_f(np.array([k]), wh, wm, d, branch)[0]
    assert abs(f_back - f) <= 1e-15 * f


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.floats(1e-12, 0.98), st.floats(0.9, 0.98)))
def test_backward_volume_root_matches_lambert_w(p):
    # P(x) = p has the root x = 1/p + W0(-exp(-1/p)/p).  The root is taken
    # from the thickness factor itself: p from a frequency near the band
    # bottom carries the rounding of w^2 - wh^2.  Towards p -> 1 the
    # Lambert form cancels (1.7e-12 against 60-digit arithmetic at
    # p = 0.99), so only the round-trip property covers that stretch.
    x_ref = 1.0 / p + lambertw(-math.exp(-1.0 / p) / p).real
    x = _core_py._bv_thickness_root(np.array([p]))[0]
    assert abs(x - x_ref) <= 1e-12 * x_ref


@settings(max_examples=200, deadline=None)
@given(film=films, u=band_fraction)
def test_surface_k_is_log1p_closed_form(film, u):
    wh, wm, d = film
    lo, hi = edges(wh, wm, BRANCH_S)
    f = lo + u * (hi - lo)
    # s carries the rounding of w^2 - w_fmr^2 (ill-conditioned at s -> 0),
    # so it is formed with the same numpy operations the kernel applies
    w2 = (2.0 * np.pi * np.array([f])) ** 2
    s = (w2[0] - wh * (wh + wm)) * 4.0 / (wm * wm)
    k = solve_one(f, wh, wm, d, BRANCH_S)
    assert abs(k - (-math.log1p(-s) / (2.0 * d))) <= 1e-14 * k


@settings(max_examples=200, deadline=None)
@given(film=films, t=st.floats(1e-12, 10.0), below=st.booleans(),
       branch=branches)
def test_solve_k_nan_outside_open_band(film, t, below, branch):
    wh, wm, d = film
    lo, hi = edges(wh, wm, branch)
    f = lo / (1.0 + t) if below else hi * (1.0 + t)
    assert math.isnan(solve_one(f, wh, wm, d, branch))


def test_solve_k_nonfinite_and_nonpositive_inputs():
    # frequencies, or a film, whose band targets overflow are out of band
    # without a floating-point warning
    f = np.array([0.0, -6.0e9, np.inf, -np.inf, np.nan, 1e300, -1e300])
    with np.errstate(all="raise"):
        for branch in (BRANCH_BV, BRANCH_S):
            assert np.all(np.isnan(kernels.solve_k(f, WH, WM, D, branch)))
            assert np.all(np.isnan(kernels.solve_k(f, 3e-172, 4.8e192, D, branch)))
    # in-band targets over an underflowed wm^2 or wh*wm, or whose
    # wavenumber passes the float range (a subnormal thickness); numpy
    # ignores underflow by default, and so do these checks
    with np.errstate(all="raise", under="ignore"):
        for branch in (BRANCH_BV, BRANCH_S):
            mid = np.array([np.mean(edges(WH, WM, branch))])
            assert np.isnan(kernels.solve_k(mid, WH, WM, 5e-324, branch)[0])
            tiny = np.array([np.mean(edges(1e-170, 1e-170, branch))])
            assert np.isnan(kernels.solve_k(tiny, 1e-170, 1e-170, D, branch)[0])


def test_group_velocity_far_beyond_the_band_edge():
    # k*d of 1e103 and 1e160 overflowed the thickness-factor derivative
    k = np.array([1e108, 1e165])
    with np.errstate(all="raise", under="ignore"):
        vg = kernels.group_velocity(k, WH, WM, D, BRANCH_BV)
    assert np.all(vg <= 0.0) and np.all(np.isfinite(vg))


@settings(max_examples=60, deadline=None)
@given(film=films, d=st.floats(1e300, 1e305), branch=branches)
def test_kd_past_the_float_range(film, d, branch):
    # where k*d overflows to inf, f and v_g take their large-kd limits
    # (wh/2pi or the surface band's top, and a zero v_g of the branch's
    # sign) without a warning; P'(inf) was 0*inf, a NaN v_g.  Where k*d is
    # finite, they are the formulas as written, bit for bit
    wh, wm, _ = film
    k = np.logspace(1.0, 9.0, 64)
    with np.errstate(all="raise", under="ignore"):
        f = kernels.dispersion_f(k, wh, wm, d, branch)
        vg = kernels.group_velocity(k, wh, wm, d, branch)
    with np.errstate(all="ignore"):
        inside = np.isfinite(k * d)
        k = k[inside]
        if branch == BRANCH_BV:
            w2 = wh * (wh + wm * _core_py._thin_film_factor(k * d))
            rates, of_kd = wh * wm, _core_py._thin_film_factor_deriv(k * d)
        else:
            w2 = wh * (wh + wm) + 0.25 * wm * wm * (-np.expm1(-2.0 * k * d))
            rates, of_kd = 0.5 * wm * wm, np.exp(-2.0 * k * d)
        dw2_dk = (rates * (d * of_kd) if math.isinf(rates * d)
                  else rates * d * of_kd)
    assert 0 < inside.sum() < inside.size
    f_in = np.sqrt(w2) / (2.0 * np.pi)
    assert f[inside].tobytes() == f_in.tobytes()
    assert vg[inside].tobytes() == (dw2_dk / (2.0 * (2.0 * np.pi * f_in))).tobytes()
    f_limit = edges(wh, wm, branch)[0 if branch == BRANCH_BV else 1]
    np.testing.assert_allclose(f[~inside], f_limit, rtol=1e-15)
    assert np.all(vg[~inside] == 0.0)
    assert np.all(np.signbit(vg[~inside]) == (branch == BRANCH_BV))


@settings(max_examples=60, deadline=None)
@given(film=films, k=st.lists(st.floats(1e-3, 1e7), min_size=1, max_size=8),
       branch=branches)
def test_group_velocity_of_a_thick_film(film, k, branch):
    # at d = 1e300 the film factor wh*wm*d (wm^2*d/2) overflows while its
    # factor of kd vanishes: the product, NaN before, is taken again in
    # the order that gives the large-kd limit; at the film's own d it is
    # the product as written, bit for bit.  k*d stays in the float range.
    wh, wm, d = film
    k = np.array(k)
    with np.errstate(all="raise", under="ignore"):
        thick = kernels.group_velocity(k, wh, wm, 1e300, branch)
        vg = kernels.group_velocity(k, wh, wm, d, branch)
    assert np.all(np.isfinite(thick)) and not np.any(thick * (branch - 0.5) < 0)
    if branch == BRANCH_BV:
        dw2_dk = wh * wm * d * _core_py._thin_film_factor_deriv(k * d)
    else:
        dw2_dk = 0.5 * wm * wm * d * np.exp(-2.0 * k * d)
    w = 2.0 * np.pi * kernels.dispersion_f(k, wh, wm, d, branch)
    assert vg.tobytes() == (dw2_dk / (2.0 * w)).tobytes()


def test_solve_k_grid_equals_scalar_solves():
    # the vectorized iteration freezes each bin on its own convergence
    for branch in (BRANCH_BV, BRANCH_S):
        lo, hi = edges(WH, WM, branch)
        f = np.linspace(lo * 0.98, hi * 1.02, 4001)
        grid = kernels.solve_k(f, WH, WM, D, branch)
        each = np.array([solve_one(fi, WH, WM, D, branch) for fi in f])
        np.testing.assert_array_equal(grid, each)
        assert 1000 < np.isfinite(grid).sum() < f.size


def test_numpy_lowpass_against_direct_recurrence():
    # chunked scan versus the plain sequential loop, written over its own
    # input, since each chunk is read before it is overwritten (5000
    # samples span 2 to 39 chunks over these poles)
    rng = np.random.default_rng(8)
    x = rng.random(5000)
    for a in (0.01, 0.73, 0.9999):
        inplace = x.copy()
        got = _core_py.lowpass_1pole(inplace, a, x[0])
        assert got is inplace
        acc = x[0]
        ref = np.empty_like(x)
        for i, xi in enumerate(x):
            acc = a * acc + (1.0 - a) * xi
            ref[i] = acc
        np.testing.assert_allclose(got, ref, atol=1e-11)


def test_numpy_waveguide_gain_zero_length():
    k = kernels.solve_k(np.array([1.0e9, FC, 9.0e9]), WH, WM, D, BRANCH_BV)
    np.testing.assert_array_equal(
        _core_py.waveguide_gain(k, np.array([np.nan, 3.0e4, np.nan]),
                                solve_one(FC, WH, WM, D, 0), 0.0, ETA, BRANCH_BV),
        np.ones(3, dtype=complex))


def test_waveguide_gain_broadcasts_over_lengths():
    # one call over a column of lengths is each length's own call, bit for
    # bit: zero length, the stopband and an out-of-band carrier included
    f = np.array([1.0e9, 5.99e9, FC, 6.05e9, 6.2e9, 6.5e9, 9.0e9])
    lengths = np.array([0.0, 1.0e-3, 2.6e-2])
    for branch in (BRANCH_BV, BRANCH_S):
        k = kernels.solve_k(f, WH, WM, D, branch)
        speed = np.abs(kernels.group_velocity(k, WH, WM, D, branch))
        assert np.isnan(k).any() and not np.isnan(k).all()
        for k_c in (float(k[~np.isnan(k)][0]), math.nan):
            rows = _core_py.waveguide_gain(k, speed, k_c, lengths[:, None],
                                           ETA, branch)
            assert rows.shape == (3, f.size)
            for length, row in zip(lengths, rows):
                own = _core_py.waveguide_gain(k, speed, k_c, length, ETA, branch)
                assert row.tobytes() == own.tobytes()
            np.testing.assert_array_equal(rows[0], np.ones(f.size))
            if math.isnan(k_c):
                assert not rows[1:].any()


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(film=films, u=band_fraction, branch=branches)
def test_one_point_solve_is_the_grid_solve(film, u, branch):
    # a one-point solve takes the float transcription, a grid the array
    # path; the point's wavenumber is the grid's, bit for bit, in the band
    # and just outside it
    wh, wm, d = film
    lo, hi = edges(wh, wm, branch)
    f = np.array([lo * 0.999, lo, lo + u * (hi - lo), hi, hi * 1.001,
                  lo + 0.5 * (hi - lo)])
    grid = kernels.solve_k(f, wh, wm, d, branch)
    for fi, ki in zip(f, grid):
        assert bits(solve_one(fi, wh, wm, d, branch)) == bits(ki)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.floats(5e-324, 1.0, exclude_max=True),
                   st.floats(1e-12, 1.0).map(lambda t: 10.0 ** -(12 * t)),
                   st.floats(1e-16, 1e-1).map(lambda e: 1.0 - e)))
@example(p=5e-324)
@example(p=1e-310)
@example(p=1.0 - 2.0 ** -53)
def test_one_point_root_is_the_grid_root(p):
    # the float Halley iteration returns the grid's root of P(x) = p,
    # from a subnormal p (a NaN bracket) to p -> 1
    if not 0.0 < p < 1.0:
        return
    grid = _core_py._bv_thickness_root(np.array([p, 0.5, 1e-3]))
    assert bits(_core_py._bv_thickness_root_point(p)) == bits(grid[0])


def test_one_point_is_selected_by_size(monkeypatch):
    # one point never enters the array iteration; any grid does
    calls = []
    root = _core_py._bv_thickness_root
    monkeypatch.setattr(_core_py, "_bv_thickness_root",
                        lambda p: calls.append(p.size) or root(p))
    kernels.solve_k(np.array([FC]), WH, WM, D, BRANCH_BV)
    kernels.solve_k(np.array([[FC]]), WH, WM, D, BRANCH_BV)
    assert calls == []
    kernels.solve_k(np.array([FC, FC]), WH, WM, D, BRANCH_BV)
    assert calls == [2]
    # the one-point result keeps the input's shape
    for shape in ((), (1,), (1, 1)):
        f = np.full(shape, FC)
        assert kernels.solve_k(f, WH, WM, D, BRANCH_S).shape == shape
        assert kernels.dispersion_f(f * 0 + 1e4, WH, WM, D, BRANCH_S).shape == shape
        assert kernels.group_velocity(f * 0 + 1e4, WH, WM, D, BRANCH_S).shape == shape


@pytest.mark.parametrize("branch", [BRANCH_BV, BRANCH_S])
@pytest.mark.parametrize("d", [D, 1e300])
def test_one_point_dispersion_is_the_grid(branch, d):
    # f(k) and v_g(k) at one k are the grid's bits at k = 0, on both sides
    # of the thickness-factor guard and of the derivative's series, where
    # k*d passes the float range, and on a 1e300 m film, with and without
    # the caller's f
    kd = [0.0, 5e-324, _core_py._P_GUARD_X, _core_py._P_DERIV_SERIES_X,
          0.37, 40.0, 1e160, 1e300]
    k = np.array(sorted({edge / D * s for edge in kd
                         for s in (1.0 - 2e-16, 1.0, 1.0 + 2e-16)}
                        | {1.0, 1e6, 1e308, np.inf}))
    with np.errstate(all="raise", under="ignore"):
        f = kernels.dispersion_f(k, WH, WM, d, branch)
        vg = kernels.group_velocity(k, WH, WM, d, branch)
        vg_f = kernels.group_velocity(k, WH, WM, d, branch, f)
        for i, ki in enumerate(k):
            one = np.array([ki])
            assert bits(kernels.dispersion_f(one, WH, WM, d, branch)) == bits(f[i])
            assert bits(kernels.group_velocity(one, WH, WM, d, branch)) == bits(vg[i])
            assert bits(kernels.group_velocity(
                one, WH, WM, d, branch, f[i:i + 1])) == bits(vg_f[i])
    # the large-kd limits hold (an inf v_g where a 1e300 m film's k = 0
    # limit overflows)
    assert not np.isnan(f).any() and not np.isnan(vg).any()
