"""Numpy kernels: wavenumber inversion properties and the detector scan."""

import math

import numpy as np
from hypothesis import given, settings
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
    # chunked scan versus the plain sequential loop
    rng = np.random.default_rng(8)
    x = rng.random(5000)
    for a in (0.0, 0.01, 0.73, 0.9999):
        got = _core_py.lowpass_1pole(x, a, x[0])
        acc = x[0]
        ref = np.empty_like(x)
        for i, xi in enumerate(x):
            acc = a * acc + (1.0 - a) * xi
            ref[i] = acc
        np.testing.assert_allclose(got, ref, atol=1e-11)


def test_numpy_waveguide_gain_zero_length():
    f = np.array([1.0e9, FC, 9.0e9])
    np.testing.assert_array_equal(
        _core_py.waveguide_gain(f, kernels.solve_k(f, WH, WM, D, 0), FC,
                                solve_one(FC, WH, WM, D, 0), 0.0, ETA, WH, WM,
                                D, 0),
        np.ones(3, dtype=complex))
