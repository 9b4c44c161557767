import math

import numpy as np
import pytest

from oracles import bisect_k, fd_group_velocity
from spingate import physics as ph

GAMMA = 2.0 * math.pi * 28.0e9


def ctx(mu0_ms=0.176, mu0_h=0.1429, orientation=ph.Orientation.PARALLEL,
        gamma=GAMMA, linewidth=6.2e-5, d=5.4e-6):
    film = ph.FilmParams(Ms=mu0_ms / ph.MU0, d=d, gamma=gamma,
                         mu0_dh0=linewidth)
    return ph.ModeContext(film, ph.BiasField(mu0_h, orientation))


CTX_LIT = ctx()                 # literature magnetization
CTX_FIT = ctx(mu0_ms=0.185)     # magnetization pinned to the measured k=0 point


class TestFmrFrequency:
    def test_literature_ms(self):
        # hand evaluation: sqrt(4.0012 * (4.0012 + 4.928)) GHz
        assert ph.fmr_frequency(CTX_LIT) == pytest.approx(5.9772e9, rel=1e-4)

    def test_fitted_ms_matches_measured_point(self):
        assert ph.fmr_frequency(CTX_FIT) == pytest.approx(6.06e9, rel=5e-4)

    def test_larmor_limit(self):
        # vanishing magnetization leaves the bare Larmor frequency
        c = ctx(mu0_ms=1e-15)
        assert ph.fmr_frequency(c) == pytest.approx(GAMMA * 0.1429 / (2 * math.pi),
                                                    rel=1e-9)

    def test_orientation_invariant(self):
        c_perp = ctx(orientation=ph.Orientation.PERPENDICULAR)
        assert ph.fmr_frequency(CTX_LIT) == ph.fmr_frequency(c_perp)


class TestCalibrateMs:
    def test_pins_measured_fmr(self):
        ms = ph.calibrate_ms(CTX_LIT, 6.06e9)
        assert ms * ph.MU0 == pytest.approx(0.18489, abs=2e-4)
        assert ph.fmr_frequency(CTX_LIT.with_ms(ms)) == pytest.approx(6.06e9,
                                                                      rel=1e-12)

    def test_round_trip(self):
        f0 = ph.fmr_frequency(CTX_LIT)
        assert ph.calibrate_ms(CTX_LIT, f0) == pytest.approx(CTX_LIT.film.Ms,
                                                             rel=1e-10)

    def test_larmor_boundary_rejected(self):
        # a target exactly at the Larmor frequency needs Ms = 0, which no
        # film has: at, like below, is a band error, not a zero Ms
        f_larmor = GAMMA * 0.1429 / (2.0 * math.pi)
        assert 2.0 * math.pi * f_larmor == CTX_LIT.omega_h
        with pytest.raises(ph.BandError, match="below-Larmor"):
            ph.calibrate_ms(CTX_LIT, f_larmor)

    def test_below_larmor_rejected(self):
        with pytest.raises(ph.BandError, match="below-Larmor"):
            ph.calibrate_ms(CTX_LIT, 3.0e9)

    def test_overflowing_ms_rejected(self):
        # a field near zero would need Ms beyond the float range
        with pytest.raises(ph.BandError, match="infinite magnetization"):
            ph.calibrate_ms(ctx(mu0_h=1e-300), 6.06e9)


class TestDispersion:
    def test_k_zero_is_fmr_both_branches(self):
        for c in (CTX_FIT, ctx(mu0_ms=0.185,
                               orientation=ph.Orientation.PERPENDICULAR)):
            assert ph.dispersion_f(c, 0.0) == pytest.approx(ph.fmr_frequency(c),
                                                            rel=1e-12)

    def test_bvmsw_large_k_limit(self):
        f_inf = ph.dispersion_f(CTX_FIT, 1.0e10)
        assert f_inf == pytest.approx(CTX_FIT.omega_h / (2 * math.pi), rel=1e-4)
        assert f_inf == pytest.approx(4.0012e9, rel=1e-3)

    def test_carrier_wavenumber(self):
        k = ph.solve_k(CTX_FIT, 6.035e9)
        assert 5.6e3 < k < 5.8e3
        assert k == pytest.approx(bisect_k(CTX_FIT, 6.035e9), rel=1e-9)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            ph.dispersion_f(CTX_FIT, -1.0)

    def test_bvmsw_monotone_decreasing(self):
        k = np.logspace(0, 7, 300)
        f = ph.dispersion_f(CTX_FIT, k)
        assert np.all(np.diff(f) < 0)

    def test_mssw_monotone_increasing(self):
        c = ctx(mu0_ms=0.185, orientation=ph.Orientation.PERPENDICULAR)
        # below the exp(-2kd) underflow point, where the band top saturates
        k = np.logspace(0, 6.4, 300)
        f = ph.dispersion_f(c, k)
        assert np.all(np.diff(f) > 0)


class TestGroupVelocity:
    def test_value_at_carrier(self):
        k = ph.solve_k(CTX_FIT, 6.035e9)
        assert ph.group_velocity(CTX_FIT, k) == pytest.approx(-2.9e4, abs=1.5e3)

    def test_matches_finite_difference_bvmsw(self):
        # central-difference oracle on the dispersion itself
        k = np.logspace(3, 6.3, 100)
        v = ph.group_velocity(CTX_FIT, k)
        fd = fd_group_velocity(CTX_FIT, k)
        assert np.abs(v / fd - 1.0).max() < 1e-6

    def test_matches_finite_difference_mssw(self):
        # the surface branch flattens as exp(-2kd): stay where the slope
        # is resolvable above the eps*f cancellation floor
        c = ctx(mu0_ms=0.185, orientation=ph.Orientation.PERPENDICULAR)
        k = np.logspace(3, 5.4, 100)
        v = ph.group_velocity(c, k)
        fd = fd_group_velocity(c, k)
        assert np.abs(v / fd - 1.0).max() < 1e-6

    def test_backward_wave_signs(self):
        k = np.logspace(1, 6, 50)
        v_bv = ph.group_velocity(CTX_FIT, k)
        assert np.all(v_bv < 0)
        # phase velocity stays positive: the backward-wave property
        f = ph.dispersion_f(CTX_FIT, k)
        assert np.all(2 * math.pi * f / k > 0)
        c = ctx(mu0_ms=0.185, orientation=ph.Orientation.PERPENDICULAR)
        assert np.all(ph.group_velocity(c, k) > 0)

    def test_flat_band_limit(self):
        assert abs(ph.group_velocity(CTX_FIT, 1.0e9)) < 1.0

    def test_k_zero_one_sided_limit(self):
        # documented limits: -wh*wm*d/(4*w_fmr) and +wm^2*d/(4*w_fmr)
        c = CTX_FIT
        w_fmr = 2 * math.pi * ph.fmr_frequency(c)
        expect = -c.omega_h * c.omega_m * c.film.d / (4.0 * w_fmr)
        assert ph.group_velocity(c, 0.0) == pytest.approx(expect, rel=1e-9)
        cp = ctx(mu0_ms=0.185, orientation=ph.Orientation.PERPENDICULAR)
        expect_p = cp.omega_m ** 2 * cp.film.d / (4.0 * w_fmr)
        assert ph.group_velocity(cp, 0.0) == pytest.approx(expect_p, rel=1e-9)


class TestSolveK:
    def test_round_trip_random_k(self):
        rng = np.random.default_rng(42)
        k = 10.0 ** rng.uniform(1, 6.5, size=100)
        f = ph.dispersion_f(CTX_FIT, k)
        k_back = np.array([ph.solve_k(CTX_FIT, fi) for fi in f])
        assert np.abs(k_back / k - 1.0).max() < 1e-9

    def test_frequency_residual_below_1hz(self):
        k = ph.solve_k(CTX_FIT, 6.035e9)
        assert abs(ph.dispersion_f(CTX_FIT, k) - 6.035e9) <= 1.0

    def test_band_edge_small_k(self):
        f = ph.fmr_frequency(CTX_FIT) - 1.0
        k = ph.solve_k(CTX_FIT, f)
        assert 0.0 < k < 10.0

    def test_above_band_rejected(self):
        with pytest.raises(ph.BandError, match="no propagating mode"):
            ph.solve_k(CTX_FIT, 7.0e9)

    def test_below_band_rejected(self):
        with pytest.raises(ph.BandError):
            ph.solve_k(CTX_FIT, 3.9e9)

    def test_grid_variant_marks_stopband(self):
        f = np.array([5.0e9, 6.5e9, 4.0e9])
        k = ph.solve_k_grid(CTX_FIT, f)
        assert not math.isnan(k[0])
        assert math.isnan(k[1]) and math.isnan(k[2])

    def test_mssw_band(self):
        c = ctx(mu0_ms=0.185, orientation=ph.Orientation.PERPENDICULAR)
        lo, hi = ph.band_limits(c)
        assert lo == pytest.approx(ph.fmr_frequency(c), rel=1e-12)
        k = ph.solve_k(c, 0.5 * (lo + hi))
        assert k > 0
        with pytest.raises(ph.BandError):
            ph.solve_k(c, 6.0e9)  # below the surface-wave band


class TestDamping:
    def test_rate_from_linewidth(self):
        # pi * 28e9 * 6.2e-5 by hand
        assert ph.damping_rate(CTX_FIT) == pytest.approx(5.4538e6, rel=1e-4)
        assert 1.0 / ph.damping_rate(CTX_FIT) == pytest.approx(183.4e-9, rel=1e-3)

    def test_lossless_film(self):
        assert ph.damping_rate(ctx(linewidth=0.0)) == 0.0

    def test_decay_length_at_carrier(self):
        k = ph.solve_k(CTX_FIT, 6.035e9)
        length = abs(ph.group_velocity(CTX_FIT, k)) / ph.damping_rate(CTX_FIT)
        assert length == pytest.approx(5.2e-3, rel=2e-2)


class TestScalingLaws:
    def test_gamma_homogeneity(self):
        c2 = ctx(gamma=2.0 * GAMMA)
        assert ph.fmr_frequency(c2) == pytest.approx(2 * ph.fmr_frequency(CTX_LIT),
                                                     rel=1e-12)
        k = np.logspace(2, 6, 20)
        np.testing.assert_allclose(ph.dispersion_f(c2, k),
                                   2 * ph.dispersion_f(CTX_LIT, k), rtol=1e-12)
        np.testing.assert_allclose(ph.group_velocity(c2, k),
                                   2 * ph.group_velocity(CTX_LIT, k), rtol=1e-12)
        assert ph.damping_rate(c2) == pytest.approx(2 * ph.damping_rate(CTX_LIT),
                                                    rel=1e-12)

    def test_solve_k_invariant_under_gamma_scaling(self):
        c2 = ctx(gamma=2.0 * GAMMA)
        f = ph.dispersion_f(CTX_LIT, 5.0e3)
        assert ph.solve_k(c2, 2 * f) == pytest.approx(ph.solve_k(CTX_LIT, f),
                                                      rel=1e-9)


class TestTypeInvariants:
    def test_film_validation(self):
        with pytest.raises(ValueError):
            ph.FilmParams(Ms=-1.0, d=5.4e-6)
        with pytest.raises(ValueError):
            ph.FilmParams(Ms=1.4e5, d=0.0)
        with pytest.raises(ValueError):
            ph.FilmParams(Ms=1.4e5, d=5.4e-6, mu0_dh0=-1e-5)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ph.BiasField(mu0_h=0.0)

    def test_derived_rates_never_stale(self):
        c = CTX_LIT
        c2 = c.with_ms(2 * c.film.Ms)
        assert c2.omega_m == pytest.approx(2 * c.omega_m, rel=1e-12)
        assert c2.omega_h == c.omega_h
