"""Magnetostatic spin-wave physics of an in-plane magnetized garnet film.

Lowest-thickness-mode dispersion for the two in-plane geometries, the
uniform-precession frequency, analytic group velocity, damping from the
resonance linewidth, and the monotone inversion frequency -> wavenumber.
All quantities are SI; fields are given as mu0*H in tesla.

The dispersion branches:

  parallel field (backward-volume wave):
      f(k) = (1/2pi) * sqrt( wh * (wh + wm * P(k*d)) ),
      P(x) = (1 - exp(-x)) / x,  P(0) = 1
  perpendicular field (surface wave):
      f(k) = (1/2pi) * sqrt( wh*(wh + wm) + wm^2/4 * (1 - exp(-2*k*d)) )

with wh = gamma*mu0*H and wm = gamma*mu0*Ms.  The backward-volume branch
falls from the uniform-precession frequency at k = 0 towards wh/2pi,
so phase and group velocities are antiparallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ._kernels import BRANCH_BV, BRANCH_S, kernels

MU0 = 4.0e-7 * math.pi  # vacuum permeability (T*m/A)

#: gyromagnetic ratio for g ~ 2 (rad/s/T); overridable per film
GAMMA_DEFAULT = 2.0 * math.pi * 28.0e9


class BandError(ValueError):
    """Requested frequency lies outside the propagating band."""


class Orientation(Enum):
    """Static field direction relative to the waveguide axis."""

    PARALLEL = "parallel"  # backward-volume configuration
    PERPENDICULAR = "perpendicular"  # surface-wave configuration

    @property
    def branch(self) -> int:
        return BRANCH_BV if self is Orientation.PARALLEL else BRANCH_S


@dataclass(frozen=True)
class FilmParams:
    """Magnetic film constants.

    Ms : saturation magnetization (A/m)
    d : film thickness (m)
    gamma : gyromagnetic ratio (rad/s/T)
    mu0_dh0 : full ferromagnetic-resonance linewidth as mu0*dH0 (T)
    """

    Ms: float
    d: float
    gamma: float = GAMMA_DEFAULT
    mu0_dh0: float = 0.0

    def __post_init__(self):
        for name in ("Ms", "d", "gamma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.mu0_dh0 >= 0:
            raise ValueError("mu0_dh0 must be nonnegative")

    @classmethod
    def yig(cls, mu0_ms: float = 0.176, d: float = 5.4e-6,
            mu0_dh0: float = 6.2e-5, gamma: float = GAMMA_DEFAULT) -> "FilmParams":
        """Literature-default garnet film, 5.4 um thick.

        mu0*Ms = 0.176 T is the textbook room-temperature value; fit it to a
        measured uniform-precession frequency with :func:`calibrate_ms` when
        one is available.
        """
        return cls(Ms=mu0_ms / MU0, d=d, gamma=gamma, mu0_dh0=mu0_dh0)


@dataclass(frozen=True)
class BiasField:
    """Externally applied static field."""

    mu0_h: float = 0.1429
    orientation: Orientation = Orientation.PARALLEL

    def __post_init__(self):
        if not self.mu0_h > 0:
            raise ValueError("mu0_h must be positive")


@dataclass(frozen=True)
class ModeContext:
    """Film plus bias field; the argument of every dispersion call.

    The characteristic rates are derived on access so they can never go
    stale when a film or field is swapped out.
    """

    film: FilmParams
    field: BiasField

    @property
    def omega_h(self) -> float:
        return self.film.gamma * self.field.mu0_h

    @property
    def omega_m(self) -> float:
        return self.film.gamma * MU0 * self.film.Ms

    @property
    def branch(self) -> int:
        return self.field.orientation.branch

    def with_ms(self, ms: float) -> "ModeContext":
        return replace(self, film=replace(self.film, Ms=ms))


def fmr_frequency(ctx: ModeContext) -> float:
    """Uniform-precession (k = 0) frequency in Hz, common to both branches."""
    return math.sqrt(ctx.omega_h * (ctx.omega_h + ctx.omega_m)) / (2.0 * math.pi)


def calibrate_ms(ctx: ModeContext, f_target: float) -> float:
    """Saturation magnetization (A/m) that puts the k = 0 frequency at f_target.

    Closed form from wh*(wh + wm) = (2*pi*f)^2.  Raises BandError for a
    target at or below the bare Larmor frequency wh/2pi, where no
    nonnegative Ms can reach it, and for one so far above it that the
    needed Ms overflows.
    """
    wh = ctx.omega_h
    w_t = 2.0 * math.pi * f_target
    if w_t < wh or f_target <= 0:
        raise BandError(
            f"below-Larmor target: {f_target:.6g} Hz is unreachable at "
            f"mu0_h = {ctx.field.mu0_h:.6g} T"
        )
    # wh underflows to 0 for a subnormal gamma * mu0_h: no finite Ms then
    wm = (w_t * w_t - wh * wh) / wh if wh > 0 else math.inf
    ms = wm / (ctx.film.gamma * MU0)
    if not math.isfinite(ms):
        raise BandError(
            f"far-above-Larmor target: {f_target:.6g} Hz needs an infinite "
            f"magnetization at mu0_h = {ctx.field.mu0_h:.6g} T"
        )
    return ms


def _wavenumbers(k) -> np.ndarray:
    """k (rad/m, scalar or array) as a flat array; none may be negative."""
    k_arr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    if np.any(k_arr < 0):
        raise ValueError("k must be nonnegative")
    return k_arr


def dispersion_f(ctx: ModeContext, k):
    """Mode frequency (Hz) at wavenumber k (rad/m, scalar or array)."""
    f = kernels.dispersion_f(_wavenumbers(k), ctx.omega_h, ctx.omega_m,
                             ctx.film.d, ctx.branch)
    return float(f[0]) if np.isscalar(k) else f


def group_velocity(ctx: ModeContext, k):
    """Signed group velocity dw/dk (m/s) at k (rad/m, scalar or array).

    Negative on the backward-volume branch.  k = 0 is served by the
    one-sided analytic limit -wh*wm*d/(4*w_fmr) (parallel) or
    +wm^2*d/(4*w_fmr) (perpendicular).
    """
    v = kernels.group_velocity(_wavenumbers(k), ctx.omega_h, ctx.omega_m,
                               ctx.film.d, ctx.branch)
    return float(v[0]) if np.isscalar(k) else v


def band_limits(ctx: ModeContext) -> tuple[float, float]:
    """(f_lo, f_hi) of the open propagating band in Hz."""
    lo, hi = kernels.band_edges(ctx.omega_h, ctx.omega_m, ctx.film.d,
                                ctx.branch)
    return float(lo), float(hi)


def solve_k(ctx: ModeContext, f: float) -> float:
    """Unique wavenumber (rad/m) with dispersion_f(k) = f.

    Closed form -log1p(-s)/(2d) on the surface branch; safeguarded Halley
    iteration on the thickness factor P(kd) on the backward-volume branch.
    Raises BandError for a frequency outside the open band -- that error
    is the physical stopband.
    """
    k = kernels.solve_k(np.array([float(f)]), ctx.omega_h, ctx.omega_m,
                        ctx.film.d, ctx.branch)[0]
    if math.isnan(k):
        lo, hi = band_limits(ctx)
        raise BandError(
            f"no propagating mode at {f:.6g} Hz "
            f"(band {lo:.6g} .. {hi:.6g} Hz)"
        )
    return float(k)


def solve_k_grid(ctx: ModeContext, f) -> np.ndarray:
    """Vector solve_k; out-of-band entries are NaN instead of an error."""
    f_arr = np.atleast_1d(np.asarray(f, dtype=np.float64))
    return kernels.solve_k(f_arr, ctx.omega_h, ctx.omega_m, ctx.film.d,
                           ctx.branch)


def damping_rate(ctx: ModeContext) -> float:
    """Amplitude relaxation rate eta (1/s); free decay goes as exp(-eta*t).

    Half-linewidth convention: eta = gamma * mu0_dh0 / 2 with mu0_dh0 the
    full resonance linewidth.
    """
    return 0.5 * ctx.film.gamma * ctx.film.mu0_dh0
