"""Numpy kernels of the film dispersion.

Lowest-thickness-mode magnetostatic dispersion of an in-plane magnetized
film, its analytic group velocity, the monotone wavenumber inversion, the
per-bin waveguide gain at solved wavenumbers and the detector's one-pole
low-pass.  All functions take flat float64 arrays plus scalar film
constants.

Conventions:
  wh = gamma * mu0*H       (rad/s)
  wm = gamma * mu0*Ms      (rad/s)
  d  = film thickness      (m)
  branch 0: wavevector parallel to the field (backward-volume wave,
            frequency falls with k)
  branch 1: wavevector perpendicular (surface wave, frequency rises
            with k)
"""

import math

import numpy as np

BRANCH_BV = 0
BRANCH_S = 1

# expm1 keeps P(x) exact down to x = 0, so its guard only dodges 0/0; the
# direct P'(x) expression cancels catastrophically below ~1e-3
_P_GUARD_X = 1e-12
_P_DERIV_SERIES_X = 1e-3
# Halley stops once its step is below RTOL*x + ATOL (x = k*d).  The cubic
# convergence makes the applied last step accurate far below RTOL; ATOL is
# the ~2 eps absolute noise of g(x) over g'(x) near the band edge x -> 0.
_HALLEY_RTOL = 1e-9
_HALLEY_ATOL = 8.0 * np.finfo(np.float64).eps
_HALLEY_MAX_ITER = 64


def _thin_film_factor(x):
    """P(x) = (1 - exp(-x)) / x, the dipolar thickness factor; P(0) = 1."""
    x = np.asarray(x, dtype=np.float64)
    small = x < _P_GUARD_X
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - 0.5 * x, -np.expm1(-safe) / safe)


def _thin_film_factor_deriv(x):
    """dP/dx = (exp(-x)*(1+x) - 1) / x**2; -1/2 at x = 0."""
    x = np.asarray(x, dtype=np.float64)
    small = x < _P_DERIV_SERIES_X
    safe = np.where(small, 1.0, x)
    # the series only for small x: the cubic overflows for x above ~1e102
    xs = np.where(small, x, 0.0)
    series = -0.5 + xs * (1.0 / 3.0 - xs * (0.125 - xs / 30.0))
    # x**2 overflows above ~1e154, where -1/x**2 -> -0 is the right limit
    with np.errstate(over="ignore"):
        return np.where(small, series, (np.exp(-safe) * (1.0 + safe) - 1.0) / safe**2)


def dispersion_f(k, wh, wm, d, branch):
    """Frequency (Hz) of the propagating mode at wavenumber k (rad/m)."""
    k = np.asarray(k, dtype=np.float64)
    if branch == BRANCH_BV:
        w2 = wh * (wh + wm * _thin_film_factor(k * d))
    else:
        w2 = wh * (wh + wm) + 0.25 * wm * wm * (-np.expm1(-2.0 * k * d))
    return np.sqrt(w2) / (2.0 * np.pi)


def group_velocity(k, wh, wm, d, branch):
    """Signed dw/dk (m/s); negative on the backward-volume branch.

    k = 0 returns the one-sided analytic limit:
      branch 0: -wh*wm*d / (4*w_fmr)
      branch 1: +wm**2*d / (4*w_fmr)
    """
    k = np.asarray(k, dtype=np.float64)
    w = 2.0 * np.pi * dispersion_f(k, wh, wm, d, branch)
    if branch == BRANCH_BV:
        dw2_dk = wh * wm * d * _thin_film_factor_deriv(k * d)
    else:
        dw2_dk = 0.5 * wm * wm * d * np.exp(-2.0 * k * d)
    return dw2_dk / (2.0 * w)


def band_edges(wh, wm, d, branch):
    """(f_lo, f_hi) bounds in Hz of the propagating band."""
    f_fmr = np.sqrt(wh * (wh + wm)) / (2.0 * np.pi)
    if branch == BRANCH_BV:
        return wh / (2.0 * np.pi), f_fmr
    f_top = np.sqrt(wh * (wh + wm) + 0.25 * wm * wm) / (2.0 * np.pi)
    return f_fmr, f_top


def _bv_thickness_root(p):
    """Root x > 0 of P(x) = p, i.e. -expm1(-x) = p*x, for each p in (0, 1).

    Halley's method on g(x) = -expm1(-x) - p*x, safeguarded by bisection
    inside the bracket (0, 2/p + 2] that every iterate narrows: g > 0 below
    the root and g < 0 above it.  A step that would leave the bracket is
    replaced by the bracket midpoint; left of the maximum of g, Halley
    heads for the trivial root x = 0 and is always caught this way.
    Convergence is tested on the Halley step before the safeguard, so a
    root found to rounding noise is never bisected away.

    Start: the smaller of 1/p (the p -> 0 asymptote, an upper bound) and
    the root of 1/P(x) ~ 1 + x/2 + x^2/12 (exact to O(x^3) as p -> 1).
    """
    lo = np.zeros_like(p)
    hi = 2.0 / p + 2.0  # g(hi) < 0
    q = (1.0 - p) / p
    x = np.minimum(1.0 / p, 12.0 * q / (3.0 + np.sqrt(9.0 + 12.0 * q)))
    done = np.zeros(p.shape, dtype=bool)
    for _ in range(_HALLEY_MAX_ITER):
        em = np.expm1(-x)
        g = -em - p * x
        g1 = 1.0 + em - p  # g'
        g2 = -(1.0 + em)  # g''
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = g / g1
            step = newton / (1.0 - 0.5 * newton * (g2 / g1))
        above = g > 0.0
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        cand = x - step
        inside = ((cand > lo) & (cand < hi)) | (g == 0.0)
        converged = inside & (np.abs(step) <= _HALLEY_RTOL * x + _HALLEY_ATOL)
        x = np.where(done, x, np.where(inside, cand, 0.5 * (lo + hi)))
        done |= converged
        if done.all():
            break
    return x


def solve_k(f, wh, wm, d, branch):
    """Invert the dispersion: wavenumber (rad/m) for each frequency (Hz).

    Surface branch: the closed form k = -log1p(-s)/(2d) with s the
    saturation of 1 - exp(-2kd).  Backward-volume branch: the thickness
    factor P(kd) = p is solved by safeguarded Halley iteration (see
    _bv_thickness_root).  Frequencies outside the open propagating band,
    negative ones included, give NaN.
    """
    f = np.asarray(f, dtype=np.float64)
    # targets that overflow (fields or frequencies beyond any film) or
    # divide by an underflowed wh*wm or wm^2 come out inf or NaN and fall
    # outside the band
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w2 = (2.0 * np.pi * f) ** 2
        if branch == BRANCH_BV:
            # target thickness factor p in (0, 1); x = k*d
            target = (w2 - wh * wh) / (wh * wm)
        else:
            # target saturation s in (0, 1); x = 2*k*d
            target = (w2 - wh * (wh + wm)) * 4.0 / (wm * wm)
    out = np.full(f.shape, np.nan)
    inband = (target > 0.0) & (target < 1.0) & (f > 0.0)
    if np.any(inband):
        # a wavenumber past the float range (a subnormal film thickness)
        # is out of band as well
        with np.errstate(over="ignore"):
            if branch == BRANCH_BV:
                k = _bv_thickness_root(target[inband]) / d
            else:
                k = -np.log1p(-target[inband]) / (2.0 * d)
        out[inband] = np.where(np.isinf(k), np.nan, k)
    return out


def lowpass_1pole(x, a, y0):
    """Single-pole IIR low-pass: y[n] = a*y[n-1] + (1-a)*x[n], y[-1] = y0.

    The sequential recurrence is unrolled in exponentially rescaled chunks
    so the scan stays vectorized without overflowing a**(-n).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    out = np.empty(n)
    if a <= 0.0:
        out[:] = (1.0 - a) * x
        return out
    # keep a**(-chunk) finite: |chunk * ln a| < 600
    chunk = max(1, min(4096, int(600.0 / max(1e-12, -math.log(a)))))
    carry = y0
    for start in range(0, n, chunk):
        xc = x[start:start + chunk]
        q = a ** np.arange(xc.size)
        z = np.cumsum(xc / q)
        yc = (a * q) * carry + (1.0 - a) * q * z
        out[start:start + xc.size] = yc
        carry = yc[-1]
    return out


def waveguide_gain(f, k, f_c, k_c, length, eta, wh, wm, d, branch):
    """Complex per-bin gain of a film segment of the given length.

    k holds the solved wavenumbers of f (NaN outside the band) and k_c that
    of the carrier f_c.  Carrier phase -k_c*length, envelope delay
    length/|vg(f)| applied to the offset from f_c, amplitude decay
    exp(-eta*length/|vg(f)|).  Bins outside the propagating band return
    exactly 0; length 0 returns 1 at every bin; an out-of-band carrier
    kills the whole segment.
    """
    f = np.asarray(f, dtype=np.float64)
    if length == 0.0:
        return np.ones(f.shape, dtype=np.complex128)
    if np.isnan(k_c):
        return np.zeros(f.shape, dtype=np.complex128)
    inband = ~np.isnan(k)
    vg = np.abs(group_velocity(np.where(inband, k, 0.0), wh, wm, d, branch))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = length / vg
        phase = -(k_c * length) - 2.0 * np.pi * (f - f_c) * tau
        mag = np.exp(-eta * tau)
        gain = mag * (np.cos(phase) + 1j * np.sin(phase))
    gain = np.where(inband & np.isfinite(gain), gain, 0.0)
    return gain.astype(np.complex128)
