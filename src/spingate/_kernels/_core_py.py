"""Numpy kernels of the film dispersion.

Lowest-thickness-mode magnetostatic dispersion of an in-plane magnetized
film, its analytic group velocity, the monotone wavenumber inversion, the
per-bin waveguide gain at solved wavenumbers and the detector's one-pole
low-pass.  All functions take flat float64 arrays plus scalar film
constants.

A one-point input to solve_k, dispersion_f or group_velocity takes a
Python-float transcription of the array formulas, selected by input
size alone: the gate's carrier is one point, every spectrum grid many.
The transcription applies the same operations in the same order.
+ - * / are correctly rounded in Python and numpy alike, and a division
by zero is handed to numpy; sqrt, expm1, exp and log1p are numpy ufunc
calls on one Python float, which numpy evaluates as a one-element array
through the loop an array runs (numpy's SIMD loops may differ from
math's in the last bit).  So a one-point result is bit for bit that
point of a grid.

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
_HALLEY_ATOL = 8.0 * float(np.finfo(np.float64).eps)
_HALLEY_MAX_ITER = 64
_FLOAT_MAX = float(np.finfo(np.float64).max)


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
    # x = inf (a k*d past the float range) as the largest float, whose
    # exp(-x)*(1+x) is 0 where inf's is 0*inf = NaN; -1/x**2 is -0 at both
    safe = np.where(small, 1.0, np.minimum(x, _FLOAT_MAX))
    # the series only for small x: the cubic overflows for x above ~1e102
    xs = np.where(small, x, 0.0)
    series = -0.5 + xs * (1.0 / 3.0 - xs * (0.125 - xs / 30.0))
    # x**2 overflows above ~1e154, where -1/x**2 -> -0 is the right limit
    with np.errstate(over="ignore"):
        return np.where(small, series, (np.exp(-safe) * (1.0 + safe) - 1.0) / safe**2)


def _thin_film_factor_point(x: float) -> float:
    """_thin_film_factor at one float."""
    if x < _P_GUARD_X:
        return 1.0 - 0.5 * x
    return -float(np.expm1(-x)) / x


def _thin_film_factor_deriv_point(x: float) -> float:
    """_thin_film_factor_deriv at one float."""
    if x < _P_DERIV_SERIES_X:
        return -0.5 + x * (1.0 / 3.0 - x * (0.125 - x / 30.0))
    # min keeps a NaN x, as np.minimum does
    safe = min(x, _FLOAT_MAX)
    return (float(np.exp(-safe)) * (1.0 + safe) - 1.0) / (safe * safe)


def _quotient(a: float, b: float) -> float:
    """a / b, with numpy's signed inf or NaN (and warning) for b = 0."""
    return a / b if b else float(np.divide(a, b))


def _quiet_quotient(a: float, b: float) -> float:
    """a / b, with numpy's signed inf or NaN for b = 0 and no warning, as
    the array forms divide under np.errstate."""
    if b:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(a, b))


def _one_point(value: float, like: np.ndarray) -> np.ndarray:
    """value as a float64 array of the one-point shape of like."""
    return np.array(value, ndmin=like.ndim)


def _dispersion_f_point(k: float, wh, wm, d, branch) -> float:
    """dispersion_f at one float k."""
    if branch == BRANCH_BV:
        w2 = wh * (wh + wm * _thin_film_factor_point(k * d))
    else:
        w2 = wh * (wh + wm) + 0.25 * wm * wm * (-float(np.expm1(-2.0 * k * d)))
    return float(np.sqrt(w2)) / (2.0 * np.pi)


def dispersion_f(k, wh, wm, d, branch):
    """Frequency (Hz) of the propagating mode at wavenumber k (rad/m).

    A k*d past the float range is inf, where both branches take their
    large-kd limit: wh/2pi (P(inf) = 0) and the surface band's top.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.size == 1:
        return _one_point(_dispersion_f_point(k.item(), wh, wm, d, branch), k)
    with np.errstate(over="ignore"):
        if branch == BRANCH_BV:
            w2 = wh * (wh + wm * _thin_film_factor(k * d))
        else:
            w2 = wh * (wh + wm) + 0.25 * wm * wm * (-np.expm1(-2.0 * k * d))
    return np.sqrt(w2) / (2.0 * np.pi)


def group_velocity(k, wh, wm, d, branch, f=None):
    """Signed dw/dk (m/s); negative on the backward-volume branch.

    k = 0 returns the one-sided analytic limit:
      branch 0: -wh*wm*d / (4*w_fmr)
      branch 1: +wm**2*d / (4*w_fmr)
    f is dispersion_f at k, computed here unless the caller has it.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.size == 1:
        return _one_point(_group_velocity_point(
            k.item(), wh, wm, d, branch,
            None if f is None else np.asarray(f).item()), k)
    if f is None:
        f = dispersion_f(k, wh, wm, d, branch)
    w = 2.0 * np.pi * f
    del f
    # a k*d past the float range is inf, where the factor of kd takes its
    # limit: -0 (P'(inf)) or 0 (exp(-inf)), so v_g is 0 there
    with np.errstate(over="ignore"):
        if branch == BRANCH_BV:
            rates, of_kd = wh * wm, _thin_film_factor_deriv(k * d)
        else:
            rates, of_kd = 0.5 * wm * wm, np.exp(-2.0 * k * d)
    if math.isinf(rates * d):
        # a film so thick that rates*d overflows where the factor of kd
        # vanishes, and inf*0 is NaN: d times that factor first gives the
        # large-kd limit (and inf where the product does overflow)
        with np.errstate(over="ignore"):
            dw2_dk = rates * (d * of_kd)
    else:
        dw2_dk = rates * d * of_kd
    del of_kd
    # dw2_dk / (2*w), in place
    w *= 2.0
    return np.divide(dw2_dk, w, out=dw2_dk)


def _group_velocity_point(k: float, wh, wm, d, branch, f=None) -> float:
    """group_velocity at one float k."""
    if f is None:
        f = _dispersion_f_point(k, wh, wm, d, branch)
    w = 2.0 * np.pi * f
    if branch == BRANCH_BV:
        rates, of_kd = wh * wm, _thin_film_factor_deriv_point(k * d)
    else:
        rates, of_kd = 0.5 * wm * wm, float(np.exp(-2.0 * k * d))
    if math.isinf(rates * d):
        dw2_dk = rates * (d * of_kd)
    else:
        dw2_dk = rates * d * of_kd
    return _quotient(dw2_dk, w * 2.0)


def band_edges(wh, wm, d, branch):
    """(f_lo, f_hi) bounds in Hz of the propagating band."""
    f_fmr = np.sqrt(wh * (wh + wm)) / (2.0 * np.pi)
    if branch == BRANCH_BV:
        return wh / (2.0 * np.pi), f_fmr
    f_top = np.sqrt(wh * (wh + wm) + 0.25 * wm * wm) / (2.0 * np.pi)
    return f_fmr, f_top


# one errstate per call: the Halley step divides by g' = 0 at the maximum
# of g, and the bracket of a subnormal p overflows
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
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
    A p so small that 2/p overflows starts at NaN and stays there.
    """
    lo = np.zeros_like(p)
    hi = 2.0 / p + 2.0  # g(hi) < 0
    q = (1.0 - p) / p
    x = np.minimum(1.0 / p, 12.0 * q / (3.0 + np.sqrt(9.0 + 12.0 * q)))
    del q
    # the iteration works in place, on five float and three bool buffers,
    # each operation the one of the formula in its comment
    em, g, g1, step, cand = (np.empty_like(p) for _ in range(5))
    done = np.zeros(p.shape, dtype=bool)
    above, inside, keep = (np.empty(p.shape, dtype=bool) for _ in range(3))
    for _ in range(_HALLEY_MAX_ITER):
        np.expm1(np.negative(x, out=em), out=em)  # em = expm1(-x)
        np.subtract(np.negative(em, out=g), np.multiply(p, x, out=g1),
                    out=g)  # g = -em - p*x
        np.subtract(np.add(1.0, em, out=g1), p, out=g1)  # g' = 1 + em - p
        np.negative(np.add(1.0, em, out=em), out=em)  # g'' = -(1 + em)
        # step = newton / (1 - 0.5*newton*(g''/g'))
        newton = np.divide(g, g1, out=cand)
        np.divide(em, g1, out=em)
        np.multiply(np.multiply(0.5, newton, out=step), em, out=step)
        np.divide(newton, np.subtract(1.0, step, out=step), out=step)
        np.greater(g, 0.0, out=above)
        np.copyto(lo, x, where=above)
        np.copyto(hi, x, where=np.logical_not(above, out=above))
        np.subtract(x, step, out=cand)
        # inside = (lo < cand < hi) | (g == 0)
        np.logical_and(np.greater(cand, lo, out=inside),
                       np.less(cand, hi, out=above), out=inside)
        np.logical_or(inside, np.equal(g, 0.0, out=above), out=inside)
        # converged = inside & (|step| <= RTOL*x + ATOL)
        np.add(np.multiply(_HALLEY_RTOL, x, out=g1), _HALLEY_ATOL, out=g1)
        np.logical_and(inside, np.less_equal(np.abs(step, out=step), g1,
                                             out=above), out=above)
        # x = x where done, else cand where inside, else the bracket midpoint
        np.multiply(0.5, np.add(lo, hi, out=g1), out=g1)
        np.copyto(g1, cand, where=inside)
        np.copyto(x, g1, where=np.logical_not(done, out=keep))
        done |= above
        if done.all():
            break
    return x


def _bv_thickness_root_point(p: float) -> float:
    """_bv_thickness_root at one float p: the same iteration on floats,
    returning the first converged iterate."""
    lo = 0.0
    hi = 2.0 / p + 2.0
    q = (1.0 - p) / p
    start = 12.0 * q / (3.0 + float(np.sqrt(9.0 + 12.0 * q)))
    # np.minimum: the smaller, or NaN if start is NaN
    x = 1.0 / p if 1.0 / p < start else start
    for _ in range(_HALLEY_MAX_ITER):
        em = float(np.expm1(-x))
        g = -em - p * x
        g1 = (1.0 + em) - p
        newton = _quiet_quotient(g, g1)
        step = 0.5 * newton * _quiet_quotient(-(1.0 + em), g1)
        step = _quiet_quotient(newton, 1.0 - step)
        if g > 0.0:
            lo = x
        else:
            hi = x
        cand = x - step
        if (lo < cand < hi) or g == 0.0:
            if abs(step) <= _HALLEY_RTOL * x + _HALLEY_ATOL:
                return cand
            x = cand
        else:
            x = 0.5 * (lo + hi)
    return x


def _solve_k_point(f: float, wh, wm, d, branch) -> float:
    """solve_k at one float f."""
    w = 2.0 * np.pi * f
    w2 = w * w
    # a zero divisor (an underflowed wh*wm or wm^2) gives an inf or NaN
    # target, out of band
    if branch == BRANCH_BV:
        scale = wh * wm
        target = (w2 - wh * wh) / scale if scale else math.nan
    else:
        scale = wm * wm
        target = (w2 - wh * (wh + wm)) * 4.0 / scale if scale else math.nan
    if not (target > 0.0 and target < 1.0 and f > 0.0):
        return math.nan
    if branch == BRANCH_BV:
        k = _bv_thickness_root_point(target) / d
    else:
        k = -float(np.log1p(-target)) / (2.0 * d)
    return math.nan if math.isinf(k) else k


def solve_k(f, wh, wm, d, branch):
    """Invert the dispersion: wavenumber (rad/m) for each frequency (Hz).

    Surface branch: the closed form k = -log1p(-s)/(2d) with s the
    saturation of 1 - exp(-2kd).  Backward-volume branch: the thickness
    factor P(kd) = p is solved by safeguarded Halley iteration (see
    _bv_thickness_root).  Frequencies outside the open propagating band,
    negative ones included, give NaN.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.size == 1:
        return _one_point(_solve_k_point(f.item(), wh, wm, d, branch), f)
    # targets that overflow (fields or frequencies beyond any film) or
    # divide by an underflowed wh*wm or wm^2 come out inf or NaN and fall
    # outside the band
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # w2 = (2*pi*f)^2, turned into the target in place
        target = np.square(np.multiply(2.0 * np.pi, f), out=np.empty(f.shape))
        if branch == BRANCH_BV:
            # target thickness factor p in (0, 1); x = k*d
            np.divide(np.subtract(target, wh * wh, out=target), wh * wm,
                      out=target)
        else:
            # target saturation s in (0, 1); x = 2*k*d
            np.divide(np.multiply(np.subtract(target, wh * (wh + wm), out=target),
                                  4.0, out=target), wm * wm, out=target)
    inband = (target > 0.0) & (target < 1.0) & (f > 0.0)
    # the in-band targets, then their wavenumbers
    k = target[inband]
    del target
    if k.size:
        # a wavenumber past the float range (a subnormal film thickness)
        # is out of band as well
        with np.errstate(over="ignore"):
            if branch == BRANCH_BV:
                k = np.divide(_bv_thickness_root(k), d)
            else:
                k = -np.log1p(-k) / (2.0 * d)
        k[np.isinf(k)] = np.nan
    # made after the solve, so that the output is not held beside the
    # Halley iteration's buffers
    out = np.full(f.shape, np.nan)
    out[inband] = k
    return out


def lowpass_1pole(x, a, y0):
    """Single-pole IIR low-pass: y[n] = a*y[n-1] + (1-a)*x[n], y[-1] = y0,
    for 0 < a <= 1.

    The sequential recurrence is unrolled in exponentially rescaled chunks
    so the scan stays vectorized without overflowing a**(-n); the powers
    of a and the two weights are computed once per call.  y is written
    over x, a float64 array, and returned: each chunk of x is read before
    it is overwritten.
    """
    n = x.size
    # keep a**(-chunk) finite: |chunk * ln a| < 600
    chunk = max(1, min(4096, int(600.0 / max(1e-12, -math.log(a)))))
    q = a ** np.arange(min(chunk, n))
    carry_weight = a * q
    input_weight = (1.0 - a) * q
    carry = y0
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        z = np.cumsum(x[start:start + m] / q[:m])
        x[start:start + m] = carry_weight[:m] * carry + input_weight[:m] * z
        carry = x[start + m - 1]
    return x


def waveguide_gain(k, speed, k_c, length, eta, branch):
    """Complex per-bin gain of a film segment of the given length.

    k and speed hold the solved wavenumber and the group speed |v_g| of
    each bin (NaN outside the band), k_c the carrier's wavenumber.  Phase
    -k_c*length + s*(k - k_c)*length, s = +1 on the backward-volume branch
    and -1 on the surface branch, whose group delay -dphase/domega is
    length/|v_g| on both; amplitude decay exp(-eta*length/speed).  Bins
    outside the propagating band return exactly 0; length 0 returns 1 at
    every bin; an out-of-band carrier kills the whole segment.  length may
    be an array that broadcasts against k (say one length per channel),
    and the result has the broadcast shape.
    """
    k = np.asarray(k, dtype=np.float64)
    length = np.asarray(length, dtype=np.float64)
    s = 1.0 if branch == BRANCH_BV else -1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a NaN k_c makes every bin NaN, zeroed below
        phase = -(k_c * length) + s * (k - k_c) * length
        gain = np.exp(-eta * (length / speed)) * (np.cos(phase) + 1j * np.sin(phase))
    gain[~np.isfinite(gain)] = 0.0
    if not length.all():
        np.copyto(gain, 1.0, where=length == 0.0)
    return gain
