"""Independent numerical oracles shared by the test modules.

These deliberately avoid the package's own inversion and derivative
paths: the wavenumber oracle is a plain-python bisection on the closed
form, and the group-velocity oracle is a five-point central difference
on dispersion_f with a step balancing truncation against the ~eps*f
cancellation floor.  The channel oracle multiplies the gate element by
element, one film segment and one transducer at a time, which is the
product circuit.channel_transfer folds into a single evaluation.  The CSV
writer formats one value at a time with an f-string, as the package's
block formatter must reproduce byte for byte.  The ideal delay is the
transfer function whose spectral application must equal a time shift.
"""

import math

import numpy as np

from spingate import circuit as ct
from spingate import physics as ph


def bisect_k(ctx, f_target, lo=0.0, hi=1.0e7, iters=200):
    """Package-free bisection for the backward-volume branch."""
    wh, wm, d = ctx.omega_h, ctx.omega_m, ctx.film.d

    def freq(k):
        x = k * d
        p = 1.0 if x == 0 else (1.0 - math.exp(-x)) / x
        return math.sqrt(wh * (wh + wm * p)) / (2.0 * math.pi)

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if freq(mid) > f_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_group_velocity(ctx, k):
    """Five-point central difference of dispersion_f, in rad*m/s units."""
    k = np.asarray(k, dtype=np.float64)
    h = np.minimum(0.4 * k, 2000.0)
    f = ph.dispersion_f
    stencil = (f(ctx, k - 2 * h) - 8.0 * f(ctx, k - h)
               + 8.0 * f(ctx, k + h) - f(ctx, k + 2 * h))
    return 2.0 * math.pi * stencil / (12.0 * h)


def chain_product(nl, channel, f):
    """Element-by-element gain from one source to the detector input.

    The arm is rebuilt from the geometry and the settings, not from the
    record's summed lengths or constants: attenuator, phase shifter,
    excitation antenna, input segment, bend and skew segment where the
    skew is nonzero, output segment and detection antenna, each film
    segment and each antenna multiplied in on its own.
    """
    f = np.atleast_1d(np.asarray(f, dtype=np.float64))
    i = ct.CHANNELS.index(channel)
    geo, s = nl.geometry, nl.settings
    k = ph.solve_k_grid(nl.ctx, f)
    k_c = ph.solve_k_grid(nl.ctx, s.f_c)[0]

    def loss(db):
        return 10.0 ** (-db / 20.0)

    def antenna(gain_db, rad):
        return (10.0 ** (gain_db / 20.0) * np.exp(1j * rad)
                * ct.transducer_efficiency(geo, k))

    def segment(length):
        return ct.waveguide_transfer(nl.ctx, length, f, k, s.f_c, k_c)

    elements = [loss(s.attenuator_db[i]), np.exp(1j * s.phase_rad[i]),
                antenna(s.coupling_db[i], s.coupling_phase_rad[i]),
                segment(geo.l_in[i] * geo.scale)]
    if geo.l_skew[i] * geo.scale > 0.0:
        elements += [loss(geo.bend_loss_db), segment(geo.l_skew[i] * geo.scale)]
    elements += [segment(geo.l_out * geo.scale),
                 antenna(s.output_coupling_db, 0.0)]
    gain = np.ones(f.shape, dtype=np.complex128)
    for element in elements:
        gain = gain * element
    return gain


def delay(tau):
    """Ideal delay: gain exp(-i*2*pi*f*tau) at absolute frequency f."""
    return lambda f: np.exp(-2j * math.pi * f * tau)


def csv_table(header, *columns):
    """CSV text with each value written by f"{v:.12g}", row by row."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"
