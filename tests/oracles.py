"""Independent numerical oracles shared by the test modules.

These deliberately avoid the package's own inversion and derivative
paths: the wavenumber oracle is a plain-python bisection on the closed
form, and the group-velocity oracle is a five-point central difference
on dispersion_f with a step balancing truncation against the ~eps*f
cancellation floor.  The channel oracle multiplies the netlist element
by element, one film segment and one transducer at a time, which is the
product circuit.channel_transfer folds into a single evaluation.  The CSV
writer formats one value at a time with an f-string, as the package's
block formatter must reproduce byte for byte.
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


def chain_product(nl, channel, f, switch_closed=False):
    """Segment-by-segment gain from one source to the detector input."""
    f = np.atleast_1d(np.asarray(f, dtype=np.float64))
    f_c = nl.settings.f_c
    gain = np.ones(f.shape, dtype=np.complex128)
    for comp in (*nl.chains[channel], *nl.output):
        p = comp.params
        if comp.kind in ("attenuator", "bend"):
            gain = gain * 10.0 ** (-p.get("db", 0.0) / 20.0)
        elif comp.kind == "phase_shifter":
            gain = gain * np.exp(1j * p.get("rad", 0.0))
        elif comp.kind in ("transducer_in", "transducer_out"):
            coupling = 10.0 ** (p.get("gain_db", 0.0) / 20.0) * np.exp(
                1j * p.get("rad", 0.0))
            k = ph.solve_k_grid(nl.ctx, f)
            gain = gain * coupling * ct.transducer_efficiency(nl.geometry, k)
        elif comp.kind == "waveguide":
            k = ph.solve_k_grid(nl.ctx, f)
            k_c = ph.solve_k_grid(nl.ctx, f_c)[0]
            gain = gain * ct.waveguide_transfer(nl.ctx, p.get("m", 0.0), f, k,
                                                f_c, k_c)
        elif comp.kind == "delay_line" and switch_closed:
            # the delay line holds its phase at the carrier: tau = rad/w_c
            gain = gain * np.exp(-1j * p.get("rad", 0.0) * f / f_c)
    return gain + nl.settings.crosstalk[ct.CHANNELS.index(channel)]


def csv_table(header, *columns):
    """CSV text with each value written by f"{v:.12g}", row by row."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"
