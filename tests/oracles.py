"""Independent numerical oracles shared by the test modules.

These deliberately avoid the package's own inversion and derivative
paths: the wavenumber oracle is a plain-python bisection on the closed
form, and the group-velocity oracle is a five-point central difference
on dispersion_f with a step balancing truncation against the ~eps*f
cancellation floor.  The channel oracle multiplies the gate element by
element, one film segment and one transducer at a time, which is the
product circuit.channel_transfer folds into a single evaluation; each
segment is written out from k, the group velocity and the damping rate.  The CSV
writer formats one value at a time with an f-string, as the package's
block formatter must reproduce byte for byte.  The calibration oracles
level and align given gains by the closed forms of the bench procedure.
The ideal delay is the transfer function whose spectral application must
equal a time shift.
The transit fill has two oracles: its spectral form, applied by FFT, and
the continuous moving average of the analytic step-phase drive with the
ramp integrated by adaptive quadrature.  Two adapters give the signal
layer's block-streamed drive and detector a whole-window form: the drive
window as one array, and the detection of one envelope.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad

from spingate import circuit as ct
from spingate import physics as ph
from spingate import signal as sig


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


def group_speed(ctx, k):
    """|v_g| at the solved wavenumbers k, NaN where k is (the stopband)."""
    k = np.asarray(k, dtype=np.float64)
    return np.where(np.isnan(k), np.nan,
                    np.abs(ph.group_velocity(ctx, np.nan_to_num(k))))


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
    velocity = ph.group_velocity(nl.ctx, np.nan_to_num(k))
    film = nl.ctx.film
    eta = 0.5 * film.gamma * film.mu0_dh0

    def loss(db):
        return 10.0 ** (-db / 20.0)

    def antenna(gain_db, rad):
        return (10.0 ** (gain_db / 20.0) * np.exp(1j * rad)
                * ct.transducer_efficiency(geo, k))

    def segment(length):
        # phase -k_c*L off the carrier by -sign(v_g)*(k - k_c)*L, whose
        # -dphase/domega is the group delay L/|v_g|; decay over that delay
        if length == 0.0:
            return np.ones(f.shape)
        phase = -k_c * length - np.sign(velocity) * (k - k_c) * length
        gain = np.exp(-eta * length / np.abs(velocity) + 1j * phase)
        return np.where(np.isnan(k) | np.isnan(k_c), 0.0, gain)

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


def leveled_attenuation(attenuator_db, gains):
    """Attenuator settings that level the gains: each channel's setting
    plus 20*log10(|g_i| / min|g|)."""
    mags = [abs(complex(g)) for g in gains]
    return tuple(db + 20.0 * math.log10(m / min(mags))
                 for db, m in zip(attenuator_db, mags))


def aligned_phases(phase_rad, gains):
    """Shifter settings that align i1 and i3 with i2 at the gains:
    phase_i + arg(g2 / g_i), wrapped to (-pi, pi], and i2's setting
    wrapped."""
    g2 = complex(gains[1])
    return tuple(cmath.phase(cmath.rect(1.0, rad + cmath.phase(g2 / complex(g))))
                 for rad, g in zip(phase_rad, gains))


def delay(tau):
    """Ideal delay: gain exp(-i*2*pi*f*tau) at absolute frequency f."""
    return lambda f: np.exp(-2j * math.pi * f * tau)


def csv_table(header, *columns):
    """CSV text with each value written by f"{v:.12g}", row by row."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def transit_fill_factor(fill, f_c):
    """Spectral form of the transit fill: the causal moving average over
    fill seconds, sinc(df*fill)*exp(-i*pi*df*fill) at offset df from the
    carrier, exactly 1 at the carrier and for zero fill."""
    def gain(f):
        df = np.asarray(f, dtype=np.float64) - f_c
        return np.sinc(df * fill) * np.exp(-1j * math.pi * df * fill)

    return gain


def step_phase_moving_average(amplitude, phase_a, phase_b, t_toggle, ramp,
                              fill, t):
    """(1/fill) * integral over [t - fill, t] of the continuous drive.

    The drive is amplitude*exp(i*phi) with phi ramping from phase_a to
    phase_b along a raised cosine over [t_toggle, t_toggle + ramp] and
    constant on either side, also before t = 0.  The constant pieces are
    integrated exactly; the ramp by scipy's quad from its start to each
    point where some [t - fill, t] starts or ends inside it (from the
    start, so that no interval shrinks to a few ulps).
    """
    t = np.asarray(t, dtype=np.float64)

    def drive(u):
        phase = phase_a + (phase_b - phase_a) * 0.5 * (1.0 - math.cos(math.pi * u))
        return amplitude * complex(math.cos(phase), math.sin(phase))

    a0, a1 = drive(0.0), drive(1.0)
    # ramp fraction of every interval end, and the ramp integral up to each
    u = np.unique(np.clip(np.concatenate([t, t - fill]) - t_toggle, 0.0, ramp) / ramp)
    ramp_integral = ramp * np.array([
        quad(drive, 0.0, end, complex_func=True, epsabs=1e-12 * abs(amplitude),
             epsrel=1e-12)[0]
        for end in u])

    def integral(s):
        # integral of drive - a0 from before the toggle up to s
        inside = np.clip(s - t_toggle, 0.0, ramp)
        ramp_part = ramp_integral[np.searchsorted(u, inside / ramp)] - a0 * inside
        return ramp_part + (a1 - a0) * np.maximum(s - t_toggle - ramp, 0.0)

    return a0 + (integral(t) - integral(t - fill)) / fill


def drive_window(*args, **kwargs):
    """The window of signal.step_phase_drive as one array, its blocks
    concatenated (empty for an empty window)."""
    return np.concatenate([np.empty(0, np.complex128),
                           *sig.step_phase_drive(*args, **kwargs)])


def detect(env, lp_cutoff=5.0e8, responsivity=1.0):
    """signal.diode_detect on the samples of one envelope."""
    return sig.diode_detect([env.samples], len(env), env.dt, lp_cutoff,
                            responsivity)
