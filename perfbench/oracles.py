"""Independent checks of the artifacts each benchmark job writes.

Nothing here calls into the package.  The closed forms are rederived from
the model the package documents (lowest-thickness-mode magnetostatic
dispersion, one-dimensional film segments, stripline antennas):

  backward volume:  w^2 = wh * (wh + wm * P(kd)),  P(x) = (1 - e^-x) / x
  surface:          w^2 = wh * (wh + wm) + wm^2/4 * (1 - e^(-2kd))

Each check returns a dict of the simulated results it read (so runs can
be compared number by number) and raises CheckError when an artifact
disagrees with its oracle.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.special import lambertw

CHANNELS = ("i1", "i2", "i3")
TRUTH_ROWS = 8

# transmission: relative |S21| agreement on sampled in-band bins
S21_RTOL = 1e-6
S21_SAMPLES = 64
S21_MIN_LIVE = 16
# dispersion: f(k) against the closed form, v_g against a difference of it
F_RTOL = 1e-9
VG_RTOL = 1e-6
# calibration residuals
IMBALANCE_ATOL = 1e-9
PHASE_ERR_MAX = 1e-4
# switch summary prints t_rise with 6 significant digits
PRINTED_RTOL = 1e-5
SCALE_R2_MIN = 0.999


class CheckError(AssertionError):
    """An artifact disagrees with its oracle."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _read_numeric_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def summary_fields(stdout: str) -> dict[str, str]:
    """key=value pairs of the one-line command summary."""
    out = {}
    for token in stdout.split():
        if "=" in token:
            key, value = token.split("=", 1)
            out[key] = value
    return out


# -- film model ------------------------------------------------------------

class Film:
    """Rates of one operating point, derived from the job's own parameters."""

    def __init__(self, mu0_h: float, fit_fmr_hz: float, thickness: float,
                 gamma: float, linewidth: float, surface: bool):
        self.wh = gamma * mu0_h
        w_t = 2.0 * math.pi * fit_fmr_hz
        self.wm = (w_t * w_t - self.wh * self.wh) / self.wh
        self.d = thickness
        self.eta = 0.5 * gamma * linewidth
        self.surface = surface

    def band(self) -> tuple[float, float]:
        f_fmr = math.sqrt(self.wh * (self.wh + self.wm)) / (2.0 * math.pi)
        if self.surface:
            top = math.sqrt(self.wh * (self.wh + self.wm)
                            + 0.25 * self.wm ** 2) / (2.0 * math.pi)
            return f_fmr, top
        return self.wh / (2.0 * math.pi), f_fmr

    def shape(self, k):
        """k-dependent factor of w^2: P(kd) or e^(-2kd)."""
        x = np.asarray(k, dtype=np.float64) * self.d
        if self.surface:
            return np.exp(-2.0 * x)
        small = x < 1e-8
        safe = np.where(small, 1.0, x)
        return np.where(small, 1.0 - 0.5 * x, -np.expm1(-safe) / safe)

    def omega2(self, k):
        g = self.shape(k)
        if self.surface:
            return self.wh * (self.wh + self.wm) + 0.25 * self.wm ** 2 * (1.0 - g)
        return self.wh * (self.wh + self.wm * g)

    def freq(self, k):
        return np.sqrt(self.omega2(k)) / (2.0 * math.pi)

    def vg_difference(self, k, rel_step: float = 1e-4):
        """Group velocity by a central difference of the k-dependent factor.

        Differencing only the varying factor avoids the cancellation of the
        large constant part of w^2.
        """
        k = np.asarray(k, dtype=np.float64)
        h = rel_step * k
        dg = (self.shape(k + h) - self.shape(k - h)) / (2.0 * h)
        if self.surface:
            dw2 = -0.25 * self.wm ** 2 * dg
        else:
            dw2 = self.wh * self.wm * dg
        return dw2 / (2.0 * np.sqrt(self.omega2(k)))

    def vg_exact(self, k):
        """Closed-form dw/dk, used for the channel product."""
        x = np.asarray(k, dtype=np.float64) * self.d
        w = np.sqrt(self.omega2(k))
        if self.surface:
            return 0.5 * self.wm ** 2 * self.d * np.exp(-2.0 * x) / (2.0 * w)
        # dP/dx by its Taylor series below 0.5, where the closed form cancels
        series = np.zeros_like(x)
        term_x = np.ones_like(x)
        fact = 1.0
        for n in range(1, 24):
            fact *= n + 1
            series += n * (-1.0) ** n * term_x / fact
            term_x = term_x * x
        safe = np.where(x < 0.5, 1.0, x)
        closed = (np.exp(-safe) * (1.0 + safe) - 1.0) / safe ** 2
        dp = np.where(x < 0.5, series, closed)
        return self.wh * self.wm * self.d * dp / (2.0 * w)

    def k_of(self, f):
        """Wavenumber of in-band frequencies; NaN outside the open band.

        Surface branch exactly: k = -log1p(-s) / (2d).  Backward-volume
        branch through the Lambert W function: P(x) = p has the nonzero
        root x = 1/p + W0(-e^(-1/p) / p).
        """
        f = np.asarray(f, dtype=np.float64)
        w2 = (2.0 * math.pi * f) ** 2
        out = np.full(f.shape, np.nan)
        if self.surface:
            s = (w2 - self.wh * (self.wh + self.wm)) * 4.0 / self.wm ** 2
            ok = (s > 0.0) & (s < 1.0)
            out[ok] = -np.log1p(-s[ok]) / (2.0 * self.d)
        else:
            p = (w2 - self.wh * self.wh) / (self.wh * self.wm)
            ok = (p > 0.0) & (p < 1.0)
            pp = p[ok]
            x = 1.0 / pp + lambertw(-np.exp(-1.0 / pp) / pp, 0).real
            out[ok] = x / self.d
        return out


# -- logic -----------------------------------------------------------------

def majority(bits) -> int:
    return 1 if sum(bits) >= 2 else 0


def _wrap(x: float) -> float:
    """Angle wrapped into (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def check_truthtable(out: Path, guard: float, phi0: float) -> dict:
    """Each decoded row equals the majority of its inputs.

    The decode margin is recomputed from the written output phase: the
    guard half-window minus the distance to the nearer code phase.
    """
    header, rows = _read_csv(out / "truthtable.csv")
    _require(len(rows) == TRUTH_ROWS, f"truthtable has {len(rows)} rows")
    col = {name: i for i, name in enumerate(header)}
    decoded, margins, amps = [], [], []
    for row in rows:
        bits = tuple(int(c) for c in row[col["state"]])
        got = row[col["decoded"]]
        _require(got == str(majority(bits)),
                 f"state {row[col['state']]} decoded {got}, majority is "
                 f"{majority(bits)}")
        phase = float(row[col["out_phase_rad"]])
        d0 = abs(_wrap(phase - phi0))
        d1 = abs(_wrap(phase - phi0 - math.pi))
        margins.append(guard - min(d0, d1))
        decoded.append(got)
        amps.append(float(row[col["out_amp"]]))
    worst = min(margins)
    _require(worst > 0.0, f"worst decode margin {worst} is not positive")
    return {"decoded": "".join(decoded), "worst_margin_rad": worst,
            "out_amp": amps}


def check_fulladder(out: Path) -> dict:
    """sum and cout of every row match integer addition."""
    header, rows = _read_csv(out / "fulladder.csv")
    _require(len(rows) == TRUTH_ROWS, f"fulladder has {len(rows)} rows")
    col = {name: i for i, name in enumerate(header)}
    amps = []
    for row in rows:
        a, b, cin, s, cout = (int(row[col[k]])
                              for k in ("a", "b", "cin", "sum", "cout"))
        total = a + b + cin
        _require((s, cout) == (total % 2, total // 2),
                 f"{a}+{b}+{cin} gave sum={s} cout={cout}")
        amps.append(float(row[col["gate_amp"]]))
    return {"gate_amp": amps}


def check_calibration(out: Path) -> dict:
    """Amplitude imbalance within 1e-9 of 1 and phase error below 1e-4 rad."""
    values = {}
    for line in (out / "calibration.txt").read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, raw = (p.strip() for p in line.split("=", 1))
            values[key] = float(raw)
    imbalance = values["residual.amplitude_imbalance"]
    phase_err = values["residual.phase_error_rad"]
    _require(abs(imbalance - 1.0) <= IMBALANCE_ATOL,
             f"amplitude imbalance {imbalance!r}")
    _require(0.0 <= phase_err < PHASE_ERR_MAX, f"phase error {phase_err!r}")
    return {
        "attenuator_db": [values[f"microwave.attenuator_db.{c}"] for c in CHANNELS],
        "phase_rad": [values[f"microwave.phase_rad.{c}"] for c in CHANNELS],
        "imbalance": imbalance, "phase_err_rad": phase_err,
    }


# -- spectrum --------------------------------------------------------------

def check_dispersion(out: Path, film: Film, n_points: int) -> dict:
    """f(k) matches the closed form and v_g a central difference of it."""
    data = _read_numeric_csv(out / "dispersion.csv")
    _require(data.shape == (n_points, 3), f"dispersion table {data.shape}")
    k, f, vg = data[:, 0], data[:, 1], data[:, 2]
    f_ref = film.freq(k)
    f_err = float(np.max(np.abs(f - f_ref) / f_ref))
    _require(f_err <= F_RTOL, f"f(k) off the closed form by {f_err:.3g}")
    vg_ref = film.vg_difference(k)
    vg_err = float(np.max(np.abs(vg - vg_ref) / np.abs(vg_ref)))
    _require(vg_err <= VG_RTOL, f"v_g off the difference by {vg_err:.3g}")
    picks = np.linspace(0, n_points - 1, 9).astype(int)
    return {"f_hz": f[picks].tolist(), "vg_m_per_s": vg[picks].tolist()}


def channel_s21(film: Film, p: dict, channel: int, f) -> np.ndarray:
    """|S21| of one input channel through the output chain, in closed form.

    Attenuator loss, coupling gains, two sinc antenna factors, a bend loss
    per skewed arm and exp(-eta L / |v_g|) for each film segment.  Phase
    shifters and the combiner have unit modulus.
    """
    k = film.k_of(f)
    vg = np.abs(film.vg_exact(k))
    scale = p["scale"]
    w_a = p["w_a_m"] * scale
    antenna = np.abs(np.sinc(k * w_a / 2.0 / math.pi))
    length = p["l_in_m"][channel] * scale + p["l_out_m"] * scale
    gain = 10.0 ** (-p["attenuator_db"][channel] / 20.0)
    gain *= 10.0 ** (p["coupling_db"][channel] / 20.0)
    gain *= 10.0 ** (p["output_coupling_db"] / 20.0)
    skew = p["l_skew_m"][channel] * scale
    if skew > 0.0:
        gain *= 10.0 ** (-p["bend_loss_db"] / 20.0)
        length += skew
    return gain * antenna ** 2 * np.exp(-film.eta * length / vg)


def check_transmission(out: Path, film: Film, p: dict) -> dict:
    """Sampled in-band |S21| against the closed-form channel product.

    Bins outside the band must sit exactly on the floor; bins within 1e-9
    (relative) of a band edge are left unchecked.
    """
    lo, hi = film.band()
    peaks = []
    for idx, ch in enumerate(CHANNELS):
        data = _read_numeric_csv(out / f"transmission_{ch}.csv")
        _require(data.shape == (p["n_points"], 2),
                 f"transmission_{ch} table {data.shape}")
        f, db = data[:, 0], data[:, 1]
        stop = (f < lo * (1 - 1e-9)) | (f > hi * (1 + 1e-9))
        _require(bool(np.all(db[stop] == p["floor_db"])),
                 f"{ch}: stopband bin above the floor")
        inner = (f > lo * (1 + 1e-9)) & (f < hi * (1 - 1e-9))
        live = np.nonzero(inner & (db > p["floor_db"] + 1.0))[0]
        _require(live.size >= S21_MIN_LIVE, f"{ch}: only {live.size} live bins")
        pick = np.unique(live[np.linspace(0, live.size - 1, S21_SAMPLES).astype(int)])
        ref = channel_s21(film, p, idx, f[pick])
        got = 10.0 ** (db[pick] / 20.0)
        err = float(np.max(np.abs(got - ref) / ref))
        _require(err <= S21_RTOL, f"{ch}: |S21| off the closed form by {err:.3g}")
        peaks.append(float(db.max()))
    return {"peak_db": peaks}


# -- transient -------------------------------------------------------------

def rise_time(v: np.ndarray, dt: float, plateau_fraction: float = 0.25) -> float:
    """1/3 -> 2/3 crossing interval of a detected low-to-high transition.

    Settled level: mean of the trailing plateau_fraction.  The pair is the
    last 1/3 crossing before the first 2/3 crossing, each interpolated
    linearly between samples.
    """
    n = v.size
    tail = max(1, int(round(plateau_fraction * n)))
    v_max = float(np.mean(v[n - tail:]))
    _require(v_max > 0.0, "settled level is zero")
    lo, hi = v_max / 3.0, 2.0 * v_max / 3.0
    above = np.nonzero(v >= hi)[0]
    _require(above.size > 0 and above[0] > 0, "2/3 level never crossed")
    j = int(above[0])
    below = np.nonzero(v[:j] <= lo)[0]
    _require(below.size > 0, "never below the 1/3 level")
    i = int(below[-1])
    t_lo = (i + (lo - v[i]) / (v[i + 1] - v[i])) * dt
    t_hi = (j - 1 + (hi - v[j - 1]) / (v[j] - v[j - 1])) * dt
    return float(t_hi - t_lo)


def check_switch(out: Path, stdout: str) -> dict:
    """t_rise is finite and positive and matches the written trace."""
    data = _read_numeric_csv(out / "switch_trace.csv")
    t, v = data[:, 0], data[:, 1]
    _require(bool(np.all(v >= 0.0)), "negative detector voltage")
    dt = (t[-1] - t[0]) / (t.size - 1)
    t_rise = rise_time(v, dt)
    printed = float(summary_fields(stdout)["t_rise_s"])
    _require(math.isfinite(t_rise) and t_rise > 0.0, f"t_rise {t_rise!r}")
    _require(abs(t_rise - printed) <= PRINTED_RTOL * t_rise,
             f"printed t_rise {printed!r}, trace gives {t_rise!r}")
    return {"t_rise_s": t_rise, "v_max": float(np.mean(v[-max(1, round(0.25 * v.size)):])),
            "samples": int(v.size)}


def linear_fit(x, y) -> tuple[float, float]:
    """Slope and R^2 of the least-squares line, from the normal equations."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xm, ym = x.mean(), y.mean()
    sxy = float(np.sum((x - xm) * (y - ym)))
    sxx = float(np.sum((x - xm) ** 2))
    syy = float(np.sum((y - ym) ** 2))
    return sxy / sxx, sxy * sxy / (sxx * syy)


def check_scale(out: Path, scales) -> dict:
    """Every scale yields a finite positive rise time, linear with r^2 >= 0.999.

    Slope and r^2 do not change when the ramp floor is subtracted from
    every rise time, so the written table alone fixes both.
    """
    header, rows = _read_csv(out / "scaling.csv")
    col = {name: i for i, name in enumerate(header)}
    _require(len(rows) == len(scales), f"scaling has {len(rows)} rows")
    x, y = [], []
    for row, s in zip(rows, scales):
        _require(row[col["flagged"]] == "false", f"scale {s} flagged")
        t = float(row[col["t_rise_s"]])
        _require(math.isfinite(t) and t > 0.0, f"scale {s}: t_rise {t!r}")
        x.append(float(row[col["scale"]]))
        y.append(t)
    slope, r2 = linear_fit(x, y)
    _require(r2 >= SCALE_R2_MIN, f"scaling r^2 {r2:.6f}")
    return {"t_rise_s": y, "slope_s": slope, "r_squared": r2}


def check_fit(path: float, target: float, rtol: float, trace: np.ndarray,
              dt: float) -> dict:
    """The fitted path, re-run, reproduces the target rise time within rtol."""
    _require(math.isfinite(path) and path > 0.0, f"fitted path {path!r}")
    t_rise = rise_time(trace, dt)
    err = abs(t_rise - target) / target
    _require(err <= rtol, f"fitted path gives t_rise {t_rise!r} for target "
                          f"{target!r} (rel {err:.3g} > {rtol})")
    return {"effective_path_m": path, "t_rise_s": t_rise}
