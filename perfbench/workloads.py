"""Seeded job streams of the two workloads.

A job is one CLI command (a generated config file plus flags) or one
public procedure call.  Job parameters come from a low-discrepancy
(additive-recurrence) sequence whose offset is drawn from the seed: every
seed gives other inputs, yet any prefix of a stream covers the parameter
ranges evenly, so latency quantiles of a run do not hinge on a lucky draw.

Why these workloads:
  gate      everything that calibrates a gate at its carrier: calibrate,
            truthtable and fulladder (hundreds of one-element wavenumber
            solves, no envelope work) plus switch at 2^12-2^17 samples,
            the scaling sweep and the effective-path fit (the signal layer,
            the path-fit bisection, per-scale recalibration).  The target
            of carrier caching and of a faster scalar inversion.
  spectrum  transmission and dispersion on dense grids (4k-32k points)
            whose spans cross both band edges.  The same inversion kernel
            in grid mode, plus CSV formatting, and no calibration: carrier
            caching should not move it, and a change that helps one
            inversion mode at the other's cost shows as a split between
            the two workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from oracles import Film

GAMMA = 2.0 * math.pi * 28.0e9
DURATION_S = 4.096e-7
SCALES = (1.0, 0.5, 0.2, 0.1, 0.05)
FIT_RTOL = 1e-3
GUARD_RAD = 0.5 * math.pi - 0.01

# The reference operating point (configs/reference.txt).  Every value an
# oracle relies on is written into each job's config explicitly.
REFERENCE = {
    "film.mu0_ms_t": 0.176,
    "film.thickness_m": 5.4e-6,
    "film.gamma_rad_per_s_t": GAMMA,
    "film.linewidth_t": 6.2e-5,
    "film.fit_fmr_hz": 6.06e9,
    "field.mu0_h_t": 0.1429,
    "geometry.w_a_m": 7.5e-5,
    "geometry.l_in_m": (10.0e-3, 10.0e-3, 10.0e-3),
    "geometry.l_skew_m": (6.0e-3, 0.0, 6.0e-3),
    "geometry.l_out_m": 10.0e-3,
    "geometry.bend_loss_db": 3.0,
    "microwave.output_coupling_db": 0.0,
    "microwave.drive_amplitude": 1.0,
    "encoding.phi0_rad": 0.0,
    "encoding.guard_rad": GUARD_RAD,
    "detector.lp_cutoff_hz": 5.0e8,
    "detector.responsivity_v": 1.0,
    "switching.duration_s": DURATION_S,
    # deep enough that the closed-form check reaches far into the lossy
    # part of the band
    "spectrum.floor_db": -150.0,
}

# carrier ranges verified to calibrate and decode at the reference field
FC_RANGE = {"bvmsw": (5.90e9, 6.05e9), "mssw": (6.08e9, 6.20e9)}
N_GRID = (4096, 32768)
N_SWITCH = (2 ** 12, 2 ** 17)
N_SWEEP = (2 ** 12, 2 ** 13)


@dataclass
class Job:
    kind: str
    config: dict
    mode: str
    f_c: float
    extra: dict = field(default_factory=dict)

    def config_text(self) -> str:
        lines = []
        for key, value in sorted(self.config.items()):
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ",".join(repr(float(v)) for v in value)
            elif isinstance(value, (int, str)):
                text = str(value)
            else:
                text = repr(float(value))
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    def film(self) -> Film:
        c = self.config
        return Film(c["field.mu0_h_t"], c["film.fit_fmr_hz"],
                    c["film.thickness_m"], c["film.gamma_rad_per_s_t"],
                    c["film.linewidth_t"], surface=self.mode == "mssw")

    def oracle_params(self) -> dict:
        c = self.config
        return {
            "scale": c["geometry.scale"], "w_a_m": c["geometry.w_a_m"],
            "l_in_m": c["geometry.l_in_m"], "l_skew_m": c["geometry.l_skew_m"],
            "l_out_m": c["geometry.l_out_m"],
            "bend_loss_db": c["geometry.bend_loss_db"],
            "attenuator_db": c["microwave.attenuator_db"],
            "coupling_db": c["microwave.coupling_db"],
            "output_coupling_db": c["microwave.output_coupling_db"],
            "n_points": c.get("spectrum.n_points"),
            "floor_db": c["spectrum.floor_db"],
        }

    def describe(self) -> dict:
        return {"kind": self.kind, "mode": self.mode, "f_c_hz": self.f_c,
                "config": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in sorted(self.config.items())},
                **self.extra}


# Per-dimension steps frac(sqrt(p)): quadratic irrationals, independent
# over the rationals, each far from 0 and 1 so every one-dimensional
# projection mixes within a few jobs.  Dimension 15 (the job size in every
# builder that has one) gets the step closest to the golden ratio.
# Dimension 0 (the dispersion branch in every builder) steps by 1/2, so
# each kind alternates branches exactly: a backward-volume truth table
# takes about 1.6x a surface one, and an exact split keeps the job mix of
# every seed alike.
_PRIMES = (2, 3, 5, 7, 11, 19, 23, 29, 31, 41, 43, 53, 59, 71, 73, 13, 89, 107)


class Sequence:
    """Additive-recurrence points in [0, 1)^dims with a seeded offset."""

    def __init__(self, seed: int, salt: int, dims: int):
        self.alpha = np.sqrt(np.array(_PRIMES[:dims], dtype=np.float64)) % 1.0
        self.alpha[0] = 0.5
        self.offset = np.random.default_rng([seed, salt]).random(dims)

    def __getitem__(self, i: int) -> np.ndarray:
        return (self.offset + (i + 1) * self.alpha) % 1.0


def lerp(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def loguni(u: float, lo: float, hi: float) -> float:
    return float(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u))


POINT_DIMS = 15


def operating_point(u) -> tuple[str, float, dict]:
    """Mode, carrier and config of one gate operating point (15 dims of u).

    Varies the coupling asymmetry of the three feeds, the starting
    attenuator and phase settings the calibration must correct, and the
    geometry scale.
    """
    mode = "bvmsw" if u[0] < 0.5 else "mssw"
    f_c = lerp(u[1], *FC_RANGE[mode])
    cfg = dict(REFERENCE)
    cfg["microwave.coupling_db"] = tuple(lerp(v, -2.0, 0.0) for v in u[2:5])
    cfg["microwave.coupling_phase_rad"] = tuple(lerp(v, -1.0, 1.0) for v in u[5:8])
    cfg["microwave.attenuator_db"] = tuple(lerp(v, 0.0, 3.0) for v in u[8:11])
    cfg["microwave.phase_rad"] = tuple(lerp(v, -math.pi, math.pi) for v in u[11:14])
    cfg["geometry.scale"] = loguni(u[14], 0.5, 2.0)
    return mode, f_c, cfg


def _record_length(u: float, lo_hi) -> int:
    return int(round(loguni(u, *lo_hi)))


# -- job builders: (kind, dims, build(u) -> Job) -------------------------------

def gate_job(kind):
    def build(u):
        mode, f_c, cfg = operating_point(u)
        return Job(kind, cfg, mode, f_c)
    return kind, POINT_DIMS, build


def transmission_job():
    def build(u):
        mode, f_c, cfg = operating_point(u)
        job = Job("transmission", cfg, mode, f_c)
        lo, hi = job.film().band()
        cfg["spectrum.n_points"] = _record_length(u[15], N_GRID)
        cfg["spectrum.f_start_hz"] = lo - lerp(u[16], 0.02, 0.2) * (hi - lo)
        cfg["spectrum.f_stop_hz"] = hi + lerp(u[17], 0.02, 0.2) * (hi - lo)
        return job
    return "transmission", POINT_DIMS + 3, build


def dispersion_job():
    def build(u):
        mode = "bvmsw" if u[0] < 0.5 else "mssw"
        cfg = dict(REFERENCE)
        cfg["geometry.scale"] = 1.0
        cfg["dispersion.n_points"] = _record_length(u[1], N_GRID)
        cfg["dispersion.k_start_rad_per_m"] = loguni(u[2], 10.0, 200.0)
        cfg["dispersion.k_stop_rad_per_m"] = loguni(u[3], 1.0e5, 1.0e6)
        cfg["dispersion.log_k"] = bool(u[4] < 0.5)
        return Job("dispersion", cfg, mode, FC_RANGE[mode][0])
    return "dispersion", 5, build


def switch_job():
    def build(u):
        mode, f_c, cfg = operating_point(u)
        n = _record_length(u[15], N_SWITCH)
        cfg["switching.dt_s"] = DURATION_S / n
        cfg["switching.effective_path_m"] = lerp(u[16], 0.6e-3, 1.6e-3)
        return Job("switch", cfg, mode, f_c, {"samples": n})
    return "switch", POINT_DIMS + 2, build


def scale_job():
    def build(u):
        mode, f_c, cfg = operating_point(u)
        n = _record_length(u[15], N_SWEEP)
        cfg["switching.dt_s"] = DURATION_S / n
        # the swept path is effective_path_m * geometry.scale; below ~0.7 mm
        # the ramp and the sampling grid bend the rise-time line under
        # r^2 = 0.999, so it straddles the fitted 1.349 mm instead
        cfg["switching.effective_path_m"] = (lerp(u[16], 1.0e-3, 2.0e-3)
                                             / cfg["geometry.scale"])
        cfg["scaling.scales"] = SCALES
        return Job("scale", cfg, mode, f_c, {"samples": n})
    return "scale", POINT_DIMS + 2, build


def fit_job():
    def build(u):
        mode, f_c, cfg = operating_point(u)
        n = _record_length(u[15], N_SWEEP)
        cfg["switching.dt_s"] = DURATION_S / n
        cfg["field.orientation"] = "parallel" if mode == "bvmsw" else "perpendicular"
        cfg["microwave.f_c_hz"] = f_c
        return Job("fit", cfg, mode, f_c,
                   {"samples": n, "target_t_rise_s": lerp(u[16], 6e-9, 24e-9),
                    "rtol": FIT_RTOL})
    return "fit", POINT_DIMS + 2, build


@dataclass
class Workload:
    builders: list        # (kind, dims, build)
    pattern: tuple        # kinds in stream order, repeated
    replay: int           # jobs in the list a timed run replays

    def stream(self, seed: int):
        """Endless seeded job stream: the pattern, repeated."""
        seqs = {kind: (Sequence(seed, salt, dims), build)
                for salt, (kind, dims, build) in enumerate(self.builders)}
        used = {kind: 0 for kind in seqs}
        while True:
            for kind in self.pattern:
                seq, build = seqs[kind]
                yield build(seq[used[kind]])
                used[kind] += 1

    def warmups(self) -> list[Job]:
        """One job per kind at the top of its size range, mid-range otherwise.

        Their memory is traced, so peak_mem_mb is the peak of the largest
        jobs and does not depend on which sizes a seed happens to draw.
        """
        jobs = []
        for kind, dims, build in self.builders:
            u = np.full(dims, 0.5)
            u[POINT_DIMS:] = 1.0 - 1e-12
            if kind == "dispersion":
                u[1] = 1.0 - 1e-12
            jobs.append(build(u))
        return jobs


WORKLOADS = {
    "gate": Workload(
        [gate_job("calibrate"), gate_job("truthtable"), gate_job("fulladder"),
         switch_job(), scale_job(), fit_job()],
        ("truthtable", "switch", "calibrate", "fulladder", "switch", "fit",
         "truthtable", "switch", "calibrate", "fulladder", "switch", "scale"),
        100),
    "spectrum": Workload(
        [transmission_job(), dispersion_job()],
        ("transmission", "dispersion", "transmission"),
        100),
}
