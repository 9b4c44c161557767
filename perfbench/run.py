#!/usr/bin/env python3
"""spingate benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload gate|spectrum \
        --seed N --seconds S --trace 0|1

Drives ``spingate.cli.main(argv)`` (and, for the path fit, the public
procedures) in this process: one client, closed loop, single-threaded,
on whichever kernel backend ``spingate.backend_name()`` reports.  Every
job's inputs are generated from --seed; every job's artifacts are checked
against the oracles in oracles.py, which never call into the package.

--trace 0 measures the end-to-end metrics.  It replays a fixed list of
the stream's first jobs in passes until --seconds are used, and times a
fixed reference loop next to every job.  The shared host this was
written on runs the same job up to twice as slow for seconds to minutes
at a time; the job's latency over the reference time moves far less, and
taking each job's best run over the passes trims what is left.
Reported: p50/p90 over the jobs of each job's best latency in reference
times, jobs per thousand reference times, the import time of
``spingate.cli`` in fresh processes (setup_s) and the peak memory the
largest job of each kind allocates (peak_mem_mb).  Latencies in ms are
on the info line.

--trace 1 replays one cycle of the stream, alternating untraced and
traced passes, and reports per-layer calls, work counts and self times
(see tracer.py), the tracing overhead (traced over untraced job time per
pass) and whether every work counter repeated exactly across the traced
passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each job run's simulated results
go to .bench_out/results-<workload>-seed<N>-trace<T>.jsonl (compare two
runs with compare_results.py).  Exit status: 0 when every check passed,
1 when one failed, 2 when the package source is missing.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads, here and in the setup probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# import probes per run; the first, untimed, pays bytecode compilation,
# which a user pays once per install, not once per run
SETUP_REPS = 11
SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import spingate.cli; "
               "print(time.perf_counter() - t)")
# whole passes a timed run makes even when they take longer than --seconds
MIN_PASSES = 1
# steps of the reference loop (see reference_s)
REF_STEPS = 60

END_TO_END = (("job_p50_ref", "ref"), ("job_p90_ref", "ref"),
              ("jobs_per_kref", "1/kref"), ("setup_s", "s"), ("peak_mem_mb", "MB"))

# per-layer metrics: (span, counter or "self_ms", unit)
PER_LAYER = (
    ("kernels.solve_k", "calls"), ("kernels.solve_k", "points"),
    ("kernels.solve_k", "self_ms"),
    ("physics.solve_k", "calls"), ("physics.solve_k_grid", "points"),
    ("kernels.waveguide_gain", "self_ms"), ("kernels.dispersion_f", "self_ms"),
    ("kernels.group_velocity", "self_ms"),
    ("circuit.channel_transfer", "calls"),
    ("circuit.channel_transfer", "carrier_calls"),
    ("circuit.channel_transfer", "self_ms"),
    ("circuit.transmission_spectrum", "self_ms"),
    ("circuit.spectrum_to_csv", "self_ms"),
    ("signal.apply_transfer", "calls"), ("signal.apply_transfer", "fft_points"),
    ("signal.apply_transfer", "self_ms"), ("signal.diode_detect", "self_ms"),
    ("kernels.lowpass_1pole", "samples"), ("kernels.lowpass_1pole", "self_ms"),
    ("signal.rise_time", "self_ms"), ("signal.trace_to_csv", "rows"),
    ("signal.trace_to_csv", "self_ms"),
    ("logic.run_logic_state", "calls"), ("logic.truth_table", "self_ms"),
    ("experiment.calibrate", "calls"), ("experiment.calibrate", "self_ms"),
    ("experiment.run_switching", "calls"), ("experiment.run_switching", "self_ms"),
    ("experiment.scaling_study", "self_ms"),
    ("experiment.fit_effective_path", "switch_runs_per_fit"),
    ("config.parse_config", "self_ms"), ("config.build_netlist", "self_ms"),
    ("cli", "self_ms"),
)


def unit_of(name: str) -> str:
    for metric, unit in END_TO_END:
        if metric == name:
            return unit
    counter = name.rsplit(".", 1)[1]
    return {"self_ms": "ms", "switch_runs_per_fit": "runs/fit",
            "overhead": "ratio"}.get(counter, "count")


# -- environment -----------------------------------------------------------

def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import spingate
    return {
        "backend": spingate.backend_name(), "package_version": spingate.__version__,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def import_time() -> float:
    """Import time of spingate.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def reference_s() -> float:
    """Best of two runs of the reference loop, in seconds.

    A bisection on one-element numpy arrays: the call pattern that
    dominates the package's scalar wavenumber solves, written here so that
    no change to the package can move it.  Timed before and after a job,
    it tells how fast the host ran the job: on the shared host this was
    written on, per-job best latencies over it held within a few percent
    from run to run while the latencies themselves moved by half.
    """
    best = math.inf
    for _ in range(2):
        p = np.array([0.37])
        lo, hi = np.zeros(1), 2.0 / p + 2.0
        t0 = time.perf_counter()
        for _ in range(REF_STEPS):
            mid = 0.5 * (lo + hi)
            safe = np.where(mid < 1e-12, 1.0, mid)
            up = -np.expm1(-safe) / safe > p
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        best = min(best, time.perf_counter() - t0)
    return best


def load_package() -> None:
    sys.path.insert(0, str(SRC))
    import spingate
    import spingate.cli  # noqa: F401
    if not Path(spingate.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spingate imported from {spingate.__file__}")


# -- jobs ------------------------------------------------------------------

class Outcome:
    def __init__(self, job: Job, index: int, pass_no: int):
        self.job, self.index, self.pass_no = job, index, pass_no
        self.latency_s = None
        self.ref_s = None
        self.peak_mem_bytes = None
        self.rc = None
        self.error = None
        self.results = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.error is None

    def record(self) -> dict:
        return {"job": self.index, "pass": self.pass_no, "ok": self.ok,
                "rc": self.rc, "error": self.error,
                "latency_ms": None if self.latency_s is None else self.latency_s * 1e3,
                "ref_ms": None if self.ref_s is None else self.ref_s * 1e3,
                "inputs": self.job.describe(), "results": self.results}


class Runner:
    def __init__(self, work: Path, tracer: Tracer | None = None):
        self.work = work
        self.cfg_path = work / "job.cfg"
        self.out = work / "out"
        self.tracer = tracer

    def run(self, job: Job, index: int, pass_no: int) -> Outcome:
        """One job; pass_no is -1 for the warm-up jobs, whose memory is
        traced (which slows them: they are not timed)."""
        # imported here so the names resolve after load_package(); module
        # attributes are looked up per call, so tracing applies
        from spingate import cli
        outcome = Outcome(job, index, pass_no)
        shutil.rmtree(self.out, ignore_errors=True)
        self.cfg_path.write_text(job.config_text())
        if self.tracer is not None:
            self.tracer.active = True
        stdout, stderr = io.StringIO(), io.StringIO()
        if pass_no < 0:
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if job.kind == "fit":
                    t0 = time.perf_counter()
                    extra = self._fit(job)
                    outcome.latency_s = time.perf_counter() - t0
                    outcome.rc = 0
                else:
                    argv = [job.kind, "--config", str(self.cfg_path),
                            "--out", str(self.out), "--mode", job.mode,
                            "--fc", repr(job.f_c)]
                    t0 = time.perf_counter()
                    outcome.rc = cli.main(argv)
                    outcome.latency_s = time.perf_counter() - t0
                    extra = None
        except Exception as err:  # a crashing job is a failed job, not a crash
            outcome.error = f"{type(err).__name__}: {err}"
            return outcome
        finally:
            if self.tracer is not None:
                self.tracer.active = False
            if pass_no < 0:
                outcome.peak_mem_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if outcome.rc != 0:
            outcome.error = f"exit {outcome.rc}: {stderr.getvalue().strip()}"
            return outcome
        try:
            outcome.results = self._check(job, stdout.getvalue(), extra)
        except (oracles.CheckError, OSError, ValueError, KeyError) as err:
            outcome.error = f"check failed: {type(err).__name__}: {err}"
        return outcome

    def _fit(self, job: Job):
        from spingate import config, experiment, logic
        cfg = config.parse_config(self.cfg_path.read_text())
        nl = config.build_netlist(cfg, include_switch=True)
        nl, _ = experiment.calibrate(nl)
        sw = cfg.switching
        kwargs = {
            "enc": logic.PhaseEncoding(phi0=cfg.encoding.phi0_rad,
                                       guard=cfg.encoding.guard_rad),
            "timing": experiment.SwitchTiming(
                dt=sw.dt_s, duration=sw.duration_s, t_toggle=sw.t_toggle_s,
                ramp=sw.ramp_s),
            "ref_phase": sw.ref_phase_rad,
            "lp_cutoff": cfg.detector.lp_cutoff_hz,
            "responsivity": cfg.detector.responsivity_v,
        }
        path = experiment.fit_effective_path(
            nl, job.extra["target_t_rise_s"], rtol=job.extra["rtol"], **kwargs)
        return nl, path, kwargs

    def _check(self, job: Job, stdout: str, extra) -> dict:
        kind, out = job.kind, self.out
        if kind == "calibrate":
            return oracles.check_calibration(out)
        if kind == "truthtable":
            return oracles.check_truthtable(out, job.config["encoding.guard_rad"],
                                            job.config["encoding.phi0_rad"])
        if kind == "fulladder":
            return oracles.check_fulladder(out)
        if kind == "dispersion":
            return oracles.check_dispersion(out, job.film(),
                                            job.config["dispersion.n_points"])
        if kind == "transmission":
            return oracles.check_transmission(out, job.film(), job.oracle_params())
        if kind == "switch":
            return oracles.check_switch(out, stdout)
        if kind == "scale":
            return oracles.check_scale(out, job.config["scaling.scales"])
        if kind == "fit":
            from spingate import experiment
            nl, path, kwargs = extra
            res = experiment.run_switching(nl, effective_path=path, **kwargs)
            return oracles.check_fit(path, job.extra["target_t_rise_s"],
                                     job.extra["rtol"],
                                     np.asarray(res.trace.samples), res.trace.dt)
        raise KeyError(f"no check for job kind {kind!r}")


def run_pass(runner: Runner, jobs: list[Job], pass_no: int, log) -> list[Outcome]:
    outcomes = []
    for i, job in enumerate(jobs):
        outcome = runner.run(job, i, pass_no)
        log(outcome)
        outcomes.append(outcome)
    return outcomes


def job_time_s(outcomes: list[Outcome]) -> float:
    return sum(o.latency_s for o in outcomes if o.latency_s is not None)


# -- runs --------------------------------------------------------------------

def timed_run(runner: Runner, jobs: list[Job], seconds: float, log):
    """Passes over the fixed job list until `seconds` of wall time are used.

    The last pass stops part-way at `seconds`, once MIN_PASSES whole
    passes have run, so every job gets one run more or fewer than the
    others rather than a whole pass more or fewer.  Each job's reference
    time is the mean of reference_s() before and after it.  The SETUP_REPS
    import probes are spread evenly over the run, between jobs, so their
    median samples the host the way the jobs do.
    """
    passes, setup_times = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        outcomes = []
        passes.append(outcomes)
        for i, job in enumerate(jobs):
            elapsed = time.perf_counter() - start
            if len(passes) > MIN_PASSES and elapsed >= seconds:
                break
            if (len(setup_times) < SETUP_REPS
                    and elapsed >= len(setup_times) * seconds / SETUP_REPS):
                setup_times.append(import_time())
            before = reference_s()
            outcome = runner.run(job, i, len(passes) - 1)
            outcome.ref_s = 0.5 * (before + reference_s())
            log(outcome)
            outcomes.append(outcome)
    while len(setup_times) < SETUP_REPS:
        setup_times.append(import_time())
    return [p for p in passes if p], setup_times, time.perf_counter() - start


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else float("nan")


def end_to_end_metrics(warm, passes, setup_times: list[float]):
    """Quantiles over the jobs of each job's best run, in reference times
    (and, on the info line, in ms); jobs that failed in any pass are left
    out (and counted as failed by the caller)."""
    by_job = [[p[i] for p in passes if i < len(p)] for i in range(len(passes[0]))]
    ok_jobs = [runs for runs in by_job if all(o.ok for o in runs)]
    best_ref = np.array([min(o.latency_s / o.ref_s for o in runs) for runs in ok_jobs])
    best_ms = np.array([min(o.latency_s for o in runs) * 1e3 for runs in ok_jobs])
    p90 = percentile(best_ref, 90)
    metrics = {
        "job_p50_ref": percentile(best_ref, 50), "job_p90_ref": p90,
        "jobs_per_kref": 1e3 * best_ref.size / best_ref.sum() if ok_jobs else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_mem_mb": max(o.peak_mem_bytes for o in warm) / 2 ** 20,
    }
    info = {
        "jobs": len(by_job), "passes": len(passes),
        "runs": sum(len(p) for p in passes), "samples": len(ok_jobs),
        "beyond_p90": int(np.sum(best_ref > p90)),
        "job_p50_ms": percentile(best_ms, 50), "job_p90_ms": percentile(best_ms, 90),
        "jobs_per_s": 1e3 * best_ms.size / best_ms.sum() if ok_jobs else 0.0,
        "ref_median_ms": statistics.median(o.ref_s * 1e3 for p in passes for o in p),
        "pass_job_s": [job_time_s(p) for p in passes],
        "setup_samples_s": setup_times,
        "by_kind": {},
    }
    for kind in sorted({runs[0].job.kind for runs in ok_jobs}):
        k = [min(o.latency_s for o in runs) * 1e3 for runs in ok_jobs
             if runs[0].job.kind == kind]
        info["by_kind"][kind] = {"n": len(k), "median_ms": statistics.median(k)}
    return metrics, info


def traced_run(runner: Runner, tracer: Tracer, jobs: list[Job], seconds: float,
               log):
    """Alternate untraced and traced passes over `jobs`.

    A first untraced pass is not timed: it pays the one-time costs of this
    list's sizes, which would otherwise land on the first untraced pass.
    Each pair of passes swaps which of the two runs first, so neither gains
    from following the other.  Pass times are sums of job latencies, so
    the oracle checks are left out.
    """
    passes, plain, traced, counters, self_times = [], [], [], [], []

    def one_pass() -> float:
        passes.append(run_pass(runner, jobs, len(passes), log))
        return job_time_s(passes[-1])

    def traced_pass() -> None:
        tracer.reset()
        tracer.install()
        try:
            traced.append(one_pass())
        finally:
            tracer.uninstall()
        counters.append(tracer.counters())
        self_times.append(tracer.self_ms())

    one_pass()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 2:
        if len(traced) % 2:
            traced_pass()
            plain.append(one_pass())
        else:
            plain.append(one_pass())
            traced_pass()
    return passes, plain, traced, counters, self_times


def per_layer_metrics(counters, self_times, plain, traced):
    first = counters[0]
    metrics = {}
    for span, counter in PER_LAYER:
        name = f"{span}.{counter}"
        if counter == "self_ms":
            value = statistics.median(st.get(span, 0.0) for st in self_times)
        elif counter == "switch_runs_per_fit":
            fits = first.get(f"{span}.calls", 0)
            value = first.get(f"{span}.switch_runs", 0) / fits if fits else 0.0
        else:
            value = first.get(name, 0)
        metrics[name] = value
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spingate" / "cli.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        return 2
    try:
        import_time()  # untimed: compiles bytecode, warms the file cache
        load_package()
    except (RuntimeError, ImportError, subprocess.SubprocessError) as err:
        print(f"benchmark: cannot load spingate: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    results_path = OUT / f"results-{tag}.jsonl"
    tracer = Tracer() if args.trace else None
    runner = Runner(work, tracer)
    failures = []

    with results_path.open("w") as results:
        results.write(json.dumps({"env": env}) + "\n")

        def log(outcome: Outcome) -> None:
            results.write(json.dumps(outcome.record()) + "\n")
            if not outcome.ok and len(failures) < 5:
                failures.append(f"{outcome.job.kind} job {outcome.index} pass "
                                f"{outcome.pass_no}: {outcome.error}")

        try:
            warm = run_pass(runner, workload.warmups(), -1, log)
            if args.trace:
                jobs = list(islice(workload.stream(args.seed), len(workload.pattern)))
                passes, plain, traced, counters, self_times = traced_run(
                    runner, tracer, jobs, args.seconds, log)
                metrics = per_layer_metrics(counters, self_times, plain, traced)
                repeat = all(c == counters[0] for c in counters)
                info = {"traced_passes": len(traced), "untraced_passes": len(plain),
                        "counters_repeat": repeat, "missing_spans": tracer.missing}
                if not repeat:
                    failures.append("work counters differ between traced passes")
            else:
                jobs = list(islice(workload.stream(args.seed), workload.replay))
                passes, setup_times, wall = timed_run(runner, jobs, args.seconds, log)
                metrics, info = end_to_end_metrics(warm, passes, setup_times)
                info["wall_s"] = wall
                repeat = True
        finally:
            shutil.rmtree(work, ignore_errors=True)

    everything = warm + [o for p in passes for o in p]
    failed = sum(not o.ok for o in everything)
    correct = failed == 0 and repeat
    info["results"] = str(results_path.relative_to(ROOT))
    info["failed_frac"] = failed / len(everything)
    for line in failures:
        print("FAILED " + line)
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct, "attempted": len(everything), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
