"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pass/fail verdicts.
"""

import math
import time

import numpy as np
import pytest

from oracles import delay, fd_group_velocity
from spingate import circuit as ct
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate import signal as sig
from spingate.cli import main

FC = 6.035e9


def report(line):
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def default_cfg():
    return cf.RunConfig()


@pytest.fixture(scope="module")
def calibrated_switch_netlist(default_cfg):
    nl = cf.build_netlist(default_cfg, include_switch=True)
    return ex.calibrate(nl)[0]


@pytest.fixture(scope="module")
def fitted_path(calibrated_switch_netlist):
    return ex.fit_effective_path(calibrated_switch_netlist, 11.3e-9, rtol=1e-4)


def test_c1_fmr_reproduction():
    film = ph.FilmParams.yig()  # literature mu0*Ms = 0.176 T
    ctx = ph.ModeContext(film, ph.BiasField(0.1429))
    ph.fmr_frequency(ctx)  # warm the path before timing
    t0 = time.perf_counter()
    f_lit = ph.fmr_frequency(ctx)
    ms_fit = ph.calibrate_ms(ctx, 6.06e9)
    f_fit = ph.fmr_frequency(ctx.with_ms(ms_fit))
    elapsed = time.perf_counter() - t0
    assert abs(f_fit - 6.06e9) < 1.0e6
    assert abs(f_lit - 6.06e9) / 6.06e9 < 0.02
    assert elapsed < 1.0e-3
    report(f"C1 fmr: fitted {f_fit/1e9:.6f} GHz, literature {f_lit/1e9:.4f} GHz "
           f"(within 2%), runtime {elapsed*1e6:.0f} us")


def test_c2_truth_table_after_calibration(default_cfg, tmp_path):
    rng = np.random.default_rng(20260808)
    gains_db = tuple(rng.uniform(-6.0, 6.0, 3))
    phases = tuple(rng.uniform(-math.pi, math.pi, 3))
    nl = ct.build_majority_gate(
        cf.build_geometry(default_cfg), cf.build_context(default_cfg),
        ct.MicrowaveSettings(coupling_db=gains_db, coupling_phase_rad=phases))
    t0 = time.perf_counter()
    nl_cal, _ = ex.calibrate(nl)
    table = lg.truth_table(nl_cal)
    elapsed = time.perf_counter() - t0
    assert table.matches_majority
    assert not table.any_indeterminate
    assert all(r.margin > math.pi / 4 for r in table.rows)
    assert elapsed < 1.0
    # same run through the command surface with the perturbation in config
    config = tmp_path / "perturbed.txt"
    config.write_text(
        "microwave.coupling_db = "
        + ",".join(repr(float(g)) for g in gains_db) + "\n"
        "microwave.coupling_phase_rad = "
        + ",".join(repr(float(p)) for p in phases) + "\n")
    assert main(["truthtable", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    csv_rows = (tmp_path / "truthtable.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[6] for r in csv_rows] == ["0"] * 4 + ["1"] * 4
    decoded = "".join(str(r.decoded) for r in table.rows)
    report(f"C2 truth table: decoded {decoded} on a +-6 dB/+-pi perturbed gate, "
           f"min margin {min(r.margin for r in table.rows):.3f} rad, "
           f"runtime {elapsed*1e3:.0f} ms")


def test_c3_interference_levels(default_cfg):
    geo = ct.DeviceGeometry(l_skew=(0.0, 0.0, 0.0))
    nl = ct.build_majority_gate(geo, cf.build_context(default_cfg))
    table = lg.truth_table(nl)
    ratio = table.amplitude_spread
    assert ratio == pytest.approx(3.0, abs=0.01)
    report(f"C3 interference: unanimous-to-majority amplitude ratio "
           f"{ratio:.6f} (target 3.00 +- 0.01, the 75 mV : 25 mV pair)")


def test_c4_backward_wave_suite(default_cfg):
    ctx = cf.build_context(default_cfg)
    t0 = time.perf_counter()
    k = np.logspace(3.0, 6.3, 100)
    f = ph.dispersion_f(ctx, k)
    vg = ph.group_velocity(ctx, k)
    assert np.all(2.0 * math.pi * f / k > 0), "phase velocity must be positive"
    assert np.all(vg < 0), "group velocity must be negative"
    k_back = np.array([ph.solve_k(ctx, fi) for fi in f])
    round_trip = np.abs(k_back / k - 1.0).max()
    assert round_trip < 1e-9
    fd = fd_group_velocity(ctx, k)
    fd_err = np.abs(vg / fd - 1.0).max()
    assert fd_err < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"C4 backward-wave suite: 100 k-points, round-trip {round_trip:.2e}, "
           f"fd mismatch {fd_err:.2e}, runtime {elapsed*1e3:.0f} ms")


def test_c5_rise_time_metrology():
    dt = 1.0e-10
    tau = 8.0e-9
    t = np.arange(4096) * dt
    res_exp = sig.rise_time(sig.DetectedTrace(dt, 1.0 - np.exp(-t / tau)))
    err_exp = abs(res_exp.t_rise - tau * math.log(2.0))
    assert err_exp <= dt
    T = 60.0e-9
    res_ramp = sig.rise_time(sig.DetectedTrace(dt, np.clip(t / T, 0.0, 1.0)))
    err_ramp = abs(res_ramp.t_rise - T / 3.0)
    assert err_ramp <= dt
    report(f"C5 rise-time metrology: exponential {res_exp.t_rise*1e9:.4f} ns "
           f"vs tau*ln2 {tau*math.log(2)*1e9:.4f} ns; ramp "
           f"{res_ramp.t_rise*1e9:.4f} ns vs T/3 {T/3*1e9:.4f} ns")


def test_c6_switching_experiment(default_cfg, calibrated_switch_netlist,
                                 fitted_path):
    res = ex.run_switching(calibrated_switch_netlist,
                           effective_path=fitted_path,
                           lp_cutoff=default_cfg.detector.lp_cutoff_hz)
    assert res.t_rise == pytest.approx(11.3e-9, rel=0.05)
    assert res.f_clock == pytest.approx(88.5e6, rel=0.05)
    # the shipped default is this fit, frozen; it is a model parameter,
    # not a measured device length
    assert fitted_path == pytest.approx(default_cfg.switching.effective_path_m,
                                        rel=0.01)
    report(f"C6 switching: fitted effective path {fitted_path*1e3:.4f} mm "
           f"-> t_rise {res.t_rise*1e9:.3f} ns, f_clock {res.f_clock/1e6:.2f} MHz "
           f"(targets 11.3 ns / 88.5 MHz +- 5%)")


def test_c7_scaling_property(calibrated_switch_netlist, fitted_path):
    scales = [1.0, 0.5, 0.2, 0.1, 0.05]
    study = ex.scaling_study(calibrated_switch_netlist, scales, fitted_path)
    assert not any(r.flagged for r in study.rows)
    assert study.r_squared > 0.99
    residual = study.rows[-1].t_rise - study.ramp_floor
    assert residual < 1.0e-9
    report(f"C7 scaling: R^2 {study.r_squared:.6f} over scales {scales}, "
           f"1/20-scale rise above floor {residual*1e9:.3f} ns (< 1 ns)")


def test_c8_full_adder_and_cascade(default_cfg):
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                s, cout = lg.full_adder(a, b, cin)
                assert 2 * cout + s == a + b + cin
    geo = ct.DeviceGeometry(l_skew=(0.0, 0.0, 0.0))
    nl = ct.build_majority_gate(geo, cf.build_context(default_cfg))
    readouts = [lg.run_logic_state(nl, lg.LogicState(bits))
                for bits in lg.TABLE_ROW_ORDER]
    check = lg.cascade_check(readouts, tolerance=1.5)
    assert check.spread == pytest.approx(3.0, abs=1e-6)
    assert not check.cascadable
    report(f"C8 full adder: all 8 cases match binary addition; cascade spread "
           f"{check.spread:.3f} flagged non-cascadable at tolerance 1.5")


def test_c9_spectral_method_oracle():
    rng = np.random.default_rng(9)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        n = int(rng.choice([256, 512, 1024, 2048]))
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dt = float(rng.choice([5e-11, 1e-10, 2e-10]))
        env = sig.ComplexEnvelope(FC, dt, samples)
        m = int(rng.integers(1, n // 2))
        out = sig.apply_transfer(env, delay(m * dt))
        expect = np.roll(samples, m) * np.exp(-1j * 2 * math.pi * FC * m * dt)
        worst = max(worst, float(np.abs(out.samples - expect).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report(f"C9 spectral oracle: 10 random envelopes, delay vs direct shift "
           f"max deviation {worst:.2e}, runtime {elapsed*1e3:.0f} ms")
