"""Acceptance gate: eleven checks covering metric exactness, scheduler
behavior, channel statistics, macro trends, determinism and consistency.

Each check prints one PASS/FAIL line (run ``pytest -s`` to see them all);
a FAIL line carries the measurements that broke it.
"""

import math
import time

import numpy as np
from scipy.special import j0

from mmwsim import (ScenarioConfig, emit_csv, jain_fairness, pathloss_uma,
                    preset, run_sweep, run_simulation, schedule_rr,
                    update_average_throughput)
from mmwsim.channel import _ChannelBank
from mmwsim.engine import _Linkset


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:02d} {name}: {status}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    print(line)
    assert not failures, line


def test_criterion_01_fairness_index_exactness():
    failures = []
    got = jain_fairness([1.0, 2.0, 3.0])
    if abs(got - 0.857142857) > 1e-9:
        failures.append(f"jain([1,2,3]) = {got!r}")
    for v in (1.0, 7.3, 2.5e8):
        for n in (1, 2, 3, 5, 10):
            if jain_fairness([v] * n) != 1.0:
                failures.append(f"equal vector v={v} n={n} not exactly 1")
            if n > 1 and jain_fairness([v] + [0.0] * (n - 1)) != 1.0 / n:
                failures.append(f"single winner v={v} n={n} not exactly 1/n")
    _report(1, "fairness index exactness", failures)


def test_criterion_02_throughput_ewma_recurrence():
    failures = []
    avg = update_average_throughput(np.array([4.0]), np.array([8.0]),
                                    time_constant=2.0)
    if avg[0] != 6.0:
        failures.append(f"tc=2, T=4, grant=8 -> {avg[0]!r}")

    avg = update_average_throughput(np.array([123.0]), np.array([77.0]),
                                    time_constant=1.0)
    if avg[0] != 77.0:
        failures.append("tc=1 is not memoryless")

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        g = float(rng.uniform(1e-3, 1e6))
        tc = float(rng.uniform(1.0, 200.0))
        avg = update_average_throughput(np.array([g]), np.array([g]),
                                        time_constant=tc)
        worst = max(worst, abs(avg[0] - g) / g)
    if worst > 1e-12:
        failures.append(f"fixed-point drift {worst:.3e} > 1e-12")
    _report(2, "throughput EWMA recurrence", failures)


def test_criterion_03_round_robin_uniformity():
    failures = []
    cursor = 0
    totals = np.zeros(3, dtype=int)
    for _ in range(3):
        rb_to_ue, cursor = schedule_rr(np.arange(3), 50, cursor)
        totals += np.bincount(rb_to_ue, minlength=3)
    if totals.tolist() != [50, 50, 50]:
        failures.append(f"3 UEs x 50 RB x 3 TTI -> {totals.tolist()}")

    rng = np.random.default_rng(7)
    for _ in range(20):
        n_ues = int(rng.integers(1, 10))
        n_rb = int(rng.integers(1, 70))
        ues = np.arange(n_ues)
        cursor = 0
        for t in range(int(rng.integers(1, 6))):
            rb_to_ue, cursor = schedule_rr(ues, n_rb, cursor)
            granted = np.count_nonzero(np.isin(rb_to_ue, ues))
            if granted != n_rb:
                failures.append(
                    f"conservation broke: {granted} != {n_rb} RBs")
    _report(3, "round-robin uniformity and RB conservation", failures)


def test_criterion_04_fading_statistics():
    failures = []
    start = time.monotonic()
    tau = 1e-3    # one TTI
    # the engine's channel bank: 3,125 unit-amplitude NLOS links of 4x4
    # antennas on one RB give 50,000 scattered-channel samples per f_d
    n_links = 3125
    cfg = ScenarioConfig(n_rb=1, n_rx=4, n_tx=4, ue_polarization="LPOL",
                         xpd_mean=math.inf, seed=11)
    links = _Linkset(cell=np.zeros(n_links, dtype=int),
                     ue=np.arange(n_links), n_keep=1,
                     serving=np.zeros(n_links, dtype=int),
                     amplitude=np.ones(n_links),
                     los=np.zeros(n_links, dtype=bool))
    mean_power = None
    for f_d in (0.0, 100.0, 1000.0, 3113.0):
        bank = _ChannelBank(cfg, links, f_d)
        # the bank's channel before the port coupling is the scattered one
        h0 = bank.current(slice(None)).ravel().astype(complex)
        bank.advance()
        h1 = bank.current(slice(None)).ravel().astype(complex)
        num = np.sum(h1 * np.conj(h0))
        den = np.sum(np.abs(h0) ** 2)
        rho_hat = float(np.real(num / den))
        rho_ref = float(j0(2.0 * math.pi * f_d * tau))
        if abs(rho_hat - rho_ref) > 0.03:
            failures.append(
                f"f_d={f_d:g}: lag-1 autocorr {rho_hat:.4f} "
                f"vs J0 {rho_ref:.4f}")
        if f_d == 1000.0:
            mean_power = float(np.mean(np.abs(h0) ** 2))   # 50k samples
    if not (0.95 <= mean_power <= 1.05):
        failures.append(f"mean power {mean_power:.4f} outside 1 +- 0.05")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(4, "fading autocorrelation and power", failures)


def test_criterion_05_pathloss_oracle():
    failures = []
    d2d = math.sqrt(100.0 ** 2 - 23.5 ** 2)    # 3D distance exactly 100 m
    got = pathloss_uma(d2d, 28e9, 25.0, 1.5, True)
    if abs(got - 100.94) > 0.01:
        failures.append(f"LOS pathloss at 100 m = {got:.4f} dB")
    grid = np.linspace(10.0, 1000.0, 400)
    for los in (True, False):
        pl = pathloss_uma(grid, 28e9, 25.0, 1.5, los)
        if not np.all(np.diff(pl) > 0):
            failures.append(f"not monotone for los={los}")
    _report(5, "urban-macro pathloss oracle", failures)


def test_criterion_06_velocity_throughput_decay(trend_sweep):
    failures = list(trend_sweep.failures)
    for sched in ("RR", "PF"):
        for pol in ("LPOL", "XPOL"):
            slow = trend_sweep.mean("avg_ue_throughput_bps", sched, pol, 0.0)
            fast = trend_sweep.mean("avg_ue_throughput_bps", sched, pol,
                                    120.0)
            if not fast < slow:
                failures.append(
                    f"{sched}/{pol}: {fast / 1e6:.3f} Mbps at 120 kmph "
                    f"not below {slow / 1e6:.3f} at 0")
    if trend_sweep.elapsed_s >= 120.0:
        failures.append(f"sweep took {trend_sweep.elapsed_s:.0f}s >= 120s")
    _report(6, "throughput decays with velocity", failures)


def test_criterion_07_polarization_gap_grows_with_velocity(trend_sweep):
    failures = []
    lpol_fast = trend_sweep.mean("avg_ue_throughput_bps", "RR", "LPOL", 120.0)
    xpol_fast = trend_sweep.mean("avg_ue_throughput_bps", "RR", "XPOL", 120.0)
    if not lpol_fast > xpol_fast:
        failures.append(
            f"at 120 kmph LPOL {lpol_fast / 1e6:.3f} Mbps <= "
            f"XPOL {xpol_fast / 1e6:.3f}")
    lpol_slow = trend_sweep.mean("avg_ue_throughput_bps", "RR", "LPOL", 0.0)
    xpol_slow = trend_sweep.mean("avg_ue_throughput_bps", "RR", "XPOL", 0.0)
    gap = abs(lpol_slow - xpol_slow) / max(lpol_slow, xpol_slow)
    if gap >= 0.10:
        failures.append(f"static polarization gap {gap:.1%} >= 10%")
    _report(7, "polarization gap is velocity-coupled", failures)


def test_criterion_08_scheduler_fairness_ordering(trend_sweep):
    failures = []
    for pol in ("LPOL", "XPOL"):
        fi_rr = trend_sweep.mean("fairness_index", "RR", pol, 120.0)
        fi_pf = trend_sweep.mean("fairness_index", "PF", pol, 120.0)
        if not fi_rr > fi_pf:
            failures.append(
                f"{pol} at 120 kmph: FI(RR) {fi_rr:.4f} <= "
                f"FI(PF) {fi_pf:.4f}")
    for rec in trend_sweep.table.records:
        if not 0.0 < rec.fairness_index <= 1.0:
            failures.append(
                f"FI {rec.fairness_index!r} outside (0, 1] for "
                f"{rec.scheduler}/{rec.polarization}")
    _report(8, "round robin out-fairs proportional fair at speed", failures)


def test_criterion_09_determinism_and_parallel_equivalence(tmp_path):
    failures = []
    base = preset("small").replace(ues_per_sector=2, n_tti=10)
    kwargs = dict(velocities=(0.0, 120.0), polarizations=("LPOL", "XPOL"),
                  schedulers=("RR",), seeds=(3,))

    paths = {}
    for label, parallelism in (("first", 1), ("second", 1), ("workers", 8)):
        table, sweep_failures = run_sweep(base, parallelism=parallelism,
                                          **kwargs)
        if sweep_failures:
            failures.append(f"{label}: {len(sweep_failures)} failed points")
        paths[label] = tmp_path / f"{label}.csv"
        emit_csv(table, paths[label])

    first = paths["first"].read_bytes()
    if first != paths["second"].read_bytes():
        failures.append("repeat run CSV differs byte-for-byte")
    if first != paths["workers"].read_bytes():
        failures.append("8-worker CSV differs from serial byte-for-byte")
    _report(9, "bitwise determinism across runs and workers", failures)


def test_criterion_10_kpi_cross_consistency(trend_sweep):
    failures = []
    for rec in trend_sweep.table.records:
        lhs = rec.spectral_efficiency_bps_hz * rec.bandwidth_hz
        rhs = rec.n_ues * rec.avg_ue_throughput_bps
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs)):
            failures.append(
                f"{rec.scheduler}/{rec.polarization}/v={rec.velocity_kmph:g}"
                f"/seed={rec.seed}: SE*B={lhs!r} != n*avg={rhs!r}")
    _report(10, "spectral efficiency consistent with throughput", failures)


def test_criterion_11_polarizations_equal_when_static_and_leak_free():
    failures = []
    base = preset("small").replace(ue_velocity=0.0, xpd_mean=float("inf"),
                                   n_tti=20, seed=7)
    lpol = run_simulation(base.replace(ue_polarization="LPOL"))
    xpol = run_simulation(base.replace(ue_polarization="XPOL"))
    pairs = (
        ("throughput", lpol.avg_ue_throughput_bps, xpol.avg_ue_throughput_bps),
        ("spectral efficiency", lpol.spectral_efficiency_bps_hz,
         xpol.spectral_efficiency_bps_hz),
        ("fairness", lpol.fairness_index, xpol.fairness_index),
    )
    for name, a, b in pairs:
        rel = abs(a - b) / max(abs(a), abs(b))
        if rel > 0.02:
            failures.append(f"{name}: LPOL {a:.6g} vs XPOL {b:.6g} "
                            f"({rel:.2%} apart)")
    _report(11, "static leak-free polarizations are equivalent", failures)
