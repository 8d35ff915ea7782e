"""mmwsim benchmark: closed-loop sweep workloads with checked KPIs.

    python3 perfbench/run.py --workload small_grid --seed 1 --seconds 30 \
        --trace 0

With ``--trace 0`` it times whole workload passes untraced and reports the
end-to-end metrics; with ``--trace 1`` it alternates an untraced and a
traced pass and reports per-layer metrics from the traced ones. Passes
repeat while another one still fits in ``--seconds`` (at least one always
runs). Every point of every pass is checked against the stored reference
KPIs and the KPI invariants.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record (the
environment, every pass, every problem) goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, use_checkout_sources  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"
PROBE = Path(__file__).with_name("setup_probe.py")
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter to the first engine call."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(PROBE), workload.name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def cpu_seconds():
    """User plus system CPU of this process and its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Passes:
    """Runs passes closed-loop and checks each one's KPIs."""

    def __init__(self, workload, seed, seconds, reference):
        from perfbench.kpicheck import point_key
        self.seconds = seconds
        self.reference = reference
        self.expected = [point_key(p) for p in workload.expand(seed)]
        self.checks = []
        self.records = []
        self.start = time.monotonic()

    def check(self, table, failures):
        from perfbench.kpicheck import check_pass
        result = check_pass(table.records, failures, self.expected,
                            self.reference)
        self.checks.append(result)
        self.records.append(table.sorted_records())
        return result

    def another_fits(self, last_s):
        return time.monotonic() - self.start + last_s <= self.seconds

    @property
    def attempted(self):
        return sum(c.attempted for c in self.checks)

    @property
    def failed(self):
        return sum(c.failed for c in self.checks)

    @property
    def problems(self):
        return [p for c in self.checks for p in c.problems]


def timed_run(workload, seed, seconds, reference):
    """End-to-end metrics of untraced passes."""
    from perfbench.hostinfo import PeakMemory

    setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    passes = Passes(workload, seed, seconds, reference)
    walls, cpus, peaks = [], [], []
    while True:
        cpu0 = cpu_seconds()
        with PeakMemory() as mem:
            t0 = time.perf_counter()
            table, failures = workload.run(seed)
            walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        peaks.append(mem.peak_mb)
        passes.check(table, failures)
        if not passes.another_fits(walls[-1]):
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(peaks),
    }
    detail = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus,
              "peak_rss_mb": peaks}
    return metrics, passes, detail


def traced_run(workload, seed, seconds, reference, spans_path):
    """Per-layer metrics: untraced and traced passes in alternation."""
    from perfbench.spans import Tracer

    tracer = Tracer(OUT_DIR / "workers")
    passes = Passes(workload, seed, seconds, reference)
    overheads, mismatches = [], 0
    while True:
        t0 = time.perf_counter()
        plain = workload.run(seed)
        wall_plain = time.perf_counter() - t0
        t1 = time.perf_counter()
        traced = tracer.traced_pass(lambda: workload.run(seed))
        wall_traced = time.perf_counter() - t1
        overheads.append(wall_traced - wall_plain)
        passes.check(*plain)
        passes.check(*traced)
        if passes.records[-1] != passes.records[-2]:
            mismatches += 1
        if not passes.another_fits(wall_plain + wall_traced):
            break

    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["check.failed_frac"] = passes.failed / passes.attempted
    metrics["check.kpi_max_rel_dev"] = max(c.max_rel_dev
                                           for c in passes.checks)
    metrics["check.ref_points"] = sum(c.ref_points for c in passes.checks)
    if mismatches:
        passes.checks[-1].problems.append(
            f"traced KPIs differ from untraced in {mismatches} pass(es)")
    detail = {"overhead_s": overheads, "missing_targets": tracer.missing,
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, passes, detail


def parse_args(argv):
    from perfbench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(
        description="mmwsim benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    if not use_checkout_sources():
        print(f"perfbench: no mmwsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import hostinfo, kpicheck, spans
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    env = hostinfo.environment(ROOT)
    env["loadavg_before"] = os.getloadavg()
    reference = kpicheck.reference_for(
        kpicheck.load_reference(), workload.reference_key, args.seed)

    if args.trace:
        metrics, passes, detail = traced_run(
            workload, args.seed, args.seconds, reference,
            OUT_DIR / f"{stem}.spans.jsonl")
        units = spans.metric_units()
    else:
        metrics, passes, detail = timed_run(
            workload, args.seed, args.seconds, reference)
        units = END_TO_END_UNITS
    env["loadavg_after"] = os.getloadavg()

    digest = kpicheck.kpi_digest(passes.records[0])
    correct = passes.failed == 0 and not passes.problems
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": len(passes.checks), "parallelism": workload.parallelism(),
        "reference_checked": reference is not None, "kpi_digest": digest,
        "problems": passes.problems, "environment": env, "detail": detail,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for problem in passes.problems:
        print(f"problem: {problem}")
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(passes.checks)} pass(es), parallelism "
          f"{workload.parallelism()}, kpi digest {digest}, reference "
          f"{'checked' if reference is not None else 'absent: invariants only'}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
