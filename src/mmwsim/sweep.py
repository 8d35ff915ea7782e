"""Sweeps over the scenario grid, and their results table.

The points of one (velocity, seed) run as lanes of one group, in this
process or in worker processes; every record equals its point's own
``run_simulation``. A failed point is reported, not fatal.
"""

import hashlib
import json
import logging
import numbers
import os
from dataclasses import dataclass, field

from . import engine
from ._version import __version__
from .config import expand_sweep, scenario_to_text

log = logging.getLogger("mmwsim")


RESULT_COLUMNS = ("scheduler", "rx_polarization", "velocity_kmph", "seed",
                  "avg_ue_throughput_mbps", "spectral_efficiency_bps_hz",
                  "fairness_index")


@dataclass
class ResultsTable:
    """Sweep output: one KPI record per (scheduler, pol, velocity, seed)."""
    records: list
    metadata: dict = field(default_factory=dict)

    def sorted_records(self):
        return sorted(
            self.records,
            key=lambda r: (r.scheduler, r.polarization, r.velocity_kmph,
                           r.seed))

    def rows(self):
        for r in self.sorted_records():
            yield (r.scheduler, r.polarization, f"{r.velocity_kmph:g}",
                   str(r.seed), f"{r.avg_ue_throughput_mbps:.6g}",
                   f"{r.spectral_efficiency_bps_hz:.6g}",
                   f"{r.fairness_index:.6g}")


def _run_group(cfgs):
    """(status, record or error text) for each point of one sweep group.

    If the group fails, each of its points is run again alone, so a
    failure is reported against its own point only, exactly as a sweep
    of single points reports it.
    """
    try:
        return [("ok", record) for record in engine._run_lanes(cfgs)]
    except Exception as exc:   # noqa: BLE001 - isolate per-point failures
        if len(cfgs) > 1:
            log.info("sweep group of %d points failed (%s: %s); running "
                     "them one by one", len(cfgs), type(exc).__name__, exc)
            return [outcome for cfg in cfgs for outcome in _run_group([cfg])]
        (cfg,) = cfgs
        return [("error", f"{_label(cfg)}: {type(exc).__name__}: {exc}")]


def _label(cfg):
    return (f"scheduler={cfg.scheduler} polarization={cfg.ue_polarization} "
            f"velocity={cfg.ue_velocity:g} seed={cfg.seed}")


def _sweep_groups(points, n_workers):
    """Lists of indices into ``points``, one per sweep group.

    The points of one (velocity, seed) differ only in scheduler and
    polarization, so they form one group, polarization-major. While there
    are fewer groups than ``n_workers``, the largest one is halved, which
    splits it by polarization first.
    """
    by_key = {}
    for i, p in enumerate(points):
        by_key.setdefault((p.ue_velocity, p.seed), []).append(i)
    groups = [sorted(g, key=lambda i: points[i].ue_polarization)
              for g in by_key.values()]
    while len(groups) < n_workers:
        big = max(groups, key=len)
        if len(big) == 1:
            break
        groups.remove(big)
        groups += [big[:len(big) // 2], big[len(big) // 2:]]
    return groups


def run_sweep(base, velocities=None, polarizations=None, schedulers=None,
              seeds=None, parallelism=1):
    """Run the cartesian sweep and return (ResultsTable, failure list).

    The points of one (velocity, seed) run as lanes of one group (see
    ``engine._run_lanes``), so the records, in point order, are the same
    whatever the grouping or ``parallelism``. Workers take whole groups,
    split only when there are fewer groups than workers. Failed points are
    returned and listed under ``failures`` in the table's metadata. A worker
    process that dies breaks the pool: the groups that finished keep their
    records, and every point left unfinished fails as ``<point>: worker
    process died``. An exception that interrupts the wait for the workers,
    such as ``KeyboardInterrupt``, ends them before it propagates.
    ``parallelism``, the most worker processes to use, must be an int of at
    least 1; anything else, a bool included, raises ``ValueError``.
    """
    if isinstance(parallelism, bool) \
            or not isinstance(parallelism, numbers.Integral) \
            or parallelism < 1:
        raise ValueError(
            f"parallelism must be an int >= 1, got {parallelism!r}")
    points = expand_sweep(base, velocities, polarizations, schedulers,
                          seeds)
    workers = min(parallelism, len(points))
    groups = _sweep_groups(points, workers)
    tasks = [[points[i] for i in g] for g in groups]
    if workers > 1:
        # imported here: only a parallel sweep needs the process pool, and
        # importing it adds about twenty modules to every import of mmwsim
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"))
        try:
            futures = {pool.submit(_run_group, task): n
                       for n, task in enumerate(tasks)}
            results = [None] * len(tasks)
            for done, future in enumerate(as_completed(futures), 1):
                n = futures[future]
                try:
                    results[n] = future.result()
                except BrokenProcessPool:
                    results[n] = [("error", f"{_label(c)}: worker process died")
                                  for c in tasks[n]]
                log.info("sweep: %d of %d groups done", done, len(tasks))
        except BaseException:
            # the wait was interrupted (a signal handler raised, or
            # Ctrl-C): end this pool's workers, which may never return,
            # instead of waiting for them. The pool's own thread then finds
            # them gone and joins them; joining them here as well would
            # race it for their exit status.
            for process in list((pool._processes or {}).values()):
                process.terminate()
            raise
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = [_run_group(task) for task in tasks]

    outcomes = [None] * len(points)
    for g, result in zip(groups, results):
        for i, outcome in zip(g, result):
            outcomes[i] = outcome
    records, failures = [], []
    for status, payload in outcomes:
        (records if status == "ok" else failures).append(payload)

    table = ResultsTable(records=records,
                         metadata=_sweep_metadata(base, points, failures))
    return table, failures


def _sweep_metadata(base, points, failures=()):
    text = scenario_to_text(base)
    return {
        "failures": list(failures),
        "package_version": __version__,
        "columns": list(RESULT_COLUMNS),
        "n_points": len(points),
        "base_config_sha256": hashlib.sha256(
            text.encode("utf-8")).hexdigest(),
        "schedulers": sorted({p.scheduler for p in points}),
        "polarizations": sorted({p.ue_polarization for p in points}),
        "velocities_kmph": sorted({p.ue_velocity for p in points}),
        "seeds": sorted({p.seed for p in points}),
    }


def emit_csv(table, path):
    """Write the results table as CSV plus a deterministic JSON sidecar.

    The CSV holds only the header and data rows. Run metadata (package
    version, config hash, sweep axes, failed points) goes to
    ``<path stem>.meta.json``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in table.rows():
            fh.write(",".join(row) + "\n")
    with open(os.path.splitext(path)[0] + ".meta.json", "w",
              encoding="utf-8") as fh:
        json.dump(table.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
