"""Shared fixtures: the velocity-trend sweep reused by the acceptance gate."""

import time

import numpy as np
import pytest

import mmwsim.engine as engine
from mmwsim import preset, run_sweep

TREND_VELOCITIES = (0.0, 120.0)
TREND_SEEDS = (1, 2, 3, 4, 5)


class TrendSweep:
    """Seed-mean access to the {0, 120} kmph x pol x scheduler sweep."""

    def __init__(self, table, failures, elapsed_s, select_stats):
        self.table = table
        self.failures = failures
        self.elapsed_s = elapsed_s
        # each group's precoder-selection counters
        self.select_stats = select_stats

    def records(self, scheduler, polarization, velocity):
        return [r for r in self.table.records
                if r.scheduler == scheduler
                and r.polarization == polarization
                and r.velocity_kmph == velocity]

    def mean(self, metric, scheduler, polarization, velocity):
        values = [getattr(r, metric)
                  for r in self.records(scheduler, polarization, velocity)]
        assert len(values) == len(TREND_SEEDS)
        return float(np.mean(values))


@pytest.fixture(scope="session")
def trend_sweep():
    select_stats = []
    log_stages = engine._log_stages

    def keep_stats(cfg, group):
        select_stats.append(dict(group.select_stats))
        log_stages(cfg, group)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_log_stages", keep_stats)
        start = time.monotonic()
        table, failures = run_sweep(preset("small"),
                                    velocities=TREND_VELOCITIES,
                                    polarizations=("LPOL", "XPOL"),
                                    schedulers=("RR", "PF"),
                                    seeds=TREND_SEEDS,
                                    parallelism=1)
        elapsed_s = time.monotonic() - start
    return TrendSweep(table, failures, elapsed_s, select_stats)
