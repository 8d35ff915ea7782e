"""The trend sweep's records equal the benchmark's stored reference KPIs.

``perfbench/reference.json`` pins the ``small_grid`` workload's records,
the ``small`` preset over {RR, PF} x {LPOL, XPOL} x {0, 120} kmph, per
seed. The trend sweep runs the same points for seeds 1-5, so each of its
records must equal the stored one exactly, not merely within the
benchmark's tolerance: a KPI change fails here, in the tests, and not only
in a benchmark run.
"""

import dataclasses
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" \
    / "reference.json"


def _key(row):
    return (row["scheduler"], row["polarization"], row["velocity_kmph"],
            row["seed"])


def test_trend_sweep_equals_the_benchmark_reference(trend_sweep):
    with open(REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh)["small_grid"]
    got = sorted((dataclasses.asdict(r) for r in trend_sweep.table.records),
                 key=_key)
    seeds = sorted({row["seed"] for row in got})
    assert seeds == [1, 2, 3, 4, 5]
    want = sorted((row for seed in seeds for row in stored[str(seed)]),
                  key=_key)
    assert len(got) == 40
    # JSON stores each float's shortest repr, which reads back exactly
    assert got == want
