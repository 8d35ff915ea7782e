"""The trend sweep's records equal the benchmark's stored reference KPIs.

``perfbench/reference.json`` pins the ``small_grid`` workload's records,
the ``small`` preset over {RR, PF} x {LPOL, XPOL} x {0, 120} kmph, per
seed. The trend sweep runs the same points for seeds 1-5, so each of its
records must equal the stored one exactly, not merely within the
benchmark's tolerance: a KPI change fails here, in the tests, and not only
in a benchmark run.

``data/small_trend_seeds_1_20`` is the same grid at seeds 1-20: a CSV of
KPIs at 6 significant digits, and a JSON of the full records.
"""

import dataclasses
import json
from pathlib import Path

from mmwsim import RESULT_COLUMNS, KpiRecord, ResultsTable

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
TREND = ROOT / "data" / "small_trend_seeds_1_20"


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


def test_the_trend_baseline_holds_its_csv_at_full_precision():
    with open(TREND.with_suffix(".json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    table = ResultsTable([KpiRecord(**row) for row in rows])
    # the CSV's rows, in its order, are the records as the sweep writes them
    assert table.sorted_records() == table.records and len(rows) == 160
    csv = "".join(",".join(row) + "\n"
                  for row in [RESULT_COLUMNS, *table.rows()])
    assert TREND.with_suffix(".csv").read_text(encoding="utf-8") == csv
    # seeds 1-10 are the benchmark's reference, exactly
    with open(REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh)["small_grid"]
    want = sorted((row for seed in range(1, 11) for row in stored[str(seed)]),
                  key=_key)
    assert sorted((row for row in rows if row["seed"] <= 10),
                  key=_key) == want
