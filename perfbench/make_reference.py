"""Pin the reference KPIs the benchmark checks every point against.

    python3 perfbench/make_reference.py --seeds 1 2 3

runs each workload that owns a reference (workloads such as
``small_grid_par`` share another's) serially at the given seeds and merges
the records into ``perfbench/reference.json``. Pin only from a commit whose
KPIs are known good: a later change is checked against these numbers.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import use_checkout_sources  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        sys.exit("make_reference: no mmwsim sources under src/")

    from perfbench.kpicheck import REFERENCE_PATH, load_reference, \
        record_dict
    from perfbench.workloads import WORKLOADS

    reference = load_reference() if REFERENCE_PATH.exists() else {}
    for w in WORKLOADS.values():
        if w.reference is not None:
            continue
        for seed in args.seeds:
            table, failures = w.run(seed)
            if failures:
                sys.exit(f"make_reference: {w.name} seed {seed}: {failures}")
            rows = [record_dict(r) for r in table.sorted_records()]
            reference.setdefault(w.name, {})[str(seed)] = rows
            print(f"{w.name} seed {seed}: {len(rows)} records", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
