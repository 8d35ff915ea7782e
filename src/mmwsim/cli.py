"""Command-line front end.

``simulate`` runs one scenario point by default and prints its KPIs; with
``--sweep`` it runs the velocity x polarization x scheduler x seed grid
and writes the results table as CSV (plus a JSON metadata sidecar).

Exit codes: 0 success, 1 configuration/usage error or an output path that
cannot be written (checked before anything runs, so no result is lost), 2
sweep finished with failed points, among them any point left unfinished
by a worker process that died. Set MMWSIM_LOG=info for progress logging, or debug to add each
sweep group's seconds per stage and precoder-selection counters; an
unknown level is a configuration error.
"""

import argparse
import logging
import os
import sys

from .channel import _cpu_count
from .config import DEFAULT_SWEEP_SEEDS, DEFAULT_SWEEP_VELOCITIES, \
    POLARIZATIONS, SCHEDULERS, ScenarioError, _parse_value, load_scenario, \
    preset
from .engine import EngineError, run_simulation
from .sweep import ResultsTable, _sweep_metadata, emit_csv, run_sweep


def _int_list(text):
    """Seed lists: '1..5' (inclusive) or '1,2,3'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _name_list(text):
    return [tok.strip().upper() for tok in text.split(",") if tok.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Downlink simulator for small-cell mmWave scenarios: "
                    "polarization and scheduler study.")
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--config", metavar="PATH",
                     help="scenario file (key = value lines)")
    src.add_argument("--preset", choices=("paper", "small"),
                     help="named scenario preset (default: paper scale)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one scenario key (repeatable)")
    parser.add_argument("--out", metavar="PATH",
                        help="results CSV path (default for sweeps: "
                             "results.csv; single runs print to stdout)")
    parser.add_argument("--sweep", action="store_true",
                        help="run the full study grid (implied by any "
                             "sweep axis flag)")
    parser.add_argument("--sweep-velocities", type=_float_list,
                        metavar="LIST", dest="velocities",
                        help="sweep velocities in kmph, e.g. 0,60,120 "
                             "(default 0..120 step 20)")
    parser.add_argument("--polarizations", type=_name_list, metavar="LIST",
                        help="sweep receiver polarizations (default both)")
    parser.add_argument("--schedulers", type=_name_list, metavar="LIST",
                        help="sweep schedulers (default both)")
    parser.add_argument("--seeds", type=_int_list, metavar="LIST",
                        help="sweep seeds: '1..5' or '1,2,3' (default 1..5)")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="worker processes for sweeps; 0 = every CPU "
                             "this process may run on")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="write layout/allocation/channel traces "
                             "(single runs only)")
    return parser


def _load_base(args):
    if args.config is not None:
        return load_scenario(args.config)
    if args.preset is not None:
        return preset(args.preset)
    return preset("paper")


def _apply_overrides(cfg, overrides):
    changes = {}
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        changes[key] = _parse_value(key, raw.strip())
    return cfg.replace(**changes) if changes else cfg


def _print_record(record, out=None):
    out = sys.stdout if out is None else out
    out.write(f"scheduler={record.scheduler} "
              f"polarization={record.polarization} "
              f"velocity_kmph={record.velocity_kmph:g} "
              f"seed={record.seed} n_ues={record.n_ues}\n")
    out.write(f"avg_ue_throughput_mbps={record.avg_ue_throughput_mbps:.6g}\n")
    out.write("spectral_efficiency_bps_hz="
              f"{record.spectral_efficiency_bps_hz:.6g}\n")
    out.write(f"fairness_index={record.fairness_index:.6g}\n")


def _check_writable(*paths):
    """Raise OSError unless the files ``paths`` can be written; add none."""
    for path in paths:
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:   # --help
            raise
        # argparse exits 2 on a usage error; 2 means failed sweep points here
        return 1
    level = (os.environ.get("MMWSIM_LOG") or "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"simulate: MMWSIM_LOG: unknown level {level.lower()!r} "
              "(debug, info, warning, error or critical)", file=sys.stderr)
        return 1
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")

    axis_flags = (args.velocities, args.polarizations, args.schedulers,
                  args.seeds)
    sweep = args.sweep or any(a is not None for a in axis_flags)
    if sweep and args.trace_dir:
        print("simulate: --trace-dir applies to single runs only",
              file=sys.stderr)
        return 1

    out = args.out or ("results.csv" if sweep else None)
    try:
        cfg = _apply_overrides(_load_base(args), args.overrides)
        if out:
            _check_writable(out, os.path.splitext(out)[0] + ".meta.json")
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            _check_writable(os.path.join(args.trace_dir, "sites.csv"))
    except (ScenarioError, OSError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1

    parallel = _cpu_count() if args.parallel == 0 else args.parallel
    if parallel < 1:
        print("simulate: --parallel must be >= 0", file=sys.stderr)
        return 1

    if not sweep:
        try:
            record = run_simulation(cfg, trace_dir=args.trace_dir)
        except (ScenarioError, EngineError, ValueError) as exc:
            print(f"simulate: {exc}", file=sys.stderr)
            return 1
        _print_record(record)
        if out:
            table = ResultsTable(records=[record],
                                 metadata=_sweep_metadata(cfg, [cfg]))
            emit_csv(table, out)
            print(f"wrote {out}")
        return 0

    velocities = (DEFAULT_SWEEP_VELOCITIES if args.velocities is None
                  else args.velocities)
    pols = POLARIZATIONS if args.polarizations is None else args.polarizations
    scheds = SCHEDULERS if args.schedulers is None else args.schedulers
    seeds = DEFAULT_SWEEP_SEEDS if args.seeds is None else args.seeds

    try:
        table, failures = run_sweep(
            cfg, velocities=velocities, polarizations=pols,
            schedulers=scheds, seeds=seeds, parallelism=parallel)
    except ScenarioError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1

    emit_csv(table, out)
    print(f"sweep: {len(table.records)} points ok, {len(failures)} failed; "
          f"wrote {out}")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
