"""Output checks: stored reference KPIs and invariants every point must meet."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

KEY_FIELDS = ("scheduler", "polarization", "velocity_kmph", "seed")
KPI_FIELDS = ("avg_ue_throughput_bps", "spectral_efficiency_bps_hz",
              "fairness_index", "n_ues", "bandwidth_hz")
# a point whose KPI moves by more than this share of the reference fails
REL_TOL = 1e-6


def record_key(rec):
    return tuple(getattr(rec, f) for f in KEY_FIELDS)


def point_key(cfg):
    """The record key a sweep point's ScenarioConfig will produce."""
    return (cfg.scheduler, cfg.ue_polarization, cfg.ue_velocity, cfg.seed)


def record_dict(rec):
    return dataclasses.asdict(rec)


def kpi_digest(records):
    """Short hash of every KPI field, for comparing runs by eye."""
    rows = sorted(json.dumps(record_dict(r), sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference, workload_key, seed):
    """{record key: KPI dict} stored for this workload and seed, or None."""
    rows = reference.get(workload_key, {}).get(str(seed))
    if rows is None:
        return None
    return {tuple(r[f] for f in KEY_FIELDS): r for r in rows}


def invariant_errors(rec):
    errors = []
    values = [getattr(rec, f) for f in KPI_FIELDS]
    if not all(math.isfinite(v) for v in values):
        errors.append(f"non-finite KPI {values}")
        return errors
    if rec.n_ues <= 0:
        errors.append(f"n_ues {rec.n_ues} <= 0")
        return errors
    if not 1.0 / rec.n_ues - 1e-12 <= rec.fairness_index <= 1.0 + 1e-12:
        errors.append(f"Jain index {rec.fairness_index!r} outside "
                      f"[1/{rec.n_ues}, 1]")
    if rec.avg_ue_throughput_bps < 0 or rec.spectral_efficiency_bps_hz < 0:
        errors.append("negative throughput")
    return errors


def rel_dev(got, ref):
    if got == ref:
        return 0.0
    if ref == 0:
        return math.inf
    return abs(got - ref) / abs(ref)


@dataclasses.dataclass
class PassCheck:
    """Outcome of checking one workload pass."""
    attempted: int
    failed: int
    max_rel_dev: float        # largest KPI deviation from the reference
    ref_points: int           # points that had a stored reference
    problems: list


def check_pass(records, failures, expected, reference):
    """Check a pass's records against its expected points.

    ``expected`` lists the point keys the sweep should have produced and
    ``reference`` maps keys to stored KPIs (None when this seed has none, in
    which case only the invariants are checked). A point fails if it raised,
    is missing or duplicated, breaks an invariant or moves past ``REL_TOL``.
    """
    by_key = {}
    for rec in records:
        by_key.setdefault(record_key(rec), []).append(rec)
    problems = list(failures)
    failed, max_dev, n_ref = 0, 0.0, 0
    for key in expected:
        got = by_key.get(key, [])
        if len(got) != 1:
            failed += 1
            problems.append(f"{key}: {len(got)} records")
            continue
        rec = got[0]
        errors = invariant_errors(rec)
        ref = None if reference is None else reference.get(key)
        if reference is not None and ref is None:
            errors.append("missing from the reference")
        if ref is not None:
            n_ref += 1
            dev = max(rel_dev(getattr(rec, f), ref[f]) for f in KPI_FIELDS)
            max_dev = max(max_dev, dev)
            if dev > REL_TOL:
                errors.append(f"KPI deviates {dev:.3g} from the reference")
        if errors:
            failed += 1
            problems.extend(f"{key}: {e}" for e in errors)
    unexpected = set(by_key) - set(expected)
    problems.extend(f"{key}: not a point of this sweep" for key in unexpected)
    return PassCheck(attempted=len(expected), failed=failed,
                     max_rel_dev=max_dev, ref_points=n_ref,
                     problems=problems)
