"""Outside-in tracing of one mmwsim run, kept entirely in the benchmark.

The tracer wraps the callables ``run_simulation`` looks up while it runs:
names in ``mmwsim.engine``'s own namespace (the engine imports its helpers
there, so patching ``mmwsim.link.*`` would never be seen), methods on the
classes the engine instantiates, and ``mmwsim.run_sweep`` for the
benchmark's own call. Each call becomes a span ``(id, parent, name, start,
end)`` kept in memory. A span's self time is its duration minus the part of
it that its child spans cover.

Pool workers forked inside a traced ``run_sweep`` inherit the wrappers and
the open ``run_sweep`` span; each writes its spans to a file when its point
finishes and the parent merges them, so the pool's own cost shows up as the
self time of ``engine.run_sweep``.
"""

import functools
import importlib
import json
import os
import time
import warnings
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("config", "deployment", "antenna", "channel", "link", "scheduler",
          "kpi", "engine")

_ENGINE = "mmwsim.engine"

# (span name, owner, attribute). The owner is a module, or "module:Class"
# for a method. The first part of the span name is the layer: the module
# that defines the callable, wherever it is patched. Targets may share a
# span name.
TARGETS = (
    ("config.expand_sweep", _ENGINE, "expand_sweep"),
    ("config.scenario_to_text", _ENGINE, "scenario_to_text"),
    ("deployment.build_hex_layout", _ENGINE, "build_hex_layout"),
    ("deployment.drop_ues", _ENGINE, "drop_ues"),
    ("deployment.assign_serving_cell", _ENGINE, "assign_serving_cell"),
    ("deployment.step_mobility", _ENGINE, "step_mobility"),
    ("antenna.AntennaConfig.from_scenario", _ENGINE + ":AntennaConfig",
     "from_scenario"),
    ("antenna.combined_gain", _ENGINE, "combined_gain"),
    ("antenna.port_coupling_series", _ENGINE, "port_coupling_series"),
    ("channel.doppler_frequency", _ENGINE, "doppler_frequency"),
    ("channel.los_probability", _ENGINE, "los_probability"),
    ("channel.pathloss_uma", _ENGINE, "pathloss_uma"),
    ("channel.depolarization_coherence", _ENGINE,
     "depolarization_coherence"),
    ("channel.FadingDesign.__post_init__", _ENGINE + ":FadingDesign",
     "__post_init__"),
    ("channel.FadingDesign.draw_sinusoids", _ENGINE + ":FadingDesign",
     "draw_sinusoids"),
    ("channel.FadingDesign.mix_taps", _ENGINE + ":FadingDesign", "mix_taps"),
    ("channel.SosProcess.__init__", _ENGINE + ":SosProcess", "__init__"),
    ("channel.SosProcess.current", _ENGINE + ":SosProcess", "current"),
    ("channel.SosProcess.advance", _ENGINE + ":SosProcess", "advance"),
    ("link.build_codebook", _ENGINE, "build_codebook"),
    ("link.stack_codebook", _ENGINE, "stack_codebook"),
    ("link.noise_power_w", _ENGINE, "noise_power_w"),
    ("link.mmse_sinr_from_covariance", _ENGINE, "mmse_sinr_from_covariance"),
    ("link.sinr_to_rate", _ENGINE, "sinr_to_rate"),
    ("scheduler.SchedulerState.fresh", _ENGINE + ":SchedulerState", "fresh"),
    # one metric for both disciplines: a point runs only one of them, and a
    # callable a workload never calls would report a time that is always 0
    ("scheduler.schedule", _ENGINE, "schedule_rr"),
    ("scheduler.schedule", _ENGINE, "schedule_pf"),
    ("scheduler.update_average_throughput", _ENGINE,
     "update_average_throughput"),
    ("kpi.ThroughputLedger.add", _ENGINE + ":ThroughputLedger", "add"),
    ("kpi.ThroughputLedger.throughputs", _ENGINE + ":ThroughputLedger",
     "throughputs"),
    ("kpi.average_ue_throughput", _ENGINE, "average_ue_throughput"),
    ("kpi.spectral_efficiency", _ENGINE, "spectral_efficiency"),
    ("kpi.jain_fairness", _ENGINE, "jain_fairness"),
    ("engine.run_sweep", "mmwsim", "run_sweep"),
    ("engine.run_simulation", _ENGINE, "run_simulation"),
    ("engine._rng", _ENGINE, "_rng"),
    ("engine._wideband_gain_db", _ENGINE, "_wideband_gain_db"),
    ("engine._build_linkset", _ENGINE, "_build_linkset"),
    ("engine._ChannelBank.__init__", _ENGINE + ":_ChannelBank", "__init__"),
    ("engine._ChannelBank.current", _ENGINE + ":_ChannelBank", "current"),
    ("engine._ChannelBank.advance", _ENGINE + ":_ChannelBank", "advance"),
    ("engine._LinkAdapter.__init__", _ENGINE + ":_LinkAdapter", "__init__"),
    ("engine._LinkAdapter.interference", _ENGINE + ":_LinkAdapter",
     "interference"),
    ("engine._LinkAdapter.select", _ENGINE + ":_LinkAdapter", "select"),
    ("engine._LinkAdapter.rates", _ENGINE + ":_LinkAdapter", "rates"),
    ("engine._scheduler_states", _ENGINE, "_scheduler_states"),
    ("engine._schedule_cell", _ENGINE, "_schedule_cell"),
)


# Probes turn a call's arguments and result into counters. ``before`` runs
# ahead of the span, ``after`` once it has closed, so neither is timed.

def _interference_after(tracer, args, result, _):
    h = args[1]   # (n_links, n_rb, n_rx, n_tx); covariance is n_rx x n_rx
    size = h.shape[0] * h.shape[1] * h.shape[2] ** 2 * result.dtype.itemsize
    tracer.peak("engine._LinkAdapter.interference.bytes", size)


def _mmse_after(tracer, args, result, _):
    tracer.count("link.mmse_sinr_from_covariance.matrices",
                 int(np.prod(args[1].shape[:-2])))


def _adapter_init_after(tracer, args, result, _):
    tracer.state.pop(("select", id(args[0])), None)


def _select_after(tracer, args, result, _):
    idx = np.asarray(result[1])
    key = ("select", id(args[0]))
    prev = tracer.state.get(key)
    if prev is not None and prev.shape == idx.shape:
        tracer.count("select.compared", idx.size)
        tracer.count("select.changed", int(np.count_nonzero(idx != prev)))
    tracer.state[key] = idx.copy()


def _sos_init_after(tracer, args, result, _):
    sos = args[0]
    tracer.peak("channel.SosProcess.state_bytes",
                sos.state.nbytes + sos.step.nbytes)


def _mobility_before(args):
    return (args[0].x, args[0].y)


def _mobility_after(tracer, args, result, before):
    moved = (args[0].x, args[0].y) != before
    tracer.count("step_mobility.useful", int(moved))


PROBES = {
    "engine._LinkAdapter.interference": (None, _interference_after),
    "link.mmse_sinr_from_covariance": (None, _mmse_after),
    "engine._LinkAdapter.__init__": (None, _adapter_init_after),
    "engine._LinkAdapter.select": (None, _select_after),
    "channel.SosProcess.__init__": (None, _sos_init_after),
    "deployment.step_mobility": (_mobility_before, _mobility_after),
}


def _target_names():
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


def metric_units():
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in _target_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "engine._LinkAdapter.interference.bytes": "B",
        "link.mmse_sinr_from_covariance.matrices": "count",
        "engine._LinkAdapter.select.changed_frac": "ratio",
        "channel.SosProcess.state_bytes": "B",
        "deployment.step_mobility.useful_frac": "ratio",
        "trace.unattributed_frac": "ratio",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "check.failed_frac": "ratio",
        "check.kpi_max_rel_dev": "ratio",
        "check.ref_points": "count",
    })
    return units


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}.

    Children that overlap each other (pool workers running side by side)
    are counted once, so self time is never negative.
    """
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered_length(children.get(sid, ()),
                                                start, end)
            for sid, _, _, start, end in spans}


def _resolve(owner_path):
    module, _, cls = owner_path.partition(":")
    try:
        owner = importlib.import_module(module)
        return getattr(owner, cls) if cls else owner
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span recorder that patches the engine's callables while installed.

    ``worker_dir`` is where forked pool workers leave their spans for
    :meth:`collect_workers`. ``clock`` is injectable for tests.
    """

    def __init__(self, worker_dir, clock=time.perf_counter):
        self.worker_dir = Path(worker_dir)
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.peaks = {}
        self.state = {}
        self.items = []          # (start, end) of each traced pass
        self.missing = []
        self._stack = []
        self._seq = 0
        self._pid = self._root_pid = os.getpid()
        self._fork_depth = 0
        self._patches = []
        self._disabled_probes = set()
        ref = weakref.ref(self)
        os.register_at_fork(
            after_in_child=lambda: ref() is not None and ref()._after_fork())

    # -- counters ---------------------------------------------------------

    def count(self, name, value):
        self.counters[name] += value

    def peak(self, name, value):
        self.peaks[name] = max(value, self.peaks.get(name, value))

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        before, after = PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer._probe(name, before, args) if before else None
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._seq += 1
            sid = (tracer._pid << 32) | tracer._seq
            stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if after is not None:
                tracer._probe(name, after, tracer, args, result, token)
            if tracer._pid != tracer._root_pid \
                    and len(stack) == tracer._fork_depth:
                tracer._flush_worker()
            return result

        return traced

    def _probe(self, name, probe, *args):
        if name in self._disabled_probes:
            return None
        try:
            return probe(*args)
        except Exception as exc:   # noqa: BLE001 - counters must not fail a run
            self._disabled_probes.add(name)
            warnings.warn(f"perfbench: counter probe for {name} disabled: "
                          f"{type(exc).__name__}: {exc}", stacklevel=2)
            return None

    def install(self):
        """Patch every target that exists; warn about and skip the rest."""
        for name, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
            else:
                raw = getattr(owner, attr, None) if owner else None
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(name, raw.__func__))
            elif callable(raw):
                new = self.wrap(name, raw)
            else:
                if name not in self.missing:
                    self.missing.append(name)
                    warnings.warn(f"perfbench: trace target {owner_path}."
                                  f"{attr} not found; its spans are dropped",
                                  stacklevel=2)
                continue
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- pool workers -----------------------------------------------------

    def _after_fork(self):
        self._pid = os.getpid()
        self._fork_depth = len(self._stack)
        self.spans = []
        self.counters = defaultdict(float)
        self.peaks = {}

    def _worker_file(self, pid):
        return self.worker_dir / f"worker-{self._root_pid}-{pid}.jsonl"

    def _flush_worker(self):
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        with open(self._worker_file(self._pid), "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans,
                                 "counters": self.counters,
                                 "peaks": self.peaks}) + "\n")
        self.spans = []
        self.counters = defaultdict(float)
        self.peaks = {}

    def collect_workers(self):
        """Merge and delete what forked workers of this tracer wrote."""
        for path in sorted(self.worker_dir.glob(
                f"worker-{self._root_pid}-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    part = json.loads(line)
                    self.spans.extend(tuple(s) for s in part["spans"])
                    for k, v in part["counters"].items():
                        self.count(k, v)
                    for k, v in part["peaks"].items():
                        self.peak(k, v)
            path.unlink()

    # -- results ----------------------------------------------------------

    def traced_pass(self, run):
        """Run ``run()`` with the wrappers installed as one traced pass."""
        with self:
            start = self.clock()
            try:
                return run()
            finally:
                self.items.append((start, self.clock()))
                self.collect_workers()

    def unattributed_frac(self):
        """Share of traced wall time, in this process, outside every span."""
        roots = [(s, e) for sid, parent, _, s, e in self.spans
                 if parent is None and sid >> 32 == self._root_pid]
        wall = sum(e - s for s, e in self.items)
        if wall <= 0:
            return 0.0
        inside = sum(covered_length(roots, s, e) for s, e in self.items)
        return (wall - inside) / wall

    def layer_metrics(self):
        """Per-layer values per traced pass, keyed as in metric_units()."""
        n = max(len(self.items), 1)
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _, name, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
        out = {}
        for name in _target_names():
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_s"] = self_s[name] / n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items()
                if k.split(".", 1)[0] == layer) / n
        compared = self.counters["select.compared"]
        moves = calls["deployment.step_mobility"]
        out.update({
            "engine._LinkAdapter.interference.bytes":
                self.peaks.get("engine._LinkAdapter.interference.bytes", 0),
            "link.mmse_sinr_from_covariance.matrices":
                self.counters["link.mmse_sinr_from_covariance.matrices"] / n,
            "engine._LinkAdapter.select.changed_frac":
                self.counters["select.changed"] / compared if compared else 0.0,
            "channel.SosProcess.state_bytes":
                self.peaks.get("channel.SosProcess.state_bytes", 0),
            "deployment.step_mobility.useful_frac":
                self.counters["step_mobility.useful"] / moves if moves else 0.0,
            "trace.unattributed_frac": self.unattributed_frac(),
            "trace.spans": len(self.spans) / n,
        })
        return out

    def write_spans(self, path):
        """Write every span as one JSON list per line: id, parent, name,
        start, end (seconds on the monotonic clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
