"""Outside-in layer tracing: wrap each layer's public functions, record spans.

The program is not edited.  Each target is named by module and attribute
(``"repro.graphs.io", "load_npz"`` or ``"repro.dynamic.wal",
"WriteAheadLog.append"``).  A module-level function is replaced in *every*
loaded ``repro`` module that bound it by name (``from x import f``), a
method on its class.  A target that no longer exists, or a count hook that
no longer fits, makes the metrics that depend on it ``absent`` instead of
failing the run or reading as zero.

Spans are ``[name, start, end, parent]`` lists kept in memory; counts are
recorded by hooks at the same boundaries.  Recursive calls of one target
(``load_manifest`` re-enters itself with the file's lines) are marked
nested and left out of that target's time, so nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


# -- count hooks: (counts, args, kwargs, result, before) -> None ----------- #
def _file_size(path) -> int:
    return os.path.getsize(os.fspath(path))


def _solve_counts(c, args, kwargs, res, pre):
    c["mpc_mwvc.phases"] += int(res.num_phases)
    c["mpc_mwvc.mpc_rounds"] += int(res.mpc_rounds)
    c["mpc_mwvc.final_edges"] += int(res.final_edges)


def _centralized_counts(c, args, kwargs, res, pre):
    c["centralized.iterations"] += int(res.iterations)


def _decode_counts(c, args, kwargs, res, pre):
    c["ingest.events"] += len(res)


def _apply_counts(c, args, kwargs, res, pre):
    c["repair.repaired_edges"] += int(res.repaired_edges)


def _prune_counts(c, args, kwargs, res, pre):
    candidates = args[0] if args else kwargs["candidates"]
    c["repair.prune_candidates"] += len(candidates)
    c["repair.pruned"] += len(res)


def _compactions_before(args, kwargs):
    return int(args[0].compactions)


def _compactions_after(c, args, kwargs, res, pre):
    c["dynamic_graph.compactions"] += int(args[0].compactions) - pre


def _wal_before(args, kwargs):
    return _file_size(args[0].path)


def _wal_after(c, args, kwargs, res, pre):
    c["wal.bytes"] += _file_size(args[0].path) - pre


def _snapshot_counts(c, args, kwargs, res, pre):
    c["checkpoint.snapshots"] += 1
    c["checkpoint.snapshot_bytes"] += _file_size(args[0] if args else kwargs["path"])


def _input_copy_counts(c, args, kwargs, res, pre):
    c["updates.input_copy_bytes"] += _file_size(args[1] if len(args) > 1 else kwargs["path"])


def _resolve_counts(c, args, kwargs, res, pre):
    c["service.resolve_cache_hits"] += int(bool(res.cache_hit))


def _policy_counts(c, args, kwargs, res, pre):
    c["policy.resolves"] += int(bool(res))


def _solve_batch_counts(c, args, kwargs, res, pre):
    solver = args[0]
    c["batch.worker_busy_s"] += sum(float(r.elapsed) for r in res)
    c["batch.cache_hits"] += sum(int(bool(r.cache_hit)) for r in res)
    workers = (solver.max_workers or os.cpu_count() or 1) if solver.use_processes else 1
    c["batch.worker_share_s"] += sum(float(r.elapsed) for r in res) / workers


@dataclass(frozen=True)
class Target:
    """One wrapped boundary and the count metrics its hooks feed."""

    span: str
    module: str
    attr: str
    counts: Tuple[str, ...] = ()
    after: Optional[Callable] = None
    before: Optional[Callable] = None


TARGETS = [
    Target("io.load_npz", "repro.graphs.io", "load_npz"),
    Target("mpc_mwvc.solve", "repro.core.mpc_mwvc", "minimum_weight_vertex_cover",
           counts=("mpc_mwvc.phases", "mpc_mwvc.mpc_rounds", "mpc_mwvc.final_edges"),
           after=_solve_counts),
    Target("phase_kernel.plan", "repro.core.phase_kernel", "plan_phase"),
    Target("phase_kernel.simulate", "repro.core.phase_kernel", "simulate_phase_vectorized"),
    Target("phase_kernel.apply", "repro.core.phase_kernel", "apply_outcome"),
    Target("centralized.run", "repro.core.centralized", "run_centralized",
           counts=("centralized.iterations",), after=_centralized_counts),
    Target("certificates.certify", "repro.core.certificates", "certify_cover"),
    Target("ingest.decode", "repro.dynamic.ingest", "UpdateSource.collect",
           counts=("ingest.events",), after=_decode_counts),
    Target("maintainer.apply_batch", "repro.dynamic.maintainer",
           "IncrementalCoverMaintainer.apply_batch",
           counts=("repair.repaired_edges",), after=_apply_counts),
    Target("maintainer.adopt", "repro.dynamic.maintainer", "IncrementalCoverMaintainer.adopt"),
    Target("repair.pricing", "repro.dynamic.repair", "pricing_repair_pass"),
    Target("repair.prune", "repro.dynamic.repair", "greedy_prune_pass",
           counts=("repair.prune_candidates", "repair.pruned"), after=_prune_counts),
    Target("repair.certificate", "repro.dynamic.repair", "certificate_from_state"),
    Target("dynamic_graph.compact", "repro.dynamic.dynamic_graph", "DynamicGraph.compact",
           counts=("dynamic_graph.compactions",),
           before=_compactions_before, after=_compactions_after),
    Target("dynamic_graph.digest", "repro.dynamic.dynamic_graph", "DynamicGraph.content_digest"),
    Target("wal.append", "repro.dynamic.wal", "WriteAheadLog.append",
           counts=("wal.bytes",), before=_wal_before, after=_wal_after),
    Target("checkpoint.snapshot", "repro.dynamic.checkpoint", "save_snapshot",
           counts=("checkpoint.snapshots", "checkpoint.snapshot_bytes"),
           after=_snapshot_counts),
    Target("updates.input_copy", "repro.graphs.updates", "save_update_stream",
           counts=("updates.input_copy_bytes",), after=_input_copy_counts),
    Target("service.resolve", "repro.service.batch", "BatchSolver.solve",
           counts=("service.resolve_cache_hits",), after=_resolve_counts),
    Target("policy.should_resolve", "repro.dynamic.policy", "ResolvePolicy.should_resolve",
           counts=("policy.resolves",), after=_policy_counts),
    Target("manifest.load", "repro.service.manifest", "load_manifest"),
    Target("schema.cache_key", "repro.service.schema", "SolveRequest.cache_key"),
    Target("batch.solve_batch", "repro.service.batch", "BatchSolver.solve_batch",
           counts=("batch.worker_busy_s", "batch.cache_hits", "batch.worker_share_s"),
           after=_solve_batch_counts),
]

#: Per-layer metrics: name -> (unit, how it is derived).  ``("time", span)``
#: sums a span's duration, ``("count", key)`` reads a hook count.
METRICS: Dict[str, tuple] = {
    "io.load_npz_s": ("s", ("time", "io.load_npz")),
    "mpc_mwvc.solve_s": ("s", ("time", "mpc_mwvc.solve")),
    "phase_kernel.plan_s": ("s", ("time", "phase_kernel.plan")),
    "phase_kernel.simulate_s": ("s", ("time", "phase_kernel.simulate")),
    "phase_kernel.apply_s": ("s", ("time", "phase_kernel.apply")),
    "centralized.run_s": ("s", ("time", "centralized.run")),
    "certificates.certify_s": ("s", ("time", "certificates.certify")),
    "mpc_mwvc.phases": ("count", ("count", "mpc_mwvc.phases")),
    "mpc_mwvc.mpc_rounds": ("count", ("count", "mpc_mwvc.mpc_rounds")),
    "mpc_mwvc.final_edges": ("count", ("count", "mpc_mwvc.final_edges")),
    "centralized.iterations": ("count", ("count", "centralized.iterations")),
    "ingest.decode_s": ("s", ("time", "ingest.decode")),
    "ingest.events": ("count", ("count", "ingest.events")),
    "maintainer.apply_batch_s": ("s", ("time", "maintainer.apply_batch")),
    "maintainer.apply_batch_p50_ms": ("ms", ("quantile", "maintainer.apply_batch", 50)),
    "maintainer.apply_batch_p90_ms": ("ms", ("quantile", "maintainer.apply_batch", 90)),
    "maintainer.apply_self_s": ("s", ("self", "maintainer.apply_batch")),
    "maintainer.adopt_s": ("s", ("time", "maintainer.adopt")),
    "repair.pricing_s": ("s", ("time", "repair.pricing")),
    "repair.prune_s": ("s", ("time", "repair.prune")),
    "repair.certificate_s": ("s", ("time", "repair.certificate")),
    "repair.repaired_edges": ("count", ("count", "repair.repaired_edges")),
    "repair.prune_candidates": ("count", ("count", "repair.prune_candidates")),
    "repair.pruned": ("count", ("count", "repair.pruned")),
    "repair.prune_yield": ("ratio", ("ratio", "repair.pruned", "repair.prune_candidates")),
    "dynamic_graph.compact_s": ("s", ("time", "dynamic_graph.compact")),
    "dynamic_graph.compactions": ("count", ("count", "dynamic_graph.compactions")),
    "dynamic_graph.digest_s": ("s", ("time", "dynamic_graph.digest")),
    "wal.append_s": ("s", ("time", "wal.append")),
    "wal.bytes": ("bytes", ("count", "wal.bytes")),
    "checkpoint.snapshot_s": ("s", ("time", "checkpoint.snapshot")),
    "checkpoint.snapshots": ("count", ("count", "checkpoint.snapshots")),
    "checkpoint.snapshot_bytes": ("bytes", ("count", "checkpoint.snapshot_bytes")),
    "updates.input_copy_s": ("s", ("time", "updates.input_copy")),
    "updates.input_copy_bytes": ("bytes", ("count", "updates.input_copy_bytes")),
    "service.resolve_s": ("s", ("time", "service.resolve")),
    "policy.resolves": ("count", ("count", "policy.resolves")),
    "service.resolve_cache_hits": ("count", ("count", "service.resolve_cache_hits")),
    "manifest.load_s": ("s", ("time", "manifest.load")),
    "schema.cache_key_s": ("s", ("time", "schema.cache_key")),
    "batch.solve_batch_s": ("s", ("time", "batch.solve_batch")),
    "batch.worker_busy_s": ("s", ("count", "batch.worker_busy_s")),
    "batch.dispatch_overhead_s": ("s", ("minus", "batch.solve_batch", "batch.worker_share_s")),
    "batch.cache_hits": ("count", ("count", "batch.cache_hits")),
}

#: Metrics that must repeat exactly across runs of one seed.
COUNT_METRICS = sorted(k for k, (unit, _) in METRICS.items() if unit in ("count", "bytes"))

#: Added by the caller, not derived from one traced invocation.
OVERHEAD_METRIC = "trace.overhead_frac"


class Tracer:
    """Span and count recorder for one traced invocation."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, nested]
        self.counts: Dict[str, float] = defaultdict(float)
        self.absent: set = set()  # span names and count keys not measured
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._patches: List[tuple] = []

    # -- patching ------------------------------------------------------ #
    def install(self, targets=TARGETS) -> None:
        for target in targets:
            try:
                self._install(target)
            except (ImportError, AttributeError, TypeError):
                self.absent.add(target.span)
                self.absent.update(target.counts)

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, name = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = inspect.getattr_static(owner, name)
            if not inspect.isfunction(original):
                raise TypeError(f"{target.attr} is not a plain method")
            self._patch(owner, name, self._wrap(target, original))
            return
        original = getattr(module, name)
        if not callable(original):
            raise TypeError(f"{target.attr} is not callable")
        wrapper = self._wrap(target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, target: Target, fn):
        tracer = self
        name = target.span
        before, after = target.before, target.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = tracer._hook(target, before, args, kwargs) if before else None
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer._active[name] > 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
            if after:
                tracer._hook(target, after, tracer.counts, args, kwargs, result, pre)
            return result

        return traced

    def _hook(self, target: Target, hook, *hook_args):
        """Run a count hook; a hook that no longer fits marks its counts
        absent and never disturbs the program."""
        try:
            return hook(*hook_args)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError):
            self.absent.update(target.counts)
            return None

    # -- results ------------------------------------------------------- #
    def layer_values(self) -> Dict[str, Optional[float]]:
        """Every per-layer metric of this invocation (None when absent)."""
        durations: Dict[str, List[float]] = defaultdict(list)
        child_time = defaultdict(float)
        for name, start, end, parent, nested in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, nested) in enumerate(self.spans):
            if not nested:
                durations[name].append(end - start)
                self_time[name] += end - start - child_time[i]
        out: Dict[str, Optional[float]] = {}
        for metric, (unit, spec) in METRICS.items():
            kind, key = spec[0], spec[1]
            needed = {key} | ({spec[2]} if kind in ("ratio", "minus") else set())
            if needed & self.absent:
                out[metric] = None
            elif kind == "time":
                out[metric] = float(sum(durations[key]))
            elif kind == "self":
                out[metric] = float(self_time[key])
            elif kind == "quantile":
                samples = durations[key]
                out[metric] = _percentile(samples, spec[2]) * 1e3 if samples else 0.0
            elif kind == "count":
                out[metric] = float(self.counts[key])
            elif kind == "ratio":
                den = self.counts[spec[2]]
                out[metric] = float(self.counts[key] / den) if den else 0.0
            elif kind == "minus":
                out[metric] = float(sum(durations[key]) - self.counts[spec[2]])
        return out


def _percentile(samples: List[float], q: int) -> float:
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return float(cuts[q - 1])
