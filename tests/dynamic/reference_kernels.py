"""Test oracles: the object-at-a-time update, repair and prune kernels.

These are the original bodies of the vectorized kernels in
:mod:`repro.dynamic.repair`, kept as executable specs.  The Hypothesis
suite ``tests/properties/test_property_kernels.py`` and the
``benchmarks/bench_repair_kernels.py`` microbenchmark drive both over
identical inputs and require bit-for-bit equal covers, duals, and dual
totals.

:class:`ReferenceKernelMaintainer` is an
:class:`~repro.dynamic.IncrementalCoverMaintainer` whose repair and prune
steps run these oracles instead, including the historical dispatch of
large touched sets to the restricted sweep of
:func:`repro.core.postprocess.prune_redundant_vertices`.

:func:`reference_apply` is the original one-event mutation of a
:class:`~repro.dynamic.DynamicGraph` (the per-event ``_insert`` /
``_delete`` / ``_reweight`` bodies), and :class:`ReferenceEventMaintainer`
runs the original per-event loop of ``apply_batch`` on top of it.
``tests/properties/test_property_batch_apply.py`` holds the grouped
:meth:`DynamicGraph.apply_batch` and the maintainer's mask-built event
phase bit-identical to them.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.core.postprocess import prune_redundant_vertices
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.dynamic.duals import _SHIFT
from repro.dynamic.maintainer import AppliedEvents
from repro.dynamic.repair import RESIDUAL_RTOL, RepairOutcome
from repro.graphs.updates import EdgeDelete, EdgeInsert, GraphUpdate, WeightChange

EdgeKey = Tuple[int, int]


def reference_pricing_repair_pass(
    keys: Iterable[EdgeKey],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    duals,
    dual_value: float,
    graph: DynamicGraph,
) -> RepairOutcome:
    """The original repair loop: one ``has_edge`` probe per key.

    ``duals`` is the edge-code-keyed dict of :mod:`repro.dynamic.duals`.
    """
    repaired = 0
    entered: Set[int] = set()
    for key in keys:
        u, v = key
        if not graph.has_edge(u, v):
            continue  # inserted then deleted within the same batch
        if cover[u] or cover[v]:
            continue  # an earlier repair already covered this edge
        ru = float(weights[u] - loads[u])
        rv = float(weights[v] - loads[v])
        pay = max(0.0, min(ru, rv))
        if pay > 0.0:
            code = (u << _SHIFT) | v
            duals[code] = duals.get(code, 0.0) + pay
            loads[u] += pay
            loads[v] += pay
            dual_value += pay
        tol_u = RESIDUAL_RTOL * float(weights[u])
        tol_v = RESIDUAL_RTOL * float(weights[v])
        if ru - pay <= tol_u:
            cover[u] = True
            entered.add(u)
        if rv - pay <= tol_v:
            cover[v] = True
            entered.add(v)
        if not (cover[u] or cover[v]):  # pragma: no cover
            cheap = u if weights[u] <= weights[v] else v
            cover[cheap] = True
            entered.add(cheap)
        repaired += 1
    return RepairOutcome(repaired=repaired, entered=entered, dual_value=dual_value)


def reference_greedy_prune_pass(
    candidates: Iterable[int],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    graph: DynamicGraph,
) -> List[int]:
    """The original set-at-a-time prune loop."""
    cands = [v for v in candidates if cover[v]]
    if not cands:
        return []

    def effectiveness(v: int) -> float:
        d = graph.degree(v)
        return weights[v] / d if d else float("inf")

    cands.sort(key=lambda v: (-effectiveness(v), v))
    locked: Set[int] = set()
    pruned: List[int] = []
    for v in cands:
        if not cover[v] or v in locked:
            continue
        neigh = set(graph.neighbors(v))
        if all(cover[u] for u in neigh):
            cover[v] = False
            pruned.append(v)
            locked |= neigh
    return pruned


class ReferenceKernelMaintainer(IncrementalCoverMaintainer):
    """A maintainer whose repair and prune steps run the oracles above."""

    def _repair(self, uncovered):
        outcome = reference_pricing_repair_pass(
            sorted(set(uncovered)),
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            duals=self._x,
            dual_value=self._dual_value,
            graph=self.dyn,
        )
        self._dual_value = outcome.dual_value
        return outcome.repaired, outcome.entered

    def _prune_touched(self, touched):
        w = self.dyn.weights
        candidates = [v for v in touched.tolist() if self._cover[v]]
        if not candidates:
            return []
        if len(candidates) * 8 > self.dyn.n:
            before = self._cover
            self._cover = prune_redundant_vertices(
                self.dyn.materialize(),
                before,
                weights=w,
                candidates=np.asarray(candidates, dtype=np.int64),
            )
            return np.flatnonzero(before & ~self._cover)
        return reference_greedy_prune_pass(
            candidates, weights=w, cover=self._cover, graph=self.dyn
        )


# ---------------------------------------------------------------------- #
# the per-event update path
# ---------------------------------------------------------------------- #
def _check_vertex(dyn: DynamicGraph, v: int) -> int:
    v = int(v)
    if not (0 <= v < dyn.n):
        raise ValueError(f"vertex {v} out of range [0, {dyn.n})")
    return v


def _set_alive(dyn: DynamicGraph, code: int, alive: bool) -> int:
    """Flip both directed CSR slots of a base edge; returns its id."""
    e = int(np.searchsorted(dyn._base_codes, code))
    dyn._alive[dyn._slot_uv[e]] = alive
    dyn._alive[dyn._slot_vu[e]] = alive
    return e


def _touch(dyn: DynamicGraph) -> None:
    dyn._generation += 1
    dyn._materialized = None
    dyn._delta_arrays = None


def _insert(dyn: DynamicGraph, u: int, v: int) -> bool:
    u, v = _check_vertex(dyn, u), _check_vertex(dyn, v)
    if u == v:
        raise ValueError(f"self-loop at vertex {u} is not allowed")
    if u > v:
        u, v = v, u
    code = (u << _SHIFT) | v
    if code in dyn._added_codes:
        return False
    if code in dyn._base_code_set:
        if code not in dyn._deleted_codes:
            return False
        dyn._deleted_codes.remove(code)
        dyn._base_keep[_set_alive(dyn, code, True)] = True
    else:
        dyn._added_codes.add(code)
        dyn._added_adj.setdefault(u, set()).add(v)
        dyn._added_adj.setdefault(v, set()).add(u)
    dyn._degrees[u] += 1
    dyn._degrees[v] += 1
    _touch(dyn)
    return True


def _delete(dyn: DynamicGraph, u: int, v: int) -> bool:
    u, v = _check_vertex(dyn, u), _check_vertex(dyn, v)
    if u == v:
        return False
    if u > v:
        u, v = v, u
    code = (u << _SHIFT) | v
    if code in dyn._added_codes:
        dyn._added_codes.remove(code)
        dyn._added_adj[u].discard(v)
        dyn._added_adj[v].discard(u)
    elif code in dyn._base_code_set and code not in dyn._deleted_codes:
        dyn._deleted_codes.add(code)
        dyn._base_keep[_set_alive(dyn, code, False)] = False
    else:
        return False
    dyn._degrees[u] -= 1
    dyn._degrees[v] -= 1
    _touch(dyn)
    return True


def _reweight(dyn: DynamicGraph, v: int, weight: float) -> bool:
    v = _check_vertex(dyn, v)
    weight = float(weight)
    if not np.isfinite(weight) or weight <= 0:
        raise ValueError(f"vertex weights must be finite and > 0, got {weight}")
    if dyn._weights[v] == weight:
        return False
    dyn._weights[v] = weight
    _touch(dyn)
    return True


def reference_apply(dyn: DynamicGraph, update: GraphUpdate) -> bool:
    """The original one-event apply; True iff the event changed the graph."""
    if isinstance(update, EdgeInsert):
        return _insert(dyn, update.u, update.v)
    if isinstance(update, EdgeDelete):
        return _delete(dyn, update.u, update.v)
    if isinstance(update, WeightChange):
        return _reweight(dyn, update.v, update.weight)
    raise TypeError(f"not a graph update: {type(update).__name__}")


def _endpoints(keys: List[EdgeKey]) -> Tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(keys, dtype=np.int64).reshape(len(keys), 2)
    return arr[:, 0], arr[:, 1]


class ReferenceEventMaintainer(IncrementalCoverMaintainer):
    """A maintainer whose event phase is the original per-event loop."""

    def _apply_events(self, batch) -> AppliedEvents:
        inserts = deletes = reweights = 0
        retired = 0.0
        touched: List[int] = []
        uncovered: List[EdgeKey] = []
        inserted: List[EdgeKey] = []
        deleted: List[EdgeKey] = []
        for upd in batch:
            if not reference_apply(self.dyn, upd):
                continue
            if isinstance(upd, EdgeInsert):
                inserts += 1
                key = (min(upd.u, upd.v), max(upd.u, upd.v))
                touched.extend(key)
                inserted.append(key)
                if not (self._cover[key[0]] or self._cover[key[1]]):
                    uncovered.append(key)
            elif isinstance(upd, EdgeDelete):
                deletes += 1
                key = (min(upd.u, upd.v), max(upd.u, upd.v))
                touched.extend(key)
                deleted.append(key)
                retired += self._retire_dual(key)
            else:
                reweights += 1
                touched.append(upd.v)
        return AppliedEvents(
            inserts=inserts,
            deletes=deletes,
            reweights=reweights,
            retired=retired,
            touched=np.asarray(touched, dtype=np.int64),
            uncovered=sorted(set(uncovered)),
            inserted=_endpoints(inserted),
            deleted=_endpoints(deleted),
        )

    def _retire_dual(self, key: EdgeKey) -> float:
        """Drop a deleted edge's dual; returns the retired mass."""
        pay = self._x.pop((key[0] << _SHIFT) | key[1], 0.0)
        if pay:
            for t in key:
                self._loads[t] -= pay
                if self._loads[t] < 0.0:  # accumulated float noise
                    self._loads[t] = 0.0
            self._dual_value -= pay
            if self._dual_value < 0.0:
                self._dual_value = 0.0
        return pay
