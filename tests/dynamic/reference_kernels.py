"""Test oracles: the object-at-a-time repair and prune kernels.

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
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.core.postprocess import prune_redundant_vertices
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.dynamic.repair import RESIDUAL_RTOL, RepairOutcome

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
    """The original repair loop: one ``has_edge`` probe per key."""
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
            duals[key] = duals.get(key, 0.0) + pay
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
        candidates = [v for v in touched if self._cover[v]]
        if not candidates:
            return 0
        if len(candidates) * 8 > self.dyn.n:
            before = int(self._cover.sum())
            self._cover = prune_redundant_vertices(
                self.dyn.materialize(),
                self._cover,
                weights=w,
                candidates=np.asarray(candidates, dtype=np.int64),
            )
            return before - int(self._cover.sum())
        pruned = reference_greedy_prune_pass(
            candidates, weights=w, cover=self._cover, graph=self.dyn
        )
        return len(pruned)
