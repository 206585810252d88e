"""Incremental cover maintenance: local repair + certificate tracking.

:class:`IncrementalCoverMaintainer` keeps a *valid, certified* vertex cover
over a :class:`~repro.dynamic.DynamicGraph` as updates stream in, without
re-solving from scratch.  The invariants after every
:meth:`apply_batch` call:

1. **Validity** — the maintained mask covers every current edge.  Only edge
   *insertions* can uncover (deletions and weight changes cannot), so the
   repair pass touches exactly the inserted edges whose endpoints are both
   outside the cover.
2. **Sound lower bound** — the maintainer carries per-edge duals ``x_e``
   (a near-feasible fractional matching on the *current* graph): duals of
   deleted edges are retired immediately, repairs pay new duals by the
   local-ratio/pricing rule (raise ``x_e`` by the smaller *residual*
   ``w(v) − y_v`` of the endpoints; the endpoint whose residual hits zero
   enters the cover), and weight decreases are absorbed into the measured
   ``load_factor``.  By weak duality ``Σ_e x_e / load_factor ≤ OPT`` of the
   current graph, so the certificate is checkable at any moment.
3. **Local minimality** — after repair, vertices *touched* by the batch are
   greedily pruned (most expensive first) if all their current neighbors
   are covered; untouched vertices keep their state, so the pass is
   O(batch-neighborhood), not O(n).

The hot path runs the vectorized kernels of :mod:`repro.dynamic.repair`
over the dynamic graph's CSR-delta arrays.  The original object-at-a-time
kernels live on as a test oracle (``tests/dynamic/reference_kernels.py``);
``tests/properties/test_property_kernels`` holds the two bit-identical.

The certificate degrades (``drift``) as churn accumulates — deletions strand
cover weight whose paying edges are gone, weight changes bend the dual
loads.  The maintainer only *measures* drift; deciding when to trigger a
full re-solve is :class:`repro.dynamic.ResolvePolicy`'s job, and executing
it through the batch service is :func:`repro.dynamic.stream.run_stream`'s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.core.postprocess import prune_redundant_vertices
from repro.core.result import MWVCResult
from repro.dynamic.duals import (
    _SHIFT,
    decode_edge_codes,
    encode_edge_codes,
    sorted_duals,
)
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.repair import (
    certificate_from_state,
    greedy_prune_pass,
    pricing_repair_pass,
)
from repro.graphs.updates import EdgeDelete, EdgeInsert, GraphUpdate, WeightChange

__all__ = ["IncrementalCoverMaintainer", "BatchReport"]


@dataclass(frozen=True)
class BatchReport:
    """Observables of one :meth:`IncrementalCoverMaintainer.apply_batch`.

    Attributes
    ----------
    num_updates, applied:
        Events received / events that changed the graph (inserting a
        present edge etc. are no-ops).
    inserts, deletes, reweights:
        Effective events by kind.
    repaired_edges:
        Inserted edges that arrived uncovered and were patched by the
        pricing rule.
    added_to_cover, pruned_from_cover:
        Cover membership churn caused by the batch.
    retired_dual:
        Dual mass removed with deleted edges (certificate damage).
    certificate:
        The post-batch duality certificate.
    drift:
        ``certified_ratio / base_ratio − 1`` where ``base_ratio`` is the
        certified ratio right after the last adopted re-solve.
    """

    num_updates: int
    applied: int
    inserts: int
    deletes: int
    reweights: int
    repaired_edges: int
    added_to_cover: int
    pruned_from_cover: int
    retired_dual: float
    certificate: CoverCertificate
    drift: float

    def to_dict(self) -> dict:
        """Exact JSON-friendly form, the certificate nested in full.

        :meth:`summary` flattens it into one ``repro stream`` record row.
        The write-ahead log does not store reports: a
        :class:`~repro.dynamic.WALRecord` holds only the batch index, the
        updates and the pre-apply state digest.
        """
        return {
            "num_updates": int(self.num_updates),
            "applied": int(self.applied),
            "inserts": int(self.inserts),
            "deletes": int(self.deletes),
            "reweights": int(self.reweights),
            "repaired_edges": int(self.repaired_edges),
            "added_to_cover": int(self.added_to_cover),
            "pruned_from_cover": int(self.pruned_from_cover),
            "retired_dual": float(self.retired_dual),
            "certificate": self.certificate.to_dict(),
            "drift": float(self.drift),
        }

    def summary(self) -> dict:
        """Flat JSON-friendly dict (one row of ``repro stream`` output)."""
        row = self.to_dict()
        cert = row.pop("certificate")
        row["cover_weight"] = cert["cover_weight"]
        row["dual_value"] = cert["dual_value"]
        row["certified_ratio"] = cert["certified_ratio"]
        # `drift` stays the last key, matching the historical row layout.
        row["drift"] = row.pop("drift")
        return row


class IncrementalCoverMaintainer:
    """Maintains a certified vertex cover on a :class:`DynamicGraph`.

    Typical lifecycle::

        dyn = DynamicGraph(graph)
        maintainer = IncrementalCoverMaintainer(dyn)
        maintainer.adopt(minimum_weight_vertex_cover(graph, eps=0.1))
        for batch in batches(update_stream):
            report = maintainer.apply_batch(batch)
            if policy.should_resolve(...):
                maintainer.adopt(re_solve(dyn.compact()))

    On an edgeless initial graph :meth:`adopt` is optional — the empty
    cover is trivially valid and repairs bootstrap the duals from zero.

    After every :meth:`apply_batch`, :attr:`last_batch_timings` holds that
    batch's wall seconds by section: ``adjacency_s`` (event apply and
    delta-log compaction), ``repair_s`` (pricing repair), ``prune_s`` and
    ``certificate_s``.  Adding them up across batches is the stream
    engine's job.
    """

    def __init__(self, dyn: DynamicGraph):
        self.dyn = dyn
        n = dyn.n
        self._cover = np.zeros(n, dtype=bool)
        #: Nonzero per-edge duals keyed by edge code (see repro.dynamic.duals).
        self._x: Dict[int, float] = {}
        self._loads = np.zeros(n, dtype=np.float64)
        self._dual_value = 0.0
        self._base_ratio: Optional[float] = None
        self._batches = 0
        self.last_batch_timings: Optional[Dict[str, float]] = None
        if dyn.m:
            # A nonempty graph has no valid empty cover; start from the
            # trivial all-vertices cover (duals empty → ratio inf) so the
            # validity invariant holds from the first moment.  Callers are
            # expected to adopt() a real solution before streaming.
            self._cover[:] = True

    # ------------------------------------------------------------------ #
    # state accessors
    # ------------------------------------------------------------------ #
    @property
    def cover(self) -> np.ndarray:
        """The maintained cover mask (a defensive copy)."""
        return self._cover.copy()

    @property
    def dual_value(self) -> float:
        """Current ``Σ_e x_e``."""
        return self._dual_value

    @property
    def cover_weight(self) -> float:
        """Current ``w(C)`` under the dynamic weights."""
        return float(self.dyn.weights[self._cover].sum())

    @property
    def base_ratio(self) -> Optional[float]:
        """Certified ratio measured right after the last :meth:`adopt`."""
        return self._base_ratio

    @property
    def batches_applied(self) -> int:
        """Number of :meth:`apply_batch` calls so far."""
        return self._batches

    def edge_duals(self) -> Dict[Tuple[int, int], float]:
        """Nonzero per-edge duals keyed by canonical endpoint pair (copy)."""
        codes, values = sorted_duals(self._x)
        u, v = decode_edge_codes(codes)
        return dict(zip(zip(u.tolist(), v.tolist()), values.tolist()))

    # ------------------------------------------------------------------ #
    # snapshot/restore support
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """The maintainer's full mutable state as plain arrays/scalars.

        The exact float payload is exported — loads and the dual total are
        *not* recomputed — so a maintainer restored via :meth:`from_state`
        is bit-identical and every subsequent :meth:`apply_batch` evolves
        it exactly as the original (the property
        ``tests/recovery/test_equivalence.py`` checks).  The duals are
        emitted as edge codes in sorted order (:func:`sorted_duals`),
        making the export deterministic for a given state (content digests
        of two exports of one state match).
        """
        dual_codes, dual_values = sorted_duals(self._x)
        return {
            "cover": self._cover.copy(),
            "loads": self._loads.copy(),
            "dual_codes": dual_codes,
            "dual_values": dual_values,
            "dual_value": float(self._dual_value),
            "base_ratio": self._base_ratio,
            "batches_applied": int(self._batches),
        }

    @classmethod
    def from_state(
        cls,
        dyn: DynamicGraph,
        state: dict,
    ) -> "IncrementalCoverMaintainer":
        """Reconstruct a maintainer around ``dyn`` from :meth:`export_state`.

        ``dyn`` must already hold the graph the state was exported against;
        the state is validated structurally (shapes, dual keys are current
        edges) so a mismatched graph/state pair fails loudly instead of
        silently corrupting the certificate.
        """
        n = dyn.n
        cover = np.asarray(state["cover"], dtype=bool)
        loads = np.asarray(state["loads"], dtype=np.float64)
        if cover.shape != (n,):
            raise ValueError(f"cover mask has shape {cover.shape}, expected ({n},)")
        if loads.shape != (n,):
            raise ValueError(f"loads have shape {loads.shape}, expected ({n},)")
        codes = np.asarray(state["dual_codes"], dtype=np.int64)
        vals = np.asarray(state["dual_values"], dtype=np.float64)
        if codes.ndim != 1 or codes.shape != vals.shape:
            raise ValueError(
                f"dual arrays disagree: codes {codes.shape}, values {vals.shape}"
            )
        if codes.size:
            du, dv = decode_edge_codes(codes)
            present = dyn.has_edges(du, dv)
            if not present.all():
                bad = np.nonzero(~present)[0][0]
                raise ValueError(
                    f"dual on ({int(du[bad])}, {int(dv[bad])}) which is not an "
                    f"edge of the restored graph"
                )
        maintainer = cls.__new__(cls)
        maintainer.dyn = dyn
        maintainer._cover = cover.copy()
        maintainer._loads = loads.copy()
        maintainer._x = dict(zip(codes.tolist(), vals.tolist()))
        maintainer._dual_value = float(state["dual_value"])
        base = state["base_ratio"]
        maintainer._base_ratio = None if base is None else float(base)
        maintainer._batches = int(state["batches_applied"])
        maintainer.last_batch_timings = None
        return maintainer

    # ------------------------------------------------------------------ #
    # certification
    # ------------------------------------------------------------------ #
    def load_factor(self) -> float:
        """``max(1, max_v y_v / w(v))`` against the *current* weights."""
        return self.certificate().load_factor

    def certificate(self) -> CoverCertificate:
        """The duality certificate of the maintained state.

        ``is_cover`` here asserts the maintainer's invariant (it is
        recomputed exactly by :meth:`verify`, which materializes the
        graph).  The OPT lower bound is the better of global scaling
        ``Σx / load_factor`` and excess subtraction ``Σx − Σ_v (y_v −
        w_v)_+``; :func:`~repro.dynamic.repair.certificate_from_state`
        states why both are sound.
        """
        return certificate_from_state(
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            dual_value=self._dual_value,
        )

    def certified_ratio(self) -> float:
        """Current certified approximation-ratio upper bound."""
        return self.certificate().certified_ratio

    def drift(self) -> float:
        """Relative certificate degradation since the last :meth:`adopt`."""
        ratio = self.certified_ratio()
        base = self._base_ratio
        if base is None or not np.isfinite(base) or base <= 0:
            return 0.0 if np.isfinite(ratio) else float("inf")
        return ratio / base - 1.0

    def verify(self) -> bool:
        """Exact validity check against the materialized current graph."""
        return self.dyn.materialize().is_vertex_cover(self._cover)

    # ------------------------------------------------------------------ #
    # adopting a full solution
    # ------------------------------------------------------------------ #
    def adopt(
        self, result: MWVCResult, *, graph=None, prune: bool = True
    ) -> CoverCertificate:
        """Replace the maintained state with a freshly solved one.

        Parameters
        ----------
        result:
            A solver result for the dynamic graph's *current* state
            (typically via ``solver.solve(SolveRequest(dyn.compact(), ...))``).
        graph:
            The graph the result was computed on; defaults to
            ``dyn.materialize()``.  Its canonical edge order maps
            ``result.x`` into the maintainer's edge-code-keyed duals.
        prune:
            Run :func:`~repro.core.postprocess.prune_redundant_vertices`
            on the adopted cover (never heavier, usually lighter; the
            duals — and thus the lower bound — are unaffected).

        The result is validated against the graph, and its nonzero
        edge-indexed duals become the edge-code-keyed dual dict with one
        vectorized encode.  Returns the post-adoption certificate (the new
        drift baseline).
        """
        g = self.dyn.materialize() if graph is None else graph
        if g.n != self.dyn.n:
            raise ValueError(f"result graph has n={g.n}, expected {self.dyn.n}")
        cover = np.asarray(result.in_cover, dtype=bool)
        if cover.shape != (g.n,):
            raise ValueError(f"cover mask has shape {cover.shape}, expected ({g.n},)")
        if not g.is_vertex_cover(cover):
            raise ValueError("adopted result is not a vertex cover of the current graph")
        x = np.asarray(result.x, dtype=np.float64)
        if x.shape != (g.m,):
            raise ValueError(f"duals have shape {x.shape}, expected ({g.m},)")
        if prune:
            cover = prune_redundant_vertices(g, cover, weights=self.dyn.weights)
        nz = np.nonzero(x)[0]
        self._cover = cover.copy()
        codes = encode_edge_codes(g.edges_u[nz], g.edges_v[nz])
        self._x = dict(zip(codes.tolist(), x[nz].tolist()))
        self._loads = g.incident_sums(x)
        self._dual_value = float(x.sum())
        cert = self.certificate()
        self._base_ratio = cert.certified_ratio
        return cert

    # ------------------------------------------------------------------ #
    # the incremental path
    # ------------------------------------------------------------------ #
    def apply_batch(self, updates: Sequence[GraphUpdate]) -> BatchReport:
        """Apply a batch of updates and repair the cover locally.

        The repair budget is proportional to the batch's touched
        neighborhood: uncovered inserted edges are patched by the pricing
        rule, then touched vertices are pruned greedily.  The certificate
        in the returned report reflects the post-repair state.
        """
        updates = list(updates)
        dyn = self.dyn
        t_start = time.perf_counter()
        applied = inserts = deletes = reweights = 0
        retired = 0.0
        touched: Set[int] = set()
        uncovered: List[Tuple[int, int]] = []

        for upd in updates:
            changed = dyn.apply(upd)
            if not changed:
                continue
            applied += 1
            if isinstance(upd, EdgeInsert):
                inserts += 1
                key = dyn._key(int(upd.u), int(upd.v))
                touched.update(key)
                if not (self._cover[key[0]] or self._cover[key[1]]):
                    uncovered.append(key)
            elif isinstance(upd, EdgeDelete):
                deletes += 1
                key = dyn._key(int(upd.u), int(upd.v))
                touched.update(key)
                retired += self._retire_dual(key)
            elif isinstance(upd, WeightChange):
                reweights += 1
                touched.add(int(upd.v))
        t_applied = time.perf_counter()

        repaired, entered = self._repair(uncovered)
        touched |= entered
        t_repaired = time.perf_counter()
        pruned = self._prune_touched(touched)
        t_pruned = time.perf_counter()
        # Amortized: fold the delta log into a fresh snapshot once it
        # outgrows the base (the maintainer's edge-code-keyed state is
        # snapshot-independent, so compaction is invisible here).  Booked
        # under adjacency_s — it is CSR maintenance, not prune work.
        self.dyn.maybe_compact()
        t_compacted = time.perf_counter()

        self._batches += 1
        cert = self.certificate()
        report = BatchReport(
            num_updates=len(updates),
            applied=applied,
            inserts=inserts,
            deletes=deletes,
            reweights=reweights,
            repaired_edges=repaired,
            added_to_cover=len(entered),
            pruned_from_cover=pruned,
            retired_dual=retired,
            certificate=cert,
            drift=self.drift(),
        )
        self.last_batch_timings = {
            "adjacency_s": (t_applied - t_start) + (t_compacted - t_pruned),
            "repair_s": t_repaired - t_applied,
            "prune_s": t_pruned - t_repaired,
            "certificate_s": time.perf_counter() - t_compacted,
        }
        return report

    def _retire_dual(self, key: Tuple[int, int]) -> float:
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

    def _repair(self, uncovered: Iterable[Tuple[int, int]]) -> Tuple[int, Set[int]]:
        """Patch uncovered edges via the pricing-repair kernel.

        For each still-uncovered edge, raise its dual by the smaller
        endpoint residual ``w − y``; every endpoint whose residual is
        exhausted enters the cover.  An endpoint already fully paid
        (residual ≤ 0, possible after an adopted solve with load factor
        > 1 or a weight decrease) enters for free.  The pass itself is
        :func:`repro.dynamic.repair.pricing_repair_pass`.
        """
        outcome = pricing_repair_pass(
            sorted(set(uncovered)),
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            duals=self._x,
            dual_value=self._dual_value,
            has_edges=self.dyn.has_edges,
        )
        self._dual_value = outcome.dual_value
        return outcome.repaired, outcome.entered

    def _prune_touched(self, touched: Set[int]) -> int:
        """Greedy redundancy pruning restricted to the touched vertices.

        The kernel walks the dynamic CSR directly — O(batch
        neighborhood), *never* materializing the graph: decreasing
        ``w/deg`` order, droppable iff every incident edge's other
        endpoint is covered, and dropping ``v`` locks its neighbors —
        each now solely covers its edge to ``v``.
        """
        candidates = [v for v in touched if self._cover[v]]
        if not candidates:
            return 0
        pruned = greedy_prune_pass(
            candidates, weights=self.dyn.weights, cover=self._cover, graph=self.dyn
        )
        return len(pruned)
