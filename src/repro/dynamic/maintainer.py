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
4. **Loss counters** — ``_out[v]`` is the number of ``v``'s current
   neighbors outside the cover (the incremental score of local-search
   MinVC solvers).  A cover vertex is droppable iff ``_out[v] == 0``, so
   only those touched vertices reach the prune kernel.  The counters are
   derived state: :meth:`~IncrementalCoverMaintainer.apply_batch` keeps
   them exact from what each step reports changed (effective edge
   events, entered and pruned vertices), :meth:`adopt` and
   :meth:`from_state` recount them, snapshots never store them, and
   :meth:`~IncrementalCoverMaintainer.verify` audits them against a
   from-scratch recount.

The hot path is array-at-a-time end to end: a batch arrives as a columnar
:class:`~repro.graphs.updates.UpdateBatch`, :meth:`DynamicGraph.apply_batch`
applies it with grouped array operations, and the vectorized kernels of
:mod:`repro.dynamic.repair` run over the dynamic graph's CSR-delta arrays.
The original object-at-a-time event loop and kernels live on as test
oracles (``tests/dynamic/reference_kernels.py``);
``tests/properties/test_property_kernels`` and
``tests/properties/test_property_batch_apply`` hold them bit-identical.

The certificate degrades (``drift``) as churn accumulates — deletions strand
cover weight whose paying edges are gone, weight changes bend the dual
loads.  The maintainer only *measures* drift; deciding when to trigger a
full re-solve is :class:`repro.dynamic.ResolvePolicy`'s job, and executing
it through the batch service is :func:`repro.dynamic.stream.run_stream`'s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.core.postprocess import prune_redundant_vertices
from repro.core.result import MWVCResult
from repro.dynamic.duals import (
    _MASK,
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
from repro.graphs.updates import (
    OP_DELETE,
    OP_INSERT,
    OP_REWEIGHT,
    GraphUpdate,
    UpdateBatch,
)

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


class AppliedEvents(NamedTuple):
    """What the event phase of :meth:`IncrementalCoverMaintainer.apply_batch`
    hands to repair and prune."""

    inserts: int
    deletes: int
    reweights: int
    #: Dual mass of deleted edges, summed in event order.
    retired: float
    #: Endpoints of effective edge events and effectively reweighted
    #: vertices (repeats allowed).
    touched: np.ndarray
    #: Effective inserts whose endpoints were both outside the cover, as
    #: canonical ``(u, v)`` keys in sorted order.
    uncovered: List[Tuple[int, int]]
    #: Endpoint arrays ``(u, v)`` of the effective inserts and of the
    #: effective deletes (repeats allowed, any order).
    inserted: Tuple[np.ndarray, np.ndarray]
    deleted: Tuple[np.ndarray, np.ndarray]


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
    ``certificate_s``; each includes its share of the loss-counter upkeep.
    Adding them up across batches is the stream engine's job.
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
        #: Loss counters: current neighbors outside the cover, per vertex
        #: (all zero here: either every vertex is covered or none has an edge).
        self._out = np.zeros(n, dtype=np.int64)

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
        maintainer._out = maintainer._recount_out(*dyn.edge_arrays())
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
        recomputed exactly by :meth:`verify`).  The OPT lower bound is the
        better of global scaling ``Σx / load_factor`` and excess
        subtraction ``Σx − Σ_v (y_v − w_v)_+``;
        :func:`~repro.dynamic.repair.certificate_from_state` states why
        both are sound.
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
        """Exact O(m) audit of the cover and the loss counters.

        True iff every current edge has a covered endpoint and the loss
        counters equal a from-scratch recount.  Both checks run over
        :meth:`DynamicGraph.edge_arrays` — the graph is never
        canonicalized.
        """
        u, v = self.dyn.edge_arrays()
        if not (self._cover[u] | self._cover[v]).all():
            return False
        return bool(np.array_equal(self._out, self._recount_out(u, v)))

    def _recount_out(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Loss counters from scratch over the current edges ``(u, v)``."""
        free = ~self._cover
        n = self.dyn.n
        return np.bincount(u[free[v]], minlength=n) + np.bincount(
            v[free[u]], minlength=n
        )

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
        self._out = self._recount_out(*self.dyn.edge_arrays())
        cert = self.certificate()
        self._base_ratio = cert.certified_ratio
        return cert

    # ------------------------------------------------------------------ #
    # the incremental path
    # ------------------------------------------------------------------ #
    def apply_batch(
        self, updates: Union[UpdateBatch, Sequence[GraphUpdate]]
    ) -> BatchReport:
        """Apply a batch of updates and repair the cover locally.

        The batch is an :class:`~repro.graphs.updates.UpdateBatch` (a
        plain sequence of events is converted once).  It is validated as a
        whole before anything mutates, so an invalid event raises
        ``ValueError`` and leaves the maintainer untouched.
        :meth:`DynamicGraph.apply_batch` applies it with grouped array
        operations and returns each event's effective flag; the touched
        vertices, the uncovered inserted edges and the in-order list of
        deleted edges whose duals retire all come from masks over those
        flags.  The repair budget is proportional to the batch's touched
        neighborhood: uncovered inserted edges are patched by the pricing
        rule, then touched vertices are pruned greedily.  The certificate
        in the returned report reflects the post-repair state.

        The loss counters are kept here, never inside the overridable
        steps (:meth:`_apply_events`, :meth:`_repair`,
        :meth:`_prune_touched`): each step reports what it changed and
        the counters follow with a few array operations, booked in that
        step's timing section.
        """
        batch = UpdateBatch.from_updates(updates)
        t_start = time.perf_counter()
        events = self._apply_events(batch)
        self._count_edge_events(events.inserted, +1)
        self._count_edge_events(events.deleted, -1)
        t_applied = time.perf_counter()

        repaired, entered_set = self._repair(events.uncovered)
        entered = np.fromiter(entered_set, dtype=np.int64, count=len(entered_set))
        self._shift_neighbors(entered, -1)
        t_repaired = time.perf_counter()
        pruned = self._prune_touched(np.union1d(events.touched, entered))
        self._shift_neighbors(np.asarray(pruned, dtype=np.int64), +1)
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
            num_updates=len(batch),
            applied=events.inserts + events.deletes + events.reweights,
            inserts=events.inserts,
            deletes=events.deletes,
            reweights=events.reweights,
            repaired_edges=repaired,
            added_to_cover=len(entered),
            pruned_from_cover=len(pruned),
            retired_dual=events.retired,
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

    def _apply_events(self, batch: UpdateBatch) -> AppliedEvents:
        """Apply the batch to the graph and retire the deleted edges' duals."""
        effective = self.dyn.apply_batch(batch)
        op = batch.op
        ins = effective & (op == OP_INSERT)
        dels = effective & (op == OP_DELETE)
        rw = effective & (op == OP_REWEIGHT)
        edge = ins | dels
        lo = np.minimum(batch.u, batch.v)
        hi = np.maximum(batch.u, batch.v)
        # The cover does not change before repair, so "arrived uncovered"
        # is one gather at batch-start cover state.
        iu, iv = lo[ins], hi[ins]
        free = ~(self._cover[iu] | self._cover[iv])
        uncovered = np.unique(encode_edge_codes(iu[free], iv[free]))
        cu, cv = decode_edge_codes(uncovered)
        return AppliedEvents(
            inserts=int(np.count_nonzero(ins)),
            deletes=int(np.count_nonzero(dels)),
            reweights=int(np.count_nonzero(rw)),
            retired=self._retire_duals(encode_edge_codes(lo[dels], hi[dels])),
            touched=np.concatenate([lo[edge], hi[edge], batch.v[rw]]),
            uncovered=list(zip(cu.tolist(), cv.tolist())),
            inserted=(iu, iv),
            deleted=(lo[dels], hi[dels]),
        )

    def _count_edge_events(
        self, edges: Tuple[np.ndarray, np.ndarray], sign: int
    ) -> None:
        """Add (``sign=+1``) or remove (``-1``) edges from the loss counters.

        Each endpoint gains or loses one outside neighbor iff the other
        endpoint is uncovered.  The cover does not change during the
        event phase, so the effective events count in any order.
        """
        u, v = edges
        if not u.size:
            return
        free = ~self._cover
        np.add.at(self._out, np.concatenate([u[free[v]], v[free[u]]]), sign)

    def _shift_neighbors(self, vertices: np.ndarray, delta: int) -> None:
        """Add ``delta`` to the loss counter of every neighbor of each
        vertex in ``vertices`` (``-1`` after they enter the cover, ``+1``
        after they leave it)."""
        if not vertices.size:
            return
        concat, _, _, extras = self.dyn.prune_gather(vertices)
        if extras:
            concat = np.concatenate([concat, *extras.values()])
        np.add.at(self._out, concat, delta)

    def _retire_duals(self, codes: np.ndarray) -> float:
        """Drop deleted edges' duals in event order; returns the retired mass."""
        x = self._x
        if not x or not codes.size:
            return 0.0
        loads = self._loads
        retired = 0.0
        for code in codes.tolist():
            pay = x.pop(code, 0.0)
            if not pay:
                continue
            for t in (code >> _SHIFT, code & _MASK):
                loads[t] -= pay
                if loads[t] < 0.0:  # accumulated float noise
                    loads[t] = 0.0
            self._dual_value -= pay
            if self._dual_value < 0.0:
                self._dual_value = 0.0
            retired += pay
        return retired

    def _repair(self, uncovered: List[Tuple[int, int]]) -> Tuple[int, Set[int]]:
        """Patch uncovered edges via the pricing-repair kernel.

        ``uncovered`` holds canonical keys in sorted order.  For each
        still-uncovered edge, raise its dual by the smaller
        endpoint residual ``w − y``; every endpoint whose residual is
        exhausted enters the cover.  An endpoint already fully paid
        (residual ≤ 0, possible after an adopted solve with load factor
        > 1 or a weight decrease) enters for free.  The pass itself is
        :func:`repro.dynamic.repair.pricing_repair_pass`.
        """
        outcome = pricing_repair_pass(
            uncovered,
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            duals=self._x,
            dual_value=self._dual_value,
            has_edges=self.dyn.has_edges,
        )
        self._dual_value = outcome.dual_value
        return outcome.repaired, outcome.entered

    def _prune_touched(self, touched: np.ndarray) -> Sequence[int]:
        """Greedy redundancy pruning restricted to the touched vertices.

        ``touched`` is a sorted array of distinct vertex ids; returns the
        pruned ids.  Only touched cover vertices with a zero loss counter
        (every neighbor covered) reach the kernel: a candidate that cannot
        drop at pass start never drops and locks nothing, so the filter
        leaves every decision unchanged.  The kernel walks the dynamic CSR
        directly — O(batch neighborhood), *never* materializing the
        graph: decreasing ``w/deg`` order, and dropping ``v`` locks its
        neighbors — each now solely covers its edge to ``v``.
        """
        candidates = touched[self._cover[touched] & (self._out[touched] == 0)]
        if not candidates.size:
            return []
        return greedy_prune_pass(
            candidates, weights=self.dyn.weights, cover=self._cover, graph=self.dyn
        )
