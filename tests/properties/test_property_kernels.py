"""Property: vectorized repair/prune kernels ≡ the reference oracles.

The vectorized dynamic hot path (CSR-delta adjacency, edge-code-keyed duals,
batched pricing/prune kernels) promises *bit-identical* covers, duals, and
certificates to the object-at-a-time oracles of
``tests/dynamic/reference_kernels.py``.  Hypothesis drives random graphs
and random churn sequences through two maintainers — the production
:class:`IncrementalCoverMaintainer` and the oracle-backed
:class:`ReferenceKernelMaintainer` — and through the bare kernel functions
on synthetic states over a :class:`DynamicGraph`; every float in the
resulting state must match exactly, not approximately.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.dynamic.duals import decode_edge_codes, encode_edge_codes, sorted_duals
from repro.dynamic.repair import greedy_prune_pass, pricing_repair_pass
from repro.graphs.updates import EdgeDelete, EdgeInsert, WeightChange

from tests.dynamic.reference_kernels import (
    ReferenceKernelMaintainer,
    reference_greedy_prune_pass,
    reference_pricing_repair_pass,
)
from tests.properties.strategies import weighted_graphs

EPS = 0.1
SEED = 3


@st.composite
def update_sequences(draw, n: int, max_events: int = 50):
    """A random (not necessarily coherent) event sequence over ``n`` vertices."""
    events = []
    num = draw(st.integers(0, max_events))
    for _ in range(num):
        kind = draw(st.integers(0, 2))
        if kind == 2 or n < 2:
            v = draw(st.integers(0, n - 1))
            w = draw(st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False))
            events.append(WeightChange(v, w))
            continue
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
        if kind == 0:
            events.append(EdgeInsert(u, v))
        else:
            events.append(EdgeDelete(u, v))
    return events


def _assert_same_maintainer_state(a: IncrementalCoverMaintainer, b):
    assert np.array_equal(a.cover, b.cover), "cover masks differ"
    assert a.edge_duals() == b.edge_duals(), "duals differ"
    assert a.dual_value == b.dual_value, "dual totals differ"
    assert np.array_equal(a._loads, b._loads), "loads differ"


class TestMaintainerEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=16))
    def test_vectorized_stream_equals_reference_stream(self, data, graph):
        updates = data.draw(update_sequences(graph.n))
        batch = data.draw(st.integers(1, 12))
        maintainers = []
        for cls in (IncrementalCoverMaintainer, ReferenceKernelMaintainer):
            dyn = DynamicGraph(graph, min_compact=4, compact_fraction=0.5)
            m = cls(dyn)
            if graph.m:
                m.adopt(minimum_weight_vertex_cover(graph, eps=EPS, seed=SEED))
            reports = []
            for i in range(0, len(updates), batch):
                reports.append(m.apply_batch(updates[i : i + batch]))
            maintainers.append((m, reports))
        (vec, vec_reports), (ref, ref_reports) = maintainers
        _assert_same_maintainer_state(vec, ref)
        assert vec.verify() and ref.verify()
        for rv, rr in zip(vec_reports, ref_reports):
            assert rv == rr, "per-batch reports differ"


class TestBareKernels:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=20))
    def test_pricing_repair_pass_matches_reference(self, data, graph):
        n = graph.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        cover = rng.random(n) < data.draw(st.floats(0.0, 0.9))
        loads = rng.random(n) * np.asarray(graph.weights)
        keys = sorted(
            {
                (int(u), int(v))
                for u, v in zip(graph.edges_u, graph.edges_v)
            }
        )
        # Delete a random subset so the presence filter has work to do.
        dyn = DynamicGraph(graph)
        for u, v in keys:
            if rng.random() < 0.2:
                dyn.apply(EdgeDelete(u, v))
        args = dict(weights=np.asarray(graph.weights), dual_value=0.25)
        ref_cover, ref_loads, ref_duals = cover.copy(), loads.copy(), {}
        ref = reference_pricing_repair_pass(
            keys, cover=ref_cover, loads=ref_loads, duals=ref_duals, graph=dyn,
            **args,
        )
        vec_cover, vec_loads, vec_duals = cover.copy(), loads.copy(), {}
        vec = pricing_repair_pass(
            keys, cover=vec_cover, loads=vec_loads, duals=vec_duals,
            has_edges=dyn.has_edges, **args,
        )
        assert vec.repaired == ref.repaired
        assert vec.entered == ref.entered
        assert vec.dual_value == ref.dual_value
        assert np.array_equal(vec_cover, ref_cover)
        assert np.array_equal(vec_loads, ref_loads)
        assert vec_duals == ref_duals

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=1, max_n=20))
    def test_greedy_prune_pass_matches_reference(self, data, graph):
        n = graph.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        # Churn the graph so both the CSR slots and the overlay are read.
        dyn = DynamicGraph(graph)
        for _ in range(data.draw(st.integers(0, 2 * n))):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v:
                dyn.apply(EdgeInsert(u, v) if rng.random() < 0.6 else EdgeDelete(u, v))
        # Start from a valid cover so droppability is meaningful, then
        # prune a random candidate subset.
        cover = np.ones(n, dtype=bool)
        drop = rng.random(n) < 0.3
        for v in np.nonzero(drop)[0]:
            neigh = dyn.neighbors(int(v))
            if cover[neigh].all():
                cover[v] = False
        candidates = sorted(
            int(v) for v in rng.choice(n, size=rng.integers(0, n + 1), replace=False)
        )
        weights = np.asarray(graph.weights)
        ref_cover = cover.copy()
        ref = reference_greedy_prune_pass(
            candidates, weights=weights, cover=ref_cover, graph=dyn
        )
        vec_cover = cover.copy()
        vec = greedy_prune_pass(
            candidates, weights=weights, cover=vec_cover, graph=dyn
        )
        assert vec == ref
        assert np.array_equal(vec_cover, ref_cover)


class TestSortedDuals:
    @settings(max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 500), st.integers(501, 1000)),
            unique=True,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_round_trip_and_order(self, pairs, data):
        values = [
            data.draw(st.floats(0.001, 100.0, allow_nan=False))
            for _ in pairs
        ]
        u = np.array([p[0] for p in pairs], dtype=np.int64)
        v = np.array([p[1] for p in pairs], dtype=np.int64)
        duals = dict(zip(encode_edge_codes(u, v).tolist(), values))
        codes, code_vals = sorted_duals(duals)
        du, dv = decode_edge_codes(codes)
        assert list(zip(du.tolist(), dv.tolist())) == sorted(pairs)
        assert dict(zip(codes.tolist(), code_vals.tolist())) == duals
        by_pair = dict(zip(pairs, values))
        assert code_vals.tolist() == [by_pair[p] for p in sorted(pairs)]
