"""Property: the grouped batch apply ≡ the per-event oracle.

:meth:`DynamicGraph.apply_batch` applies a whole batch with grouped array
operations (a stable sort by edge code, one presence query, net changes
only), and :meth:`IncrementalCoverMaintainer.apply_batch` builds its
touched / uncovered / retired sets from masks over the effective flags.
Both promise *bit-identical* results to the one-event-at-a-time code kept
in ``tests/dynamic/reference_kernels.py``.  Hypothesis drives both over
identical random batches that stress the grouping: one edge inserted,
deleted and reinserted inside a batch, deletes of absent edges, reweights
back to the current value, self-loop deletes, batches of one event, and
tiny compaction thresholds so batches straddle snapshot rebuilds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.graphs.updates import EdgeDelete, EdgeInsert, UpdateBatch, WeightChange

from tests.dynamic.reference_kernels import ReferenceEventMaintainer, reference_apply
from tests.properties.strategies import weighted_graphs

BATCH_SIZES = (1, 4, 17)


@st.composite
def churn(draw, graph, max_events: int = 60):
    """Events over ``graph``'s vertices that collide often on purpose.

    Weights come from a small pool that includes the initial weights, so
    reweights regularly set a vertex to the weight it already has.
    """
    n = graph.n
    pool = sorted(set(np.asarray(graph.weights).tolist()) | {1.0, 2.5})
    vertex = st.integers(0, n - 1)
    events = []
    for _ in range(draw(st.integers(0, max_events))):
        kind = draw(st.integers(0, 5))
        v = draw(vertex)
        if kind == 0 or n < 2:
            events.append(WeightChange(v, draw(st.sampled_from(pool))))
        elif kind == 1:
            events.append(EdgeDelete(v, v))  # self-loop delete: a no-op
        else:
            u = draw(vertex.filter(lambda x: x != v))
            if kind == 2:  # the same edge churned inside one batch
                events += [EdgeInsert(u, v), EdgeDelete(v, u), EdgeInsert(u, v)]
            elif kind == 3:
                events.append(EdgeInsert(u, v))
            else:
                events.append(EdgeDelete(u, v))
    return events


def _graph_state(dyn: DynamicGraph) -> dict:
    n = dyn.n
    pu, pv = np.triu_indices(n, k=1)
    eu, ev = dyn.edge_arrays()
    return {
        "edges_u": eu.tolist(),
        "edges_v": ev.tolist(),
        "degrees": dyn._degrees.tolist(),
        "weights": dyn.weights.tobytes(),
        "has_edges": dyn.has_edges(pu, pv).tolist(),
        "neighbors": [sorted(dyn.neighbors(v).tolist()) for v in range(n)],
        "m": dyn.m,
        "delta_size": dyn.delta_size,
        "generation": dyn.generation,
        "compactions": dyn.compactions,
        "alive": dyn._alive.tolist(),
        "base_keep": dyn._base_keep.tolist(),
        "added": sorted(dyn._added_codes),
        "deleted": sorted(dyn._deleted_codes),
    }


class TestGraphApplyBatch:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=1, max_n=10))
    def test_flags_and_state_match_per_event_oracle(self, batch_size, data, graph):
        events = data.draw(churn(graph))
        ref = DynamicGraph(graph, min_compact=2, compact_fraction=0.1)
        vec = DynamicGraph(graph, min_compact=2, compact_fraction=0.1)
        for start in range(0, len(events), batch_size):
            batch = events[start : start + batch_size]
            ref_flags = [reference_apply(ref, upd) for upd in batch]
            vec_flags = vec.apply_batch(UpdateBatch.from_updates(batch))
            assert vec_flags.dtype == bool
            assert vec_flags.tolist() == ref_flags
            assert _graph_state(vec) == _graph_state(ref)
            assert ref.maybe_compact() == vec.maybe_compact()
            assert _graph_state(vec) == _graph_state(ref)
        assert vec.materialize().content_digest() == ref.materialize().content_digest()


class TestMaintainerApplyBatch:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=12))
    def test_reports_and_state_match_event_oracle(self, batch_size, data, graph):
        events = data.draw(churn(graph))
        runs = []
        for cls in (IncrementalCoverMaintainer, ReferenceEventMaintainer):
            dyn = DynamicGraph(graph, min_compact=2, compact_fraction=0.1)
            m = cls(dyn)
            if graph.m:
                m.adopt(minimum_weight_vertex_cover(graph, eps=0.1, seed=3))
            reports = [
                m.apply_batch(events[i : i + batch_size])
                for i in range(0, len(events), batch_size)
            ]
            runs.append((m, reports))
        (vec, vec_reports), (ref, ref_reports) = runs
        assert vec_reports == ref_reports, "per-batch reports differ"
        assert np.array_equal(vec.cover, ref.cover), "cover masks differ"
        assert vec._loads.tobytes() == ref._loads.tobytes(), "loads differ"
        assert vec._x == ref._x, "duals differ"
        assert vec.dual_value == ref.dual_value, "dual totals differ"
        assert _graph_state(vec.dyn) == _graph_state(ref.dyn)
        assert vec.verify()


class TestInvalidBatchIsAtomic:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=10))
    def test_bad_event_anywhere_leaves_state_untouched(self, data, graph):
        events = data.draw(churn(graph, max_events=12))
        bad = data.draw(
            st.sampled_from(
                [
                    EdgeInsert(1, 1),
                    EdgeInsert(0, graph.n),
                    EdgeDelete(-1, 0),
                    WeightChange(0, 0.0),
                    WeightChange(graph.n, 1.0),
                ]
            )
        )
        events.insert(data.draw(st.integers(0, len(events))), bad)
        m = IncrementalCoverMaintainer(DynamicGraph(graph))
        if graph.m:
            m.adopt(minimum_weight_vertex_cover(graph, eps=0.1, seed=3))
        before = (_graph_state(m.dyn), m.export_state())
        with pytest.raises(ValueError, match=f"update {events.index(bad) + 1}: "):
            m.apply_batch(events)
        after = (_graph_state(m.dyn), m.export_state())
        assert after[0] == before[0]
        for key, value in before[1].items():
            assert np.array_equal(after[1][key], value), key
