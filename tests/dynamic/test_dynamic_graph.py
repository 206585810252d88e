"""Tests for the delta-log graph wrapper."""

import numpy as np
import pytest

from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.updates import EdgeDelete, EdgeInsert, WeightChange
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights


@pytest.fixture
def dyn_path4():
    """Path 0-1-2-3 wrapped in a DynamicGraph."""
    return DynamicGraph(WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))


class TestApply:
    def test_insert_new_edge(self, dyn_path4):
        assert dyn_path4.apply(EdgeInsert(0, 3))
        assert dyn_path4.has_edge(0, 3)
        assert dyn_path4.m == 4

    def test_insert_existing_is_noop(self, dyn_path4):
        assert not dyn_path4.apply(EdgeInsert(0, 1))
        assert not dyn_path4.apply(EdgeInsert(1, 0))  # orientation-free
        assert dyn_path4.m == 3

    def test_delete_existing(self, dyn_path4):
        assert dyn_path4.apply(EdgeDelete(1, 2))
        assert not dyn_path4.has_edge(1, 2)
        assert dyn_path4.m == 2

    def test_delete_absent_is_noop(self, dyn_path4):
        assert not dyn_path4.apply(EdgeDelete(0, 3))
        assert dyn_path4.m == 3

    def test_reinsert_deleted_base_edge(self, dyn_path4):
        dyn_path4.apply(EdgeDelete(0, 1))
        assert dyn_path4.apply(EdgeInsert(0, 1))
        assert dyn_path4.has_edge(0, 1)
        assert dyn_path4.m == 3
        assert dyn_path4.delta_size == 0  # cancelled out

    def test_delete_freshly_added_edge(self, dyn_path4):
        dyn_path4.apply(EdgeInsert(0, 2))
        assert dyn_path4.apply(EdgeDelete(0, 2))
        assert dyn_path4.delta_size == 0

    def test_reweight(self, dyn_path4):
        assert dyn_path4.apply(WeightChange(1, 4.0))
        assert dyn_path4.weights[1] == 4.0

    def test_reweight_same_value_is_noop(self, dyn_path4):
        assert not dyn_path4.apply(WeightChange(1, 1.0))

    def test_self_loop_rejected(self, dyn_path4):
        with pytest.raises(ValueError, match="self-loop"):
            dyn_path4.apply(EdgeInsert(2, 2))

    def test_out_of_range_rejected(self, dyn_path4):
        with pytest.raises(ValueError, match="out of range"):
            dyn_path4.apply(EdgeInsert(0, 9))

    def test_bad_weight_rejected(self, dyn_path4):
        with pytest.raises(ValueError, match="> 0"):
            dyn_path4.apply(WeightChange(0, -1.0))

    def test_generation_counts_effective_updates(self, dyn_path4):
        g0 = dyn_path4.generation
        dyn_path4.apply(EdgeInsert(0, 1))  # no-op
        assert dyn_path4.generation == g0
        dyn_path4.apply(EdgeInsert(0, 2))
        assert dyn_path4.generation == g0 + 1


class TestQueries:
    def test_neighbors_reflect_delta(self, dyn_path4):
        dyn_path4.apply(EdgeDelete(1, 2))
        dyn_path4.apply(EdgeInsert(1, 3))
        assert set(dyn_path4.neighbors(1).tolist()) == {0, 3}

    def test_neighbors_is_a_flat_int_array(self, dyn_path4):
        neigh = dyn_path4.neighbors(1)
        assert isinstance(neigh, np.ndarray)
        assert neigh.dtype == np.int64
        assert set(neigh.tolist()) == {0, 2}

    def test_degree_reflects_delta(self, dyn_path4):
        assert dyn_path4.degree(1) == 2
        dyn_path4.apply(EdgeInsert(1, 3))
        assert dyn_path4.degree(1) == 3
        dyn_path4.apply(EdgeDelete(0, 1))
        assert dyn_path4.degree(1) == 2

    def test_degrees_of_matches_degree(self, dyn_path4):
        dyn_path4.apply(EdgeInsert(0, 3))
        ids = np.arange(4)
        expect = [dyn_path4.degree(v) for v in range(4)]
        assert dyn_path4.degrees_of(ids).tolist() == expect

    def test_has_edges_matches_has_edge(self, dyn_path4):
        dyn_path4.apply(EdgeDelete(1, 2))
        dyn_path4.apply(EdgeInsert(0, 3))
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
        arr = np.asarray(pairs, dtype=np.int64)
        got = dyn_path4.has_edges(arr[:, 0], arr[:, 1])
        assert got.tolist() == [dyn_path4.has_edge(u, v) for u, v in pairs]

    def test_neighbors_match_materialized(self):
        base = gnp_average_degree(60, 5.0, seed=0)
        dyn = DynamicGraph(base)
        rng = np.random.default_rng(1)
        for _ in range(120):
            u, v = rng.integers(0, 60, size=2)
            if u == v:
                continue
            if rng.random() < 0.5:
                dyn.apply(EdgeInsert(int(u), int(v)))
            else:
                dyn.apply(EdgeDelete(int(u), int(v)))
        mat = dyn.materialize()
        for v in range(60):
            assert set(dyn.neighbors(v).tolist()) == set(
                int(x) for x in mat.neighbors(v)
            )
            assert dyn.degree(v) == int(mat.degrees[v])
        eu, ev = mat.edges_u, mat.edges_v
        assert dyn.has_edges(eu, ev).all()
        assert dyn.degrees_of(np.arange(60)).tolist() == mat.degrees.tolist()


class TestMaterializeCompact:
    def test_materialize_empty_delta_is_base(self, dyn_path4):
        assert dyn_path4.materialize() is dyn_path4.base

    def test_materialize_is_memoized(self, dyn_path4):
        dyn_path4.apply(EdgeInsert(0, 3))
        assert dyn_path4.materialize() is dyn_path4.materialize()

    def test_materialize_reflects_all_update_kinds(self, dyn_path4):
        dyn_path4.apply(EdgeInsert(0, 2))
        dyn_path4.apply(EdgeDelete(2, 3))
        dyn_path4.apply(WeightChange(3, 9.0))
        mat = dyn_path4.materialize()
        expect = WeightedGraph.from_edge_list(
            4, [(0, 1), (1, 2), (0, 2)], np.array([1.0, 1.0, 1.0, 9.0])
        )
        assert mat == expect

    def test_compact_folds_delta(self, dyn_path4):
        dyn_path4.apply(EdgeInsert(0, 2))
        dyn_path4.apply(EdgeDelete(2, 3))
        before = dyn_path4.materialize()
        snapshot = dyn_path4.compact()
        assert dyn_path4.delta_size == 0
        assert snapshot == before
        assert dyn_path4.base is snapshot
        assert dyn_path4.compactions == 1

    def test_compact_without_changes_is_noop(self, dyn_path4):
        dyn_path4.compact()
        assert dyn_path4.compactions == 0

    def test_queries_survive_compaction(self, dyn_path4):
        dyn_path4.apply(EdgeInsert(0, 3))
        dyn_path4.compact()
        assert dyn_path4.has_edge(0, 3)
        assert dyn_path4.apply(EdgeDelete(0, 3))
        assert not dyn_path4.has_edge(0, 3)

    def test_maybe_compact_threshold(self):
        base = gnp_average_degree(100, 6.0, seed=2)
        dyn = DynamicGraph(base, min_compact=4, compact_fraction=0.01)
        rng = np.random.default_rng(3)
        compacted = False
        for _ in range(30):
            u, v = rng.integers(0, 100, size=2)
            if u != v:
                dyn.apply(EdgeInsert(int(u), int(v)))
            compacted |= dyn.maybe_compact()
        assert compacted
        assert dyn.compactions >= 1
        assert dyn.delta_size <= 5

    def test_equivalence_with_scratch_rebuild(self):
        """A long random update run matches building the graph from scratch."""
        base = gnp_average_degree(80, 5.0, seed=4).with_weights(
            uniform_weights(80, 1.0, 5.0, seed=5)
        )
        dyn = DynamicGraph(base, min_compact=8, compact_fraction=0.05)
        edges = {(int(u), int(v)) for u, v in zip(base.edges_u, base.edges_v)}
        weights = np.array(base.weights)
        rng = np.random.default_rng(6)
        for _ in range(400):
            r = rng.random()
            u, v = sorted(int(x) for x in rng.integers(0, 80, size=2))
            if r < 0.4 and u != v:
                dyn.apply(EdgeInsert(u, v))
                edges.add((u, v))
            elif r < 0.8 and u != v:
                dyn.apply(EdgeDelete(u, v))
                edges.discard((u, v))
            else:
                w = float(rng.uniform(0.5, 9.0))
                dyn.apply(WeightChange(u, w))
                weights[u] = w
            dyn.maybe_compact()
        expect = WeightedGraph.from_edge_list(80, sorted(edges), weights)
        assert dyn.materialize() == expect
        assert dyn.compactions >= 1


def _assert_csr_matches_lexsort_oracle(dyn, base):
    """Compare ``dyn``'s directed CSR against the two-key lexsort
    construction :meth:`DynamicGraph._set_base` replaced."""
    n, m = base.n, base.m
    heads = np.concatenate([base.edges_u, base.edges_v])
    tails = np.concatenate([base.edges_v, base.edges_u])
    order = np.lexsort((tails, heads))
    inv = np.empty(2 * m, dtype=np.int64)
    inv[order] = np.arange(2 * m, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    for got, want in (
        (dyn._adj, tails[order]),
        (dyn._indptr, indptr),
        (dyn._slot_uv, inv[:m]),
        (dyn._slot_vu, inv[m:]),
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestSetBase:
    @pytest.mark.parametrize(
        "base",
        [
            WeightedGraph.empty(1),
            WeightedGraph.empty(6),
            WeightedGraph.from_edge_list(2, [(1, 0)]),
            gnp_average_degree(50, 4.0, seed=7),
            gnp_average_degree(300, 12.0, seed=8),
            gnp_average_degree(2000, 3.0, seed=9),
        ],
        ids=["n1-edgeless", "n6-edgeless", "n2", "gnp50", "gnp300", "gnp2000"],
    )
    def test_csr_matches_lexsort_oracle(self, base):
        _assert_csr_matches_lexsort_oracle(DynamicGraph(base), base)

    def test_csr_after_compaction_matches_lexsort_oracle(self):
        dyn = DynamicGraph(gnp_average_degree(200, 6.0, seed=10))
        rng = np.random.default_rng(11)
        for _ in range(300):
            u, v = (int(x) for x in rng.integers(0, 200, size=2))
            if u != v:
                dyn.apply(EdgeInsert(u, v) if rng.random() < 0.5 else EdgeDelete(u, v))
        _assert_csr_matches_lexsort_oracle(dyn, dyn.compact())
