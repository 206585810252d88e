"""Property-based tests of the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.checks import validate_graph
from repro.graphs.graph import WeightedGraph

from tests.properties.strategies import weighted_graphs


class TestStructuralInvariants:
    @given(weighted_graphs())
    def test_all_invariants_hold(self, g):
        validate_graph(g)

    @given(weighted_graphs())
    def test_degree_sum_is_twice_edges(self, g):
        assert g.degrees.sum() == 2 * g.m

    @given(weighted_graphs())
    def test_average_degree_formula(self, g):
        if g.n:
            assert g.average_degree == 2 * g.m / g.n

    @given(weighted_graphs())
    def test_construction_idempotent(self, g):
        rebuilt = WeightedGraph(g.n, g.edges_u, g.edges_v, g.weights)
        assert rebuilt == g


class TestIncidentSumsProperties:
    @given(weighted_graphs(), st.integers(0, 10**6))
    def test_linearity(self, g, seed):
        rng = np.random.default_rng(seed)
        x = rng.random(g.m)
        y = rng.random(g.m)
        lhs = g.incident_sums(2.0 * x + y)
        rhs = 2.0 * g.incident_sums(x) + g.incident_sums(y)
        assert np.allclose(lhs, rhs)

    @given(weighted_graphs())
    def test_total_is_twice_edge_sum(self, g):
        x = np.ones(g.m)
        assert g.incident_sums(x).sum() == 2 * g.m

    @given(weighted_graphs())
    def test_counts_match_sums_for_binary(self, g):
        if g.m == 0:
            return
        mask = np.zeros(g.m, dtype=bool)
        mask[:: max(1, g.m // 3)] = True
        counts = g.incident_counts(mask)
        sums = g.incident_sums(mask.astype(np.float64))
        assert np.array_equal(counts, sums.astype(np.int64))


class TestSubgraphProperties:
    @given(weighted_graphs(), st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_induced_subgraph_edge_mapping(self, g, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(g.n) < 0.5
        sub, vids, eids = g.induced_subgraph(mask)
        validate_graph(sub)
        assert sub.n == int(mask.sum())
        # every parent edge with both endpoints selected appears exactly once
        fu, fv = g.endpoint_values(mask)
        assert eids.size == int((fu & fv).sum())

    @given(weighted_graphs())
    def test_full_mask_identity(self, g):
        sub, _, _ = g.induced_subgraph(np.ones(g.n, dtype=bool))
        assert sub == g

    @given(weighted_graphs())
    def test_empty_mask(self, g):
        sub, vids, eids = g.induced_subgraph(np.zeros(g.n, dtype=bool))
        assert sub.n == 0 and sub.m == 0


class TestSerializationProperties:
    @given(weighted_graphs())
    @settings(max_examples=30)
    def test_npz_roundtrip(self, g):
        import os
        import tempfile

        from repro.graphs.io import load_npz, save_npz

        fd, path = tempfile.mkstemp(suffix=".npz")
        os.close(fd)
        try:
            save_npz(g, path)
            assert load_npz(path) == g
        finally:
            os.unlink(path)


def _lexsort_canonical_edges(edges_u, edges_v, *, n, allow_duplicates=True):
    """The two-key lexsort canonicalization the int64 key sort replaced;
    kept as the oracle for :func:`canonical_edges`."""
    u = np.ascontiguousarray(edges_u, dtype=np.int64)
    v = np.ascontiguousarray(edges_v, dtype=np.int64)
    if u.size == 0:
        return u, v
    if (u == v).any():
        raise ValueError(f"self-loop at vertex {int(u[u == v][0])} is not allowed")
    if not ((u >= 0) & (v >= 0) & (u < n) & (v < n)).all():
        raise ValueError(f"edge endpoints must lie in [0, {n})")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    if not keep.all():
        if not allow_duplicates:
            raise ValueError("duplicate edges present and allow_duplicates=False")
        lo, hi = lo[keep], hi[keep]
    return lo, hi


@st.composite
def raw_edge_arrays(draw):
    """Uncanonical endpoint arrays: mixed orientation, repeats (some
    reversed), shuffled order, occasionally one invalid pair."""
    n = draw(st.sampled_from([1, 2, 2**20]) | st.integers(3, 40))
    pairs = []
    if n > 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=40,
            )
        )
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=10))
        pairs += [(v, u) if flip else (u, v) for (u, v), flip in repeats]
    bad = draw(st.sampled_from([None, None, None, "loop", "high", "negative"]))
    if bad is not None:
        pairs.insert(
            draw(st.integers(0, len(pairs))),
            {"loop": (n - 1, n - 1), "high": (0, n), "negative": (-1, n - 1)}[bad],
        )
    pairs = draw(st.permutations(pairs))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, u, v


def _outcome(fn, u, v, n, allow_duplicates):
    try:
        lo, hi = fn(u.copy(), v.copy(), n=n, allow_duplicates=allow_duplicates)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", lo.dtype, lo.tolist(), hi.dtype, hi.tolist())


class TestCanonicalEdgesMatchesLexsort:
    @given(raw_edge_arrays(), st.booleans())
    @settings(max_examples=300)
    def test_key_sort_equals_lexsort(self, case, allow_duplicates):
        from repro.graphs.graph import canonical_edges

        n, u, v = case
        assert _outcome(canonical_edges, u, v, n, allow_duplicates) == _outcome(
            _lexsort_canonical_edges, u, v, n, allow_duplicates
        )
