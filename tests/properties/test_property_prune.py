"""Property: the pre-filtered prune sweep ≡ the full sweep.

:func:`~repro.core.postprocess.prune_redundant_vertices` visits only the
vertices that can drop at pass start (in the cover, no edge solely
covered by them).  Hypothesis compares it with the original sweep over
every candidate (``tests/core/reference_postprocess.py``) on random
graphs, covers, weight overrides and candidate sets — all candidates,
a boolean mask, or an id array with repeats.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.postprocess import is_minimal_cover, prune_redundant_vertices

from tests.core.reference_postprocess import reference_prune_redundant_vertices
from tests.properties.strategies import weighted_graphs


@st.composite
def covers(draw, graph):
    """A random vertex cover: random bits, then one endpoint per uncovered edge."""
    n = graph.n
    cover = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    for u, v in zip(graph.edges_u.tolist(), graph.edges_v.tolist()):
        if not (cover[u] or cover[v]):
            cover[u if draw(st.booleans()) else v] = True
    return cover


@st.composite
def candidate_sets(draw, n):
    kind = draw(st.sampled_from(["all", "mask", "ids"]))
    if kind == "all":
        return None
    if kind == "mask":
        return np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    ids = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return np.asarray(ids, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), graph=weighted_graphs(min_n=1, max_n=20))
def test_prefiltered_sweep_matches_full_sweep(data, graph):
    cover = data.draw(covers(graph))
    candidates = data.draw(candidate_sets(graph.n))
    weights = None
    if data.draw(st.booleans()):
        # Ties in w/deg exercise the id tie-break.
        weights = np.asarray(
            data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=graph.n, max_size=graph.n))
        )
    got = prune_redundant_vertices(graph, cover, weights=weights, candidates=candidates)
    want = reference_prune_redundant_vertices(
        graph, cover, weights=weights, candidates=candidates
    )
    assert got.tobytes() == want.tobytes()
    assert graph.is_vertex_cover(got)
    if candidates is None:
        assert is_minimal_cover(graph, got)
