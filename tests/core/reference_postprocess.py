"""Test oracle: the full-sweep body of ``prune_redundant_vertices``.

:func:`repro.core.postprocess.prune_redundant_vertices` sweeps only the
vertices that can drop when the pass starts.  This is the original
sweep over every candidate, kept as the executable spec;
``tests/properties/test_property_prune.py`` holds the two bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.graph import WeightedGraph


def reference_prune_redundant_vertices(
    graph: WeightedGraph,
    in_cover: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    candidates: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy prune visiting every candidate in decreasing ``w/deg`` order."""
    cover = np.asarray(in_cover, dtype=bool).copy()
    assert graph.is_vertex_cover(cover)
    w = graph.weights if weights is None else np.asarray(weights, dtype=np.float64)
    eu, ev = graph.edges_u, graph.edges_v
    only_u = cover[eu] & ~cover[ev]
    only_v = cover[ev] & ~cover[eu]
    needed = np.bincount(eu[only_u], minlength=graph.n) + np.bincount(
        ev[only_v], minlength=graph.n
    )
    if candidates is None:
        sweep = np.arange(graph.n, dtype=np.int64)
    else:
        cand = np.asarray(candidates)
        if cand.dtype == bool:
            sweep = np.nonzero(cand)[0].astype(np.int64)
        else:
            sweep = np.unique(cand.astype(np.int64))
    with np.errstate(divide="ignore"):
        effectiveness = np.where(graph.degrees > 0, w / np.maximum(graph.degrees, 1), np.inf)
    order = sweep[np.lexsort((sweep, -effectiveness[sweep]))]
    for v in order:
        if not cover[v] or needed[v] > 0:
            continue
        cover[v] = False
        for slot in range(int(graph.indptr[v]), int(graph.indptr[v + 1])):
            needed[graph.adj_vertices[slot]] += 1
    return cover
