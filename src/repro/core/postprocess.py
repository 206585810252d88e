"""Cover post-processing: redundancy pruning.

Primal–dual covers are not inclusion-minimal: when both endpoints of an
edge freeze in the same iteration, either one alone may already suffice.
:func:`prune_redundant_vertices` removes vertices greedily (most expensive
first) as long as the set remains a cover.  The result is inclusion-minimal
and never heavier; the approximation guarantee is untouched (the pruned
cover is a subset of the guaranteed one).

This is deliberately *not* part of Algorithm 2 — the paper's output is the
frozen set, and the reproduction keeps it that way.  Pruning is offered as
the optional quality pass a production deployment would bolt on (measured
in the E9 ablation bench).

In MPC terms the pass costs O(1) rounds per sweep: each vertex needs one
bit per incident edge ("is my counterpart in the cover?"), which is one
exchange over the edge set; the greedy order can be replaced by a random
priority order to stay symmetric.  The implementation here is the
sequential greedy (the strongest variant) since it is evaluated for
solution quality, not round complexity.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.graph import WeightedGraph

__all__ = ["prune_redundant_vertices", "is_minimal_cover"]


def prune_redundant_vertices(
    graph: WeightedGraph,
    in_cover: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    candidates: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedily drop cover vertices whose removal keeps the cover valid.

    Vertices are visited in decreasing ``w(v)/deg(v)`` — the least
    cost-effective cover members go first (isolated vertices, with no
    coverage at all, lead; ties by id for determinism).  A vertex is
    droppable iff every incident edge's other endpoint is also in the
    (current) cover.

    Returns a new boolean mask; the input is not modified.

    Parameters
    ----------
    candidates:
        Optional restriction of the sweep: a boolean mask of shape
        ``(n,)`` or an array of vertex ids.  Only candidate vertices are
        considered for removal (non-candidates keep their state), making
        the pass O(candidate neighborhood) — the hot-path mode of
        incremental repair, where only the vertices touched by an update
        batch can have become redundant.  ``None`` sweeps every vertex.

    Raises
    ------
    ValueError
        If ``in_cover`` is not a vertex cover to begin with.
    """
    cover = np.asarray(in_cover, dtype=bool).copy()
    if cover.shape != (graph.n,):
        raise ValueError(f"in_cover must have shape ({graph.n},)")
    if not graph.is_vertex_cover(cover):
        raise ValueError("in_cover is not a vertex cover; nothing to prune")
    w = graph.weights if weights is None else np.asarray(weights, dtype=np.float64)

    # needed[v] = number of incident edges only covered by v.
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
            if cand.shape != (graph.n,):
                raise ValueError(f"candidates mask must have shape ({graph.n},)")
            sweep = np.nonzero(cand)[0].astype(np.int64)
        else:
            sweep = np.unique(cand.astype(np.int64)) if cand.size else np.empty(0, np.int64)
            if sweep.size and (sweep[0] < 0 or sweep[-1] >= graph.n):
                raise ValueError(f"candidate ids must lie in [0, {graph.n})")

    # Sweep only the vertices that can drop now: `needed` only grows and
    # the cover only shrinks during the pass, so every other vertex would
    # hit the `continue` below anyway (the decisions are unchanged).
    sweep = sweep[cover[sweep] & (needed[sweep] == 0)]
    with np.errstate(divide="ignore"):
        effectiveness = np.where(graph.degrees > 0, w / np.maximum(graph.degrees, 1), np.inf)
    order = sweep[np.lexsort((sweep, -effectiveness[sweep]))]
    indptr = graph.indptr
    adj_v = graph.adj_vertices
    for v in order:
        if not cover[v] or needed[v] > 0:
            continue
        cover[v] = False
        # Every incident edge is now solely covered by its other endpoint.
        for slot in range(int(indptr[v]), int(indptr[v + 1])):
            needed[adj_v[slot]] += 1
    return cover


def is_minimal_cover(graph: WeightedGraph, in_cover: np.ndarray) -> bool:
    """True iff ``in_cover`` is a vertex cover with no removable vertex."""
    cover = np.asarray(in_cover, dtype=bool)
    if not graph.is_vertex_cover(cover):
        return False
    eu, ev = graph.edges_u, graph.edges_v
    only_u = cover[eu] & ~cover[ev]
    only_v = cover[ev] & ~cover[eu]
    needed = np.bincount(eu[only_u], minlength=graph.n) + np.bincount(
        ev[only_v], minlength=graph.n
    )
    # A cover vertex with needed == 0 could be dropped.  Isolated cover
    # vertices (degree 0) are trivially droppable too.
    droppable = cover & (needed == 0)
    return not bool(droppable.any())
