"""Property: the maintainer's loss counters stay exact after every batch.

``IncrementalCoverMaintainer._out[v]`` counts ``v``'s current neighbors
outside the cover, and the prune filter trusts it.  ``apply_batch``
keeps it from what each overridable step reports, so the production
maintainer and both test oracles (``ReferenceKernelMaintainer``, whose
prune may replace the cover wholesale, and ``ReferenceEventMaintainer``,
whose event phase is the per-event loop) must all hold it equal to a
from-scratch recount.  Hypothesis drives them through batches of one
event, an edge inserted, deleted and reinserted inside a batch, hub-heavy
churn, tiny compaction thresholds (batches straddle snapshot rebuilds),
an ``adopt`` of a fresh solve mid-stream and an ``export_state`` →
``from_state`` round trip.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.graphs.updates import EdgeDelete, EdgeInsert

from tests.dynamic.reference_kernels import (
    ReferenceEventMaintainer,
    ReferenceKernelMaintainer,
)
from tests.properties.strategies import weighted_graphs
from tests.properties.test_property_batch_apply import churn

MAINTAINERS = (
    IncrementalCoverMaintainer,
    ReferenceKernelMaintainer,
    ReferenceEventMaintainer,
)


@st.composite
def hub_churn(draw, graph, max_events: int = 40):
    """Inserts and deletes concentrated on one or two hub vertices."""
    n = graph.n
    hubs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    events = []
    for _ in range(draw(st.integers(0, max_events))):
        h = draw(st.sampled_from(hubs))
        x = draw(st.integers(0, n - 1).filter(lambda x: x != h))
        events.append(EdgeInsert(h, x) if draw(st.integers(0, 3)) else EdgeDelete(x, h))
    return events


def recount(m: IncrementalCoverMaintainer) -> np.ndarray:
    """Outside neighbors per vertex, one neighborhood at a time."""
    free = ~m.cover
    return np.array(
        [int(free[m.dyn.neighbors(v)].sum()) for v in range(m.dyn.n)], dtype=np.int64
    )


@pytest.mark.parametrize("batch_size", (1, 5, 23))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=14))
def test_counters_equal_recount_after_every_batch(batch_size, data, graph):
    events = data.draw(churn(graph)) + data.draw(hub_churn(graph))
    events = data.draw(st.permutations(events))
    num_batches = -(-len(events) // batch_size)
    adopt_at = data.draw(st.integers(0, max(num_batches, 1)))
    restore_at = data.draw(st.integers(0, max(num_batches, 1)))
    covers = []
    for cls in MAINTAINERS:
        dyn = DynamicGraph(graph, min_compact=2, compact_fraction=0.1)
        m = cls(dyn)
        if graph.m:
            m.adopt(minimum_weight_vertex_cover(graph, eps=0.1, seed=3))
        assert np.array_equal(m._out, recount(m))
        for b, start in enumerate(range(0, len(events), batch_size)):
            if b == adopt_at and dyn.m:
                m.adopt(minimum_weight_vertex_cover(dyn.compact(), eps=0.1, seed=b))
                assert np.array_equal(m._out, recount(m))
            if b == restore_at:
                m = cls.from_state(dyn, m.export_state())
                assert type(m) is cls
            m.apply_batch(events[start : start + batch_size])
            assert np.array_equal(m._out, recount(m)), (cls.__name__, b)
            assert m.verify()
        covers.append((m.cover, m._out.copy()))
    for cover, out in covers[1:]:
        assert np.array_equal(cover, covers[0][0])
        assert np.array_equal(out, covers[0][1])
