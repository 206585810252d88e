"""Write the golden checkpoint fixtures of the current formats (run from the repo root).

The fixtures pin the on-disk formats: if a file stops loading, or loads
to different state, a format change slipped in without a version bump.
Each fixture is named by its format version (``golden_snapshot_v2.npz``
is snapshot format 2, ``golden_wal_v1.jsonl`` is WAL format 1), and an
existing file is never overwritten — older fixtures, such as the
format-1 snapshot the migration tests load, cannot be rewritten by a
newer writer.  After an intentional, versioned format change, run::

    PYTHONPATH=src python tests/recovery/data/make_golden.py

to add the new version's fixture beside the old ones.
"""

import os
import sys

import numpy as np

from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer, WriteAheadLog
from repro.dynamic.checkpoint import CHECKPOINT_FORMAT_VERSION, save_snapshot
from repro.dynamic.wal import WAL_FORMAT_VERSION
from repro.graphs.graph import WeightedGraph
from repro.graphs.updates import EdgeDelete, EdgeInsert, WeightChange

HERE = os.path.dirname(os.path.abspath(__file__))

#: The fixture's weights and updates, batch by batch (also in the WAL).
WEIGHTS = [4.0, 1.0, 3.0, 1.0, 2.0]
BATCHES = [
    [EdgeInsert(0, 1), EdgeInsert(1, 2), EdgeInsert(2, 3), EdgeInsert(0, 4)],
    [EdgeInsert(2, 4), EdgeDelete(1, 2), WeightChange(3, 2.5)],
]
#: The stream position the snapshot fixtures record in ``meta["extra"]``.
EXTRA = {"next_batch_index": 2, "updates_applied": 7}


def snapshot_fixture(version: int) -> str:
    return os.path.join(HERE, f"golden_snapshot_v{version}.npz")


def wal_fixture(version: int) -> str:
    return os.path.join(HERE, f"golden_wal_v{version}.jsonl")


def build_maintainer():
    """A tiny, fully deterministic mid-stream maintainer (no solver).

    Starts from an edgeless graph — the documented bootstrap path where
    the pricing repairs build cover and duals from zero, so the fixture
    state depends only on the maintainer's own deterministic logic.
    """
    graph = WeightedGraph.empty(5, weights=WEIGHTS)
    maintainer = IncrementalCoverMaintainer(DynamicGraph(graph))
    for batch in BATCHES:
        maintainer.apply_batch(batch)
    return maintainer


def write_snapshot(path: str) -> None:
    maintainer = build_maintainer()
    digest = save_snapshot(path, maintainer, extra=EXTRA, fsync=False)
    print("snapshot digest:", digest)
    print("cover:", np.nonzero(maintainer.cover)[0].tolist())
    print("dual_value:", maintainer.dual_value)
    print("cover_weight:", maintainer.cover_weight)


def write_wal(path: str) -> None:
    """The fixture batches, stamped with pre-apply digests as run_stream does."""
    maintainer = IncrementalCoverMaintainer(
        DynamicGraph(WeightedGraph.empty(5, weights=WEIGHTS))
    )
    with WriteAheadLog(path, fsync=False) as wal:
        for i, batch in enumerate(BATCHES):
            wal.append(i, batch, state_digest=maintainer.dyn.content_digest())
            maintainer.apply_batch(batch)


def main() -> int:
    written = 0
    for path, write in (
        (snapshot_fixture(CHECKPOINT_FORMAT_VERSION), write_snapshot),
        (wal_fixture(WAL_FORMAT_VERSION), write_wal),
    ):
        name = os.path.relpath(path)
        if os.path.exists(path):
            print(f"{name} exists; not overwriting it", file=sys.stderr)
            continue
        write(path)
        print("wrote", name)
        written += 1
    return 0 if written else 1


if __name__ == "__main__":
    sys.exit(main())
