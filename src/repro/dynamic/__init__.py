"""Dynamic-graph subsystem: certified MWVC over update streams.

The MPC algorithm solves one static instance per invocation; production
graphs mutate continuously.  This package maintains a valid, certified
cover under edge churn and weight changes, re-solving only when the
certificate drifts past a policy bound.  One engine does it: a single
:class:`DynamicGraph`, one :class:`IncrementalCoverMaintainer`, and one
per-batch stream loop.  The update events themselves live in
:mod:`repro.graphs.updates` and are re-exported here.

:mod:`repro.dynamic.dynamic_graph`
    :class:`DynamicGraph` — delta log over the immutable
    :class:`~repro.graphs.WeightedGraph`, with periodic compaction back to
    canonical CSR form.
:mod:`repro.dynamic.maintainer`
    :class:`IncrementalCoverMaintainer` — local pricing repair + touched
    pruning + a live duality certificate.
:mod:`repro.dynamic.repair`
    The vectorized repair/prune/certification kernels the maintainer runs.
:mod:`repro.dynamic.duals`
    The ``int64`` edge-code format of the per-edge duals, which every
    layer keeps as one plain ``dict`` from edge code to value.
:mod:`repro.dynamic.policy`
    :class:`ResolvePolicy` — drift-bounded re-solve trigger.
:mod:`repro.dynamic.ingest`
    Update sources: a JSON-lines file or a directory of segments.
:mod:`repro.dynamic.stream`
    :func:`run_stream` — batches, policy evaluation, and warm-started
    re-solves through the batch service (``repro stream``); plus
    :class:`CheckpointConfig` and :func:`resume_stream` for durable,
    crash-recoverable runs (``repro resume``).
:mod:`repro.dynamic.checkpoint`
    Versioned, digest-stamped snapshots of maintainer + graph state.
:mod:`repro.dynamic.wal`
    Append-only, checksummed write-ahead log of applied update batches.
"""

from repro.dynamic.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointVersionError,
    RestoredState,
    load_snapshot,
    save_snapshot,
)
from repro.dynamic.duals import decode_edge_codes, encode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.maintainer import BatchReport, IncrementalCoverMaintainer
from repro.dynamic.policy import ResolveDecision, ResolvePolicy
from repro.dynamic.ingest import (
    DirectorySource,
    FileSource,
    UpdateSource,
    iter_update_batches,
    open_update_source,
)
from repro.dynamic.stream import (
    CheckpointConfig,
    StreamRecord,
    StreamSummary,
    TIMING_KEYS,
    resume_stream,
    run_stream,
)
from repro.dynamic.wal import (
    WALCorruptionError,
    WALError,
    WALRecord,
    WriteAheadLog,
    compact_wal,
    read_wal,
    repair_wal,
)
from repro.graphs.updates import (
    EdgeDelete,
    EdgeInsert,
    GraphUpdate,
    WeightChange,
    load_update_stream,
    save_update_stream,
    update_from_json,
    update_to_json,
)

__all__ = [
    "BatchReport",
    "CheckpointConfig",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointVersionError",
    "DirectorySource",
    "DynamicGraph",
    "EdgeDelete",
    "EdgeInsert",
    "FileSource",
    "GraphUpdate",
    "IncrementalCoverMaintainer",
    "ResolveDecision",
    "ResolvePolicy",
    "RestoredState",
    "StreamRecord",
    "StreamSummary",
    "TIMING_KEYS",
    "UpdateSource",
    "WALCorruptionError",
    "WALError",
    "WALRecord",
    "WriteAheadLog",
    "compact_wal",
    "decode_edge_codes",
    "encode_edge_codes",
    "iter_update_batches",
    "load_snapshot",
    "load_update_stream",
    "open_update_source",
    "read_wal",
    "repair_wal",
    "resume_stream",
    "run_stream",
    "save_snapshot",
    "save_update_stream",
    "update_from_json",
    "update_to_json",
]
