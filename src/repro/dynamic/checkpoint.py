"""Versioned, digest-stamped snapshots of dynamic-stream state.

A *snapshot* is one self-contained file holding everything needed to
reconstruct an equivalent :class:`~repro.dynamic.IncrementalCoverMaintainer`
mid-stream:

* the **current graph** (canonical endpoint arrays + live weights — the
  delta log is folded away; restore starts from a fresh base snapshot,
  which the maintainer's pair-keyed state is explicitly independent of);
* the **maintainer state** exported bit-exactly by
  :meth:`~repro.dynamic.IncrementalCoverMaintainer.export_state` (cover
  mask, loads, pair-keyed duals, dual total, drift baseline, batch count);
* a **metadata header** (JSON): format version, the graph's content
  digest, scalar state, and caller counters (stream position, policy
  cooldown, re-solve tally).

The container is an NPZ archive (arrays stay binary; member compression is
deflate by default and can be disabled per write — ``np.savez_compressed``
dominates snapshot cost on large graphs — the header is one JSON string
member).  Format version 2
stores the duals as one flat ``dual_codes`` array (the ``(u << 32) | v``
encoding of :mod:`repro.dynamic.duals`) plus values — the
:class:`~repro.dynamic.duals.DualStore` serializes straight into the
archive with a single vectorized encode; version-1 snapshots (two-column
``dual_keys``) keep loading through the migration path in
:func:`load_snapshot`.  Two integrity layers make restores trustworthy:

1. a **content digest** over the header + every array, recomputed on load
   (bit rot, torn copies, and hand-edits raise
   :class:`CheckpointCorruptionError` instead of restoring a wrong cover);
2. a **format version** gate — a snapshot from a future format fails with
   :class:`CheckpointVersionError` naming both versions.

Writes are atomic (temp file + rename, fsync'd), so a crash mid-snapshot
leaves the previous snapshot intact; see
:mod:`repro.dynamic.wal` for the companion write-ahead log and
:func:`repro.dynamic.stream.resume_stream` for the recovery procedure.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.dynamic.duals import decode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.maintainer import IncrementalCoverMaintainer
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import write_bytes_atomic

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointVersionError",
    "RestoredState",
    "save_snapshot",
    "load_snapshot",
    "snapshot_digest",
    "snapshot_meta",
]

PathLike = Union[str, "os.PathLike[str]"]

CHECKPOINT_FORMAT_VERSION = 2

_MAGIC = "repro-dynamic-snapshot"

#: Array members of the archive by format version, in digest order.
#: Version 2 replaced the two-column ``dual_keys`` with the flat encoded
#: ``dual_codes`` (see :mod:`repro.dynamic.duals`).
_ARRAY_FIELDS_V1 = (
    "edges_u",
    "edges_v",
    "weights",
    "cover",
    "loads",
    "dual_keys",
    "dual_values",
)
_ARRAY_FIELDS_V2 = (
    "edges_u",
    "edges_v",
    "weights",
    "cover",
    "loads",
    "dual_codes",
    "dual_values",
)
_ARRAY_FIELDS_BY_VERSION = {1: _ARRAY_FIELDS_V1, 2: _ARRAY_FIELDS_V2}


class CheckpointError(Exception):
    """A snapshot could not be written or restored."""


class CheckpointCorruptionError(CheckpointError):
    """A snapshot failed integrity checks (digest mismatch, damaged file)."""


class CheckpointVersionError(CheckpointError):
    """A snapshot's format version is not readable by this build."""


@dataclass(frozen=True)
class RestoredState:
    """Outcome of :func:`load_snapshot`.

    Attributes
    ----------
    dyn:
        The reconstructed dynamic graph (base snapshot = the saved graph,
        empty delta log).
    maintainer:
        The reconstructed maintainer, bit-identical to the exported one.
    meta:
        The verified metadata header, including the caller's ``extra``
        counters (stream position etc.).
    """

    dyn: DynamicGraph
    maintainer: IncrementalCoverMaintainer
    meta: dict


def _digest(meta_sans_digest: dict, arrays: dict, fields=None) -> str:
    """SHA-256 over the canonical header and every array's raw bytes.

    ``fields`` defaults to the array list of the header's format version,
    so version-1 files verify against the exact byte stream they were
    stamped with.
    """
    if fields is None:
        version = meta_sans_digest.get("format_version", CHECKPOINT_FORMAT_VERSION)
        fields = _ARRAY_FIELDS_BY_VERSION.get(version, _ARRAY_FIELDS_V2)
    h = hashlib.sha256()
    h.update(_MAGIC.encode("ascii"))
    h.update(
        json.dumps(meta_sans_digest, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    )
    for name in fields:
        arr = arrays[name]
        h.update(name.encode("ascii"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def snapshot_digest(path: PathLike) -> str:
    """The stored content digest of a snapshot file (no verification)."""
    return _read(path).meta["content_digest"]


def snapshot_meta(path: PathLike) -> dict:
    """A snapshot's verified metadata header (no object reconstruction).

    Cheap relative to :func:`load_snapshot` — integrity is checked but no
    graph or maintainer is rebuilt.  Used by maintenance commands
    (``repro wal-compact``) that only need the stream position stored in
    ``meta["extra"]``.
    """
    return _read(path).meta


def save_snapshot(
    path: PathLike,
    maintainer: IncrementalCoverMaintainer,
    *,
    extra: Optional[dict] = None,
    fsync: bool = True,
    compress_arrays: bool = True,
) -> str:
    """Serialize ``maintainer`` (and its current graph) to ``path``.

    ``extra`` is an arbitrary JSON-friendly dict stored verbatim in the
    header — the stream layer records its position and counters there.
    The file appears atomically; with ``fsync`` it also survives power
    loss.  ``compress_arrays=False`` writes a plain (store-only) NPZ —
    deflate dominates snapshot wall clock on large graphs, and the
    stream layer exposes the choice as ``--snapshot-compression``.
    Returns the snapshot's content digest.
    """
    graph = maintainer.dyn.materialize()
    state = maintainer.export_state()
    arrays = {
        "edges_u": np.asarray(graph.edges_u, dtype=np.int64),
        "edges_v": np.asarray(graph.edges_v, dtype=np.int64),
        "weights": np.asarray(graph.weights, dtype=np.float64),
        "cover": state["cover"],
        "loads": state["loads"],
        # export_state emits the store's codes directly — no re-encode.
        "dual_codes": np.asarray(state["dual_codes"], dtype=np.int64),
        "dual_values": state["dual_values"],
    }
    meta = {
        "magic": _MAGIC,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "n": int(graph.n),
        "m": int(graph.m),
        "graph_digest": graph.content_digest(),
        "dual_value": state["dual_value"],
        "base_ratio": state["base_ratio"],
        "batches_applied": state["batches_applied"],
        "extra": dict(extra or {}),
    }
    digest = _digest(meta, arrays, _ARRAY_FIELDS_V2)
    meta["content_digest"] = digest

    buf = io.BytesIO()
    savez = np.savez_compressed if compress_arrays else np.savez
    savez(buf, meta_json=np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    ), **arrays)
    try:
        write_bytes_atomic(path, buf.getvalue(), fsync=fsync)
    except OSError as exc:
        raise CheckpointError(f"cannot write snapshot {os.fspath(path)}: {exc}") from exc
    return digest


@dataclass(frozen=True)
class _RawSnapshot:
    meta: dict
    arrays: dict


def _read(path: PathLike) -> _RawSnapshot:
    """Read + integrity-check a snapshot file; no object reconstruction."""
    name = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"snapshot file not found: {name}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {name}: {exc}") from exc
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            if "meta_json" not in archive:
                raise CheckpointCorruptionError(
                    f"snapshot {name}: missing metadata header"
                )
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
            if not isinstance(meta, dict) or meta.get("magic") != _MAGIC:
                raise CheckpointCorruptionError(
                    f"snapshot {name}: not a {_MAGIC} file"
                )
            version = meta.get("format_version")
            fields = _ARRAY_FIELDS_BY_VERSION.get(version)
            if fields is None:
                raise CheckpointVersionError(
                    f"snapshot {name}: format version {version!r} is not "
                    f"supported (this build reads versions "
                    f"{sorted(_ARRAY_FIELDS_BY_VERSION)}); re-create the "
                    f"checkpoint with a matching build"
                )
            missing = [f for f in fields if f not in archive]
            if missing:
                raise CheckpointCorruptionError(
                    f"snapshot {name}: missing array members {missing}"
                )
            arrays = {f: archive[f] for f in fields}
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile/zlib/json damage comes in many shapes
        raise CheckpointCorruptionError(
            f"snapshot {name}: cannot parse archive ({exc})"
        ) from exc

    stored = meta.get("content_digest")
    check = dict(meta)
    check.pop("content_digest", None)
    computed = _digest(check, arrays, fields)
    if stored != computed:
        raise CheckpointCorruptionError(
            f"snapshot {name}: content digest mismatch (stored "
            f"{str(stored)[:12]}…, computed {computed[:12]}…) — the file is "
            f"corrupt; restore from an older snapshot or replay the full WAL"
        )
    return _RawSnapshot(meta=meta, arrays=arrays)


def load_snapshot(path: PathLike) -> RestoredState:
    """Restore a snapshot into a live ``(DynamicGraph, maintainer)`` pair.

    Raises
    ------
    CheckpointError
        Missing/unreadable file.
    CheckpointCorruptionError
        Any integrity failure — digest mismatch, damaged archive, or a
        header inconsistent with the arrays.
    CheckpointVersionError
        A format version this build cannot read.
    """
    raw = _read(path)
    meta, arrays = raw.meta, raw.arrays
    try:
        graph = WeightedGraph(
            int(meta["n"]), arrays["edges_u"], arrays["edges_v"], arrays["weights"]
        )
    except (KeyError, ValueError) as exc:
        raise CheckpointCorruptionError(
            f"snapshot {os.fspath(path)}: graph arrays are inconsistent ({exc})"
        ) from exc
    if graph.content_digest() != meta.get("graph_digest"):
        raise CheckpointCorruptionError(
            f"snapshot {os.fspath(path)}: restored graph digest "
            f"{graph.content_digest()[:12]}… does not match the stamped "
            f"{str(meta.get('graph_digest'))[:12]}…"
        )
    dyn = DynamicGraph(graph)
    if "dual_codes" in arrays:
        du, dv = decode_edge_codes(arrays["dual_codes"])
        dual_keys = np.stack([du, dv], axis=1) if du.size else du.reshape(0, 2)
    else:
        # Version-1 migration: two-column keys load as-is and the next
        # save_snapshot rewrites the file in the current format.
        dual_keys = np.asarray(arrays["dual_keys"], dtype=np.int64).reshape(-1, 2)
    state = {
        "cover": arrays["cover"],
        "loads": arrays["loads"],
        "dual_keys": dual_keys,
        "dual_values": arrays["dual_values"],
        "dual_value": meta["dual_value"],
        "base_ratio": meta["base_ratio"],
        "batches_applied": meta["batches_applied"],
    }
    try:
        maintainer = IncrementalCoverMaintainer.from_state(dyn, state)
    except (KeyError, ValueError) as exc:
        raise CheckpointCorruptionError(
            f"snapshot {os.fspath(path)}: maintainer state is inconsistent "
            f"with the stored graph ({exc})"
        ) from exc
    return RestoredState(dyn=dyn, maintainer=maintainer, meta=meta)
