"""Write-ahead log of applied update batches.

The durability contract of a dynamic stream (see
:mod:`repro.dynamic.checkpoint` for the companion snapshots):

* **Write-ahead.**  Each batch is appended — and by default fsync'd — to
  the log *before* it is applied to the in-memory maintainer, so every
  state the process can die in is reconstructible as
  ``last snapshot + replay of the WAL tail``.
* **Per-record checksums.**  Each record is one JSON line carrying a CRC32
  of its canonical serialization.  A committed record that fails its
  checksum is *corruption* and raises :class:`WALCorruptionError` — a
  damaged log must never be replayed into a silently wrong cover.
* **Torn tails are expected.**  A crash mid-append leaves a final line
  without its newline terminator (or cut mid-JSON).  That record was never
  committed — the batch it describes produced no durable state — so
  :func:`read_wal` drops it and reports the truncation instead of failing.

Record wire format (one per line)::

    {"v": 1, "batch_index": 3, "updates": [{"op": "insert", ...}, ...],
     "state_digest": "...", "crc": 123456789}

``crc`` is ``zlib.crc32`` over the canonical (sorted-keys, no-whitespace)
JSON of the record without the ``crc`` key.  The writer formats both the
checksummed text and the line once, straight from the batch's columns
(:meth:`~repro.graphs.updates.UpdateBatch.json_lines`), byte-identical to
``json.dumps(..., sort_keys=True, separators=(",", ":"))``, which is what
the reader checks the CRC against.  ``state_digest`` optionally stamps
the content digest of the graph the batch applies *to* (the pre-apply
state — the stamp is taken before the write-ahead commit, when the batch
has not run yet), letting replay verify, record by record, that it
reached the same graph the original run saw.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.graphs.updates import GraphUpdate, UpdateBatch

__all__ = [
    "WAL_FORMAT_VERSION",
    "WALError",
    "WALCorruptionError",
    "WALRecord",
    "WriteAheadLog",
    "compact_wal",
    "read_wal",
    "repair_wal",
]

PathLike = Union[str, "os.PathLike[str]"]

WAL_FORMAT_VERSION = 1


class WALError(Exception):
    """A write-ahead log could not be read or written."""


class WALCorruptionError(WALError):
    """A committed WAL record is damaged (bad checksum / malformed body)."""


@dataclass(frozen=True)
class WALRecord:
    """One committed batch: its index, its updates, and an optional stamp.

    Attributes
    ----------
    batch_index:
        Zero-based position of the batch in the stream.
    updates:
        The batch's update events, in application order, as columns.
    state_digest:
        Content digest of the graph the batch applies *to* (the pre-apply
        state; empty when the writer did not stamp one).  Replay checks it
        before applying the record, so a WAL paired with the wrong
        snapshot or stream fails loudly instead of rebuilding a wrong
        cover.
    """

    batch_index: int
    updates: UpdateBatch
    state_digest: str = ""

    def to_line(self) -> str:
        """The record's wire line (no newline), checksum included."""
        body = ",".join(self.updates.json_lines(compact=True))
        stamp = (
            f'"state_digest":{json.dumps(self.state_digest)},'
            if self.state_digest
            else ""
        )
        # Sorted keys: batch_index < crc < state_digest < updates < v.
        head = f'{{"batch_index":{int(self.batch_index)},'
        tail = f'{stamp}"updates":[{body}],"v":{WAL_FORMAT_VERSION}}}'
        crc = zlib.crc32((head + tail).encode("utf-8"))
        return f'{head}"crc":{crc},{tail}'

    @classmethod
    def from_payload(cls, payload: dict) -> "WALRecord":
        """Parse a checksum-verified wire object back into a record."""
        version = payload.get("v")
        if version != WAL_FORMAT_VERSION:
            raise WALCorruptionError(
                f"unsupported WAL record version {version!r} "
                f"(this build reads version {WAL_FORMAT_VERSION})"
            )
        try:
            batch_index = int(payload["batch_index"])
            updates = UpdateBatch.from_json_objects(payload["updates"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WALCorruptionError(f"malformed WAL record body: {exc}") from exc
        return cls(
            batch_index=batch_index,
            updates=updates,
            state_digest=str(payload.get("state_digest", "")),
        )


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload: dict) -> int:
    return zlib.crc32(_canonical(payload).encode("utf-8"))


class WriteAheadLog:
    """Append-only JSONL log with per-record checksums and fsync commits.

    Parameters
    ----------
    path:
        Log file; created if absent, appended to if present (resuming a
        stream continues its existing log).
    fsync:
        Flush every appended record to disk before returning.  Disabling
        it trades the power-loss guarantee for throughput (an OS crash may
        then lose the newest records; a mere process kill loses nothing
        either way since the file buffer is flushed per append).
    """

    def __init__(self, path: PathLike, *, fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        existed = os.path.exists(self.path)
        try:
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise WALError(f"cannot open WAL {self.path}: {exc}") from exc
        if self.fsync and not existed:
            # A record fsync flushes data into an entry the directory may
            # not know about yet; flush the dirent once at creation.
            from repro.graphs.io import fsync_directory

            fsync_directory(os.path.dirname(self.path) or ".")

    def append(
        self,
        batch_index: int,
        updates: Union[UpdateBatch, Sequence[GraphUpdate]],
        *,
        state_digest: str = "",
    ) -> WALRecord:
        """Commit one batch record; returns the record as written.

        The line is encoded once, from the batch's columns.
        """
        if self._fh is None:
            raise WALError("WAL is closed")
        record = WALRecord(
            batch_index=int(batch_index),
            updates=UpdateBatch.from_updates(updates),
            state_digest=state_digest,
        )
        line = record.to_line()
        self._fh.write(line)
        self._fh.write("\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_wal(path: PathLike) -> Tuple[List[WALRecord], bool]:
    """Read a WAL; returns ``(records, torn_tail)``.

    Every committed record (newline-terminated line) must parse and pass
    its checksum, and batch indices must be strictly increasing —
    anything else raises :class:`WALCorruptionError` naming the offending
    line.  A final line without its newline terminator is a *torn tail*
    from a crash mid-append: it is dropped (never inspected beyond that)
    and reported via the second return value.

    A missing file reads as an empty, untorn log — a stream that crashed
    before its first commit.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return [], False
    except OSError as exc:
        raise WALError(f"cannot read WAL {os.fspath(path)}: {exc}") from exc

    torn = bool(raw) and not raw.endswith(b"\n")
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if torn:
        lines.pop()  # the uncommitted tail

    records: List[WALRecord] = []
    last_index: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WALCorruptionError(
                f"WAL {os.fspath(path)} line {lineno}: unparseable committed "
                f"record ({exc})"
            ) from exc
        if not isinstance(payload, dict) or "crc" not in payload:
            raise WALCorruptionError(
                f"WAL {os.fspath(path)} line {lineno}: record has no checksum"
            )
        crc = payload.pop("crc")
        if _crc(payload) != crc:
            raise WALCorruptionError(
                f"WAL {os.fspath(path)} line {lineno}: checksum mismatch "
                f"(stored {crc}, computed {_crc(payload)}) — the log is damaged"
            )
        try:
            record = WALRecord.from_payload(payload)
        except WALCorruptionError as exc:
            raise WALCorruptionError(
                f"WAL {os.fspath(path)} line {lineno}: {exc}"
            ) from exc
        if last_index is not None and record.batch_index <= last_index:
            raise WALCorruptionError(
                f"WAL {os.fspath(path)} line {lineno}: batch index "
                f"{record.batch_index} does not increase past {last_index}"
            )
        last_index = record.batch_index
        records.append(record)
    return records, torn


def compact_wal(path: PathLike, min_batch_index: int, *, fsync: bool = True) -> int:
    """Drop WAL records with ``batch_index < min_batch_index``; atomic.

    An unbounded stream otherwise grows its log forever: once a snapshot
    covers every batch up to ``k``, the records before ``k`` can never be
    replayed again (recovery always starts at a retained snapshot).  The
    caller picks ``min_batch_index`` as the *oldest retained* snapshot's
    position — compacting past a newer snapshot would strand the older
    ones.

    The log is rewritten through a temp file + rename, so a crash
    mid-compaction leaves either the old or the new log, both valid.  A
    torn tail (crash mid-append) is dropped, exactly as
    :func:`repair_wal` would.  Returns the number of records removed.

    Raises
    ------
    WALCorruptionError
        If a committed record is damaged — a corrupt log must be
        inspected, not silently rewritten.
    """
    try:
        records, torn = read_wal(path)
    except WALError:
        raise
    keep = [r for r in records if r.batch_index >= int(min_batch_index)]
    if len(keep) == len(records) and not torn:
        return 0
    data = "".join(record.to_line() + "\n" for record in keep).encode("utf-8")
    from repro.graphs.io import write_bytes_atomic

    try:
        write_bytes_atomic(path, data, fsync=fsync)
    except OSError as exc:
        raise WALError(f"cannot compact WAL {os.fspath(path)}: {exc}") from exc
    return len(records) - len(keep)


def repair_wal(path: PathLike) -> bool:
    """Truncate a torn tail in place; True iff bytes were removed.

    Appending to a log whose last record was cut mid-write would weld the
    new record onto the fragment and corrupt *both*; callers reopening a
    WAL after a crash must repair it first (``resume_stream`` does).  Only
    the unterminated tail is dropped — committed records are untouched —
    and the truncation itself is crash-safe (re-running it is a no-op).
    """
    try:
        with open(path, "rb+") as fh:
            raw = fh.read()
            if not raw or raw.endswith(b"\n"):
                return False
            keep = raw.rfind(b"\n") + 1  # 0 when no record ever committed
            fh.seek(keep)
            fh.truncate()
            fh.flush()
            os.fsync(fh.fileno())
    except FileNotFoundError:
        return False
    except OSError as exc:
        raise WALError(f"cannot repair WAL {os.fspath(path)}: {exc}") from exc
    return True
