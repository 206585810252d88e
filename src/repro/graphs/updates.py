"""Graph update events, columnar update batches, and the JSON-lines wire format.

A dynamic workload is a stream of three event kinds:

* ``{"op": "insert", "u": 3, "v": 7}``      — add edge ``{3, 7}``;
* ``{"op": "delete", "u": 3, "v": 7}``      — remove edge ``{3, 7}``;
* ``{"op": "reweight", "v": 3, "weight": 2.5}`` — set ``w(3) = 2.5``.

The vertex set is fixed for the lifetime of a stream (vertex churn is
modeled as weight changes plus edge churn around the vertex); endpoints are
unordered, so ``insert 3 7`` and ``insert 7 3`` denote the same event.

A stream has two in-memory forms:

* :data:`GraphUpdate` — one plain frozen dataclass per event, the form
  streams are built in programmatically (see :mod:`repro.graphs.streams`);
* :class:`UpdateBatch` — the same events as parallel columns ``op`` /
  ``u`` / ``v`` / ``w``, the form the dynamic subsystem runs on.  A JSONL
  stream is decoded into columns once (:meth:`UpdateBatch.from_json_lines`,
  one ``json.loads`` per chunk of lines), validated as a whole
  (:meth:`UpdateBatch.validate`), written to the write-ahead log and the
  durable input copy straight from the columns
  (:meth:`UpdateBatch.json_lines`), and applied to a
  :class:`repro.dynamic.DynamicGraph` with grouped array operations.

The wire format is strict: vertex ids must be JSON integers (not booleans,
floats or strings), weights JSON numbers (not booleans or strings) that
are finite and > 0, and no keys beyond the op's own are allowed.  Blank
lines and ``#`` comments are skipped, mirroring the batch-manifest format.
Every decode error names its 1-based line.  What the decoder cannot check
— that vertex ids are below the graph's vertex count and that an insert
is not a self-loop — :meth:`UpdateBatch.validate` checks for a whole batch
at once, before anything is logged or applied, so a bad event rejects its
batch atomically and can never wedge a durable stream.

This module lives in the graph substrate layer (events *are* graph
mutations) and imports nothing from the rest of the package, so both
:mod:`repro.graphs.streams` and the :mod:`repro.dynamic` subsystem can
depend on it without entangling the two packages.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "EdgeInsert",
    "EdgeDelete",
    "WeightChange",
    "GraphUpdate",
    "OP_DELETE",
    "OP_INSERT",
    "OP_REWEIGHT",
    "UpdateBatch",
    "update_to_json",
    "update_from_json",
    "save_update_stream",
    "save_update_stream_segments",
    "load_update_stream",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Values of :attr:`UpdateBatch.op`.
OP_INSERT, OP_DELETE, OP_REWEIGHT = 0, 1, 2
_OP_NAMES = ("insert", "delete", "reweight")

#: Non-blank lines decoded per ``json.loads`` call, and events encoded per
#: write: bounds the transient memory of a whole-stream decode or copy.
CHUNK = 4096

_EDGE_KEYS = frozenset(("op", "u", "v"))
_REWEIGHT_KEYS = frozenset(("op", "v", "weight"))


@dataclass(frozen=True)
class EdgeInsert:
    """Add the undirected edge ``{u, v}`` (no-op if already present)."""

    u: int
    v: int


@dataclass(frozen=True)
class EdgeDelete:
    """Remove the undirected edge ``{u, v}`` (no-op if absent)."""

    u: int
    v: int


@dataclass(frozen=True)
class WeightChange:
    """Set vertex ``v``'s weight to ``weight`` (must stay positive)."""

    v: int
    weight: float


GraphUpdate = Union[EdgeInsert, EdgeDelete, WeightChange]


class _RecordError(ValueError):
    """A malformed wire record at position ``index`` of a decoded run."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _parse_records(specs: Sequence, lines: Optional[List[int]] = None) -> "UpdateBatch":
    """Wire objects (parsed JSON) → columns, enforcing the strict wire types.

    ``lines`` tags each object with its source line.  Raises
    :class:`_RecordError` at the first malformed object.
    """
    ops: List[int] = []
    us: List[int] = []
    vs: List[int] = []
    ws: List[float] = []
    for i, spec in enumerate(specs):
        if type(spec) is not dict:
            raise _RecordError(
                i, f"update record must be a JSON object, got {type(spec).__name__}"
            )
        name = spec.get("op")
        if name == "insert" or name == "delete":
            if spec.keys() != _EDGE_KEYS:
                raise _RecordError(i, _key_error(spec, name, _EDGE_KEYS))
            a, b = spec["u"], spec["v"]
            if type(a) is not int or type(b) is not int:
                bad = "u" if type(a) is not int else "v"
                raise _RecordError(
                    i,
                    f"op {name!r}: {bad!r} must be a JSON integer vertex id, "
                    f"got {spec[bad]!r}",
                )
            ops.append(OP_INSERT if name == "insert" else OP_DELETE)
            us.append(a)
            vs.append(b)
            ws.append(0.0)
        elif name == "reweight":
            if spec.keys() != _REWEIGHT_KEYS:
                raise _RecordError(i, _key_error(spec, name, _REWEIGHT_KEYS))
            b, x = spec["v"], spec["weight"]
            if type(b) is not int:
                raise _RecordError(
                    i, f"op 'reweight': 'v' must be a JSON integer vertex id, got {b!r}"
                )
            if type(x) is not float:
                if type(x) is not int:
                    raise _RecordError(
                        i, f"op 'reweight': 'weight' must be a JSON number, got {x!r}"
                    )
                x = float(x)
            if not (math.isfinite(x) and x > 0):
                raise _RecordError(
                    i, f"reweight weight must be finite and > 0, got {x}"
                )
            ops.append(OP_REWEIGHT)
            us.append(-1)
            vs.append(b)
            ws.append(x)
        else:
            raise _RecordError(
                i, f"unknown op {name!r}; expected 'insert', 'delete' or 'reweight'"
            )
    return UpdateBatch._from_lists(ops, us, vs, ws, lines)


def _key_error(spec: dict, name: str, allowed: frozenset) -> str:
    extra = set(spec) - allowed
    if extra:
        return f"unknown keys {sorted(extra)} for op {name!r}"
    need = " and ".join(repr(k) for k in sorted(allowed - {"op"}))
    return f"op {name!r} needs keys {need}"


class UpdateBatch:
    """A run of update events as parallel columns.

    Attributes
    ----------
    op:
        ``int8`` event kind: :data:`OP_INSERT`, :data:`OP_DELETE` or
        :data:`OP_REWEIGHT`.
    u, v:
        ``int64`` endpoints in wire order (not canonicalized).  A reweight
        names its vertex in ``v``; its ``u`` is ``-1``.
    w:
        ``float64`` new weight of a reweight (``0.0`` for edge events).
    lines:
        ``int64`` 1-based source line of each event when decoded from
        JSON lines, else ``None``; validation errors then name the 1-based
        position ``offset + row + 1`` instead (a slice of a stream keeps
        counting from the stream's start).

    A batch is an immutable ``Sequence[GraphUpdate]``: ``len``, indexing
    (an event; a slice is a batch over views of the columns) and iteration
    yield the dataclass events, and a batch equals any sequence of the
    same events.
    """

    __slots__ = ("op", "u", "v", "w", "lines", "offset")

    def __init__(
        self,
        op: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        *,
        lines: Optional[np.ndarray] = None,
        offset: int = 0,
    ):
        self.op = np.asarray(op, dtype=np.int8)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.float64)
        self.lines = None if lines is None else np.asarray(lines, dtype=np.int64)
        self.offset = int(offset)
        k = self.op.shape
        if self.op.ndim != 1 or not (self.u.shape == self.v.shape == self.w.shape == k):
            raise ValueError("update columns must be 1-D arrays of one length")
        if self.lines is not None and self.lines.shape != k:
            raise ValueError("lines must have one entry per update")
        if k[0] and (int(self.op.min()) < 0 or int(self.op.max()) > OP_REWEIGHT):
            raise ValueError(f"op codes must be in [0, {OP_REWEIGHT}]")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_lists(cls, ops, us, vs, ws, lines=None) -> "UpdateBatch":
        try:
            u = np.array(us, dtype=np.int64)
            v = np.array(vs, dtype=np.int64)
        except OverflowError:
            i = next(
                i
                for i, (a, b) in enumerate(zip(us, vs))
                if not (-(1 << 63) <= a < (1 << 63) and -(1 << 63) <= b < (1 << 63))
            )
            raise _RecordError(i, "vertex id does not fit in 64 bits") from None
        return cls(
            np.array(ops, dtype=np.int8), u, v, np.array(ws, dtype=np.float64),
            lines=None if lines is None else np.array(lines, dtype=np.int64),
        )

    @classmethod
    def from_updates(cls, updates: Iterable[GraphUpdate]) -> "UpdateBatch":
        """Columns of a sequence of events (a batch is returned as is)."""
        if isinstance(updates, cls):
            return updates
        ops: List[int] = []
        us: list = []
        vs: list = []
        ws: list = []
        for upd in updates:
            if isinstance(upd, EdgeInsert):
                ops.append(OP_INSERT)
            elif isinstance(upd, EdgeDelete):
                ops.append(OP_DELETE)
            elif isinstance(upd, WeightChange):
                ops.append(OP_REWEIGHT)
                us.append(-1)
                vs.append(upd.v)
                ws.append(upd.weight)
                continue
            else:
                raise TypeError(f"not a graph update: {type(upd).__name__}")
            us.append(upd.u)
            vs.append(upd.v)
            ws.append(0.0)
        try:
            return cls._from_lists(ops, us, vs, ws)
        except _RecordError as exc:
            raise ValueError(f"update {exc.index + 1}: {exc}") from None

    @classmethod
    def from_json_objects(cls, specs: Sequence) -> "UpdateBatch":
        """Columns of parsed wire objects (e.g. a WAL record's body).

        A malformed object raises ``ValueError`` naming its 1-based
        position.
        """
        try:
            return _parse_records(specs)
        except _RecordError as exc:
            raise ValueError(f"update {exc.index + 1}: {exc}") from None

    @classmethod
    def from_json_lines(cls, source: Iterable[str]) -> "UpdateBatch":
        """Decode JSON lines (an open text stream or any iterable of lines).

        Lines are read in chunks of :data:`CHUNK`; each chunk's non-blank,
        non-comment lines are parsed with one ``json.loads`` of their
        joined array and appended to the columns.  A chunk that fails to
        parse, parses into the wrong number of values, or holds a
        malformed record is re-read line by line, so the error raised —
        a ``ValueError`` naming the 1-based line — is exactly the one a
        line-at-a-time decoder raises first.
        """
        parts: List[UpdateBatch] = []
        lineno = 0
        it = iter(source)
        while True:
            raw = list(itertools.islice(it, CHUNK))
            if not raw:
                break
            texts: List[str] = []
            numbers: List[int] = []
            for line in raw:
                lineno += 1
                line = line.strip()
                if line and not line.startswith("#"):
                    texts.append(line)
                    numbers.append(lineno)
            if texts:
                parts.append(_decode_chunk(texts, numbers))
        return cls.concat(parts, keep_lines=True)

    @classmethod
    def concat(
        cls, batches: Sequence["UpdateBatch"], *, keep_lines: bool = False
    ) -> "UpdateBatch":
        """One batch holding ``batches`` back to back.

        Source lines survive only with ``keep_lines`` (the parts came from
        one file) or when there is a single part; otherwise errors name
        stream positions.
        """
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls(np.empty(0, np.int8), np.empty(0, np.int64),
                       np.empty(0, np.int64), np.empty(0, np.float64),
                       lines=np.empty(0, np.int64) if keep_lines else None)
        lines = None
        if keep_lines and all(b.lines is not None for b in batches):
            lines = np.concatenate([b.lines for b in batches])
        return cls(
            np.concatenate([b.op for b in batches]),
            np.concatenate([b.u for b in batches]),
            np.concatenate([b.v for b in batches]),
            np.concatenate([b.w for b in batches]),
            lines=lines,
        )

    # ------------------------------------------------------------------ #
    # the sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.op.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("update batches slice contiguously (step 1)")
            stop = max(start, stop)
            return UpdateBatch(
                self.op[start:stop],
                self.u[start:stop],
                self.v[start:stop],
                self.w[start:stop],
                lines=None if self.lines is None else self.lines[start:stop],
                offset=self.offset + start,
            )
        i = range(len(self))[index]
        return _event(int(self.op[i]), int(self.u[i]), int(self.v[i]), float(self.w[i]))

    def __iter__(self) -> Iterator[GraphUpdate]:
        for row in zip(
            self.op.tolist(), self.u.tolist(), self.v.tolist(), self.w.tolist()
        ):
            yield _event(*row)

    def __eq__(self, other) -> bool:
        if isinstance(other, UpdateBatch):
            return (
                np.array_equal(self.op, other.op)
                and np.array_equal(self.u, other.u)
                and np.array_equal(self.v, other.v)
                and np.array_equal(self.w, other.w)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UpdateBatch({len(self)} updates)"

    # ------------------------------------------------------------------ #
    # validation and encoding
    # ------------------------------------------------------------------ #
    def where(self, row: int) -> str:
        """Where event ``row`` came from: its source line, else its position."""
        if self.lines is not None:
            return f"update stream line {int(self.lines[row])}"
        return f"update {self.offset + row + 1}"

    def validate(self, n: int) -> None:
        """Reject the batch if any event cannot apply to a graph on ``n`` vertices.

        Rejected: a vertex id outside ``[0, n)`` on any op, a self-loop
        *insert*, and a reweight to a weight that is not finite and > 0.
        A self-loop *delete* is a valid no-op.  The check is a handful of
        whole-column comparisons; the ``ValueError`` names the first bad
        event by :meth:`where` and says why.
        """
        if not len(self):
            return
        op, u, v, w = self.op, self.u, self.v, self.w
        edge = op != OP_REWEIGHT
        bad = (v < 0) | (v >= n) | (edge & ((u < 0) | (u >= n)))
        bad |= (op == OP_INSERT) & (u == v)
        bad |= ~edge & ~((w > 0) & np.isfinite(w))
        if not bad.any():
            return
        i = int(np.argmax(bad))
        a, b = int(u[i]), int(v[i])
        if op[i] == OP_REWEIGHT:
            if not 0 <= b < n:
                reason = f"vertex {b} out of range [0, {n})"
            else:
                reason = f"vertex weights must be finite and > 0, got {float(w[i])}"
        elif not 0 <= a < n:
            reason = f"vertex {a} out of range [0, {n})"
        elif not 0 <= b < n:
            reason = f"vertex {b} out of range [0, {n})"
        else:
            reason = f"self-loop at vertex {a} is not allowed"
        raise ValueError(f"{self.where(i)}: {reason}")

    def json_lines(self, *, compact: bool = False) -> List[str]:
        """The events as wire-format JSON objects, one string each.

        Formatted from the columns, byte-identical to ``json.dumps`` of
        :func:`update_to_json` — with ``compact``, to its sorted-key,
        whitespace-free form (the write-ahead log's).
        """
        item, key = (",", ":") if compact else (", ", ": ")
        edge = f'{{"op"{key}"%s"{item}"u"{key}%d{item}"v"{key}%d}}'
        reweight = f'{{"op"{key}"reweight"{item}"v"{key}%d{item}"weight"{key}%s}}'
        ws = self.w.tolist()
        if not np.isfinite(self.w).all():
            ws = [json.dumps(x) for x in ws]  # NaN/Infinity as json.dumps spells them
        names = _OP_NAMES
        return [
            reweight % (b, x) if o == OP_REWEIGHT else edge % (names[o], a, b)
            for o, a, b, x in zip(self.op.tolist(), self.u.tolist(), self.v.tolist(), ws)
        ]


def _event(op: int, u: int, v: int, w: float) -> GraphUpdate:
    if op == OP_INSERT:
        return EdgeInsert(u, v)
    if op == OP_DELETE:
        return EdgeDelete(u, v)
    return WeightChange(v, w)


def _decode_chunk(texts: List[str], numbers: List[int]) -> UpdateBatch:
    """One chunk of non-blank lines → columns tagged with their line numbers."""
    try:
        specs = json.loads("[" + ",".join(texts) + "]")
        if len(specs) == len(texts):
            return _parse_records(specs, numbers)
    except ValueError:
        pass
    # Only a chunk holding an error gets here: re-read it line by line so
    # the first bad line is named exactly.
    specs = []
    for text, lineno in zip(texts, numbers):
        try:
            specs.append(json.loads(text))
            _parse_records(specs[-1:])
        except ValueError as exc:
            raise ValueError(f"update stream line {lineno}: {exc}") from exc
    return _parse_records(specs, numbers)


def update_to_json(update: GraphUpdate) -> dict:
    """One update as its wire-format JSON object."""
    if isinstance(update, EdgeInsert):
        return {"op": "insert", "u": int(update.u), "v": int(update.v)}
    if isinstance(update, EdgeDelete):
        return {"op": "delete", "u": int(update.u), "v": int(update.v)}
    if isinstance(update, WeightChange):
        return {"op": "reweight", "v": int(update.v), "weight": float(update.weight)}
    raise TypeError(f"not a graph update: {type(update).__name__}")


def update_from_json(spec: dict) -> GraphUpdate:
    """Parse one wire-format JSON object into an update event (strict types)."""
    try:
        return _parse_records([spec])[0]
    except _RecordError as exc:
        raise ValueError(str(exc)) from None


def save_update_stream(updates: Iterable[GraphUpdate], path: PathLike) -> None:
    """Write a stream as JSON lines (gzip-compressed iff ``path`` ends ``.gz``).

    The lines are formatted from the columns (:meth:`UpdateBatch.json_lines`),
    :data:`CHUNK` events per write.
    """
    batch = UpdateBatch.from_updates(updates)
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for start in range(0, len(batch), CHUNK):
            fh.write("\n".join(batch[start : start + CHUNK].json_lines()))
            fh.write("\n")


def save_update_stream_segments(
    updates: Iterable[GraphUpdate],
    directory: PathLike,
    *,
    segment_size: int = 10_000,
    compress: bool = False,
) -> List[str]:
    """Write a stream as numbered JSON-lines segment files in ``directory``.

    Segments are named ``part-00000.jsonl`` (``.jsonl.gz`` with
    ``compress``) and hold ``segment_size`` events each; the lexicographic
    filename order is the stream order, which is how
    :class:`repro.dynamic.ingest.DirectorySource` reads them back.
    Returns the written paths.
    """
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    batch = UpdateBatch.from_updates(updates)
    os.makedirs(os.fspath(directory), exist_ok=True)
    suffix = ".jsonl.gz" if compress else ".jsonl"
    paths: List[str] = []
    for start in range(0, len(batch), segment_size):
        path = os.path.join(os.fspath(directory), f"part-{len(paths):05d}{suffix}")
        save_update_stream(batch[start : start + segment_size], path)
        paths.append(path)
    return paths


def load_update_stream(source: Union[PathLike, IO[str], Iterable[str]]) -> UpdateBatch:
    """Decode a JSON-lines update stream into an :class:`UpdateBatch`.

    ``source`` is a path (``.gz`` transparently decompressed), an open text
    stream, or any iterable of lines; decoding is
    :meth:`UpdateBatch.from_json_lines`.  A malformed line raises
    ``ValueError`` naming its line number — an update stream is input data,
    so it fails loudly up front rather than mid-replay.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        opener = gzip.open if os.fsdecode(source).endswith(".gz") else open
        with opener(source, "rt", encoding="utf-8") as fh:
            return UpdateBatch.from_json_lines(fh)
    return UpdateBatch.from_json_lines(source)
