"""Ingestion layer: update sources on disk.

A stream may arrive as a JSON-lines file (plain or gzipped) or a
directory of numbered segment files (the shape a log-shipping producer
writes — see :func:`repro.graphs.updates.save_update_stream_segments`).
:func:`open_update_source` opens either as an :class:`UpdateSource`, and
:func:`iter_update_batches` chops a decoded stream into repair batches.

Every source decodes through the one JSON-lines decoder,
:meth:`repro.graphs.updates.UpdateBatch.from_json_lines`, and
:meth:`UpdateSource.collect` returns the whole stream as one columnar
:class:`~repro.graphs.updates.UpdateBatch`, decoded once.  Decode errors
name their 1-based line (and, for a directory, the segment file);
checking the events against the graph is
:meth:`~repro.graphs.updates.UpdateBatch.validate`'s job, done by the
stream engine before anything is logged or applied.
"""

from __future__ import annotations

import glob
import os
import re
from typing import Iterator, List, Sequence, Union

from repro.graphs.updates import GraphUpdate, UpdateBatch, load_update_stream

__all__ = [
    "DirectorySource",
    "FileSource",
    "UpdateSource",
    "iter_update_batches",
    "open_update_source",
]

PathLike = Union[str, "os.PathLike[str]"]


class UpdateSource:
    """A stream of :data:`GraphUpdate` events, decoded part by part.

    Subclasses implement :meth:`parts`; :meth:`collect` (the one decode
    entry point) joins them and iteration yields the events.
    """

    def parts(self) -> Iterator[UpdateBatch]:  # pragma: no cover - abstract
        """The source's decoded pieces (one per file), in stream order."""
        raise NotImplementedError

    def collect(self) -> UpdateBatch:
        """Decode the whole source into one columnar batch."""
        return UpdateBatch.concat(list(self.parts()))

    def __iter__(self) -> Iterator[GraphUpdate]:
        for part in self.parts():
            yield from part


class FileSource(UpdateSource):
    """A JSON-lines update file (gzip-compressed iff the name ends ``.gz``)."""

    def __init__(self, path: PathLike):
        self.path = os.fspath(path)

    def parts(self) -> Iterator[UpdateBatch]:
        yield load_update_stream(self.path)


class DirectorySource(UpdateSource):
    """A directory of JSON-lines segment files, read in filename order.

    The default pattern matches the segments written by
    :func:`repro.graphs.updates.save_update_stream_segments`; pass a
    custom glob for differently named logs.  An empty directory is an
    empty stream; a directory with no matching files raises (a typo'd
    pattern must not silently read zero updates from a populated log).
    A decode error names the segment file and its line; once segments are
    joined, validation errors name the stream position.
    """

    def __init__(self, directory: PathLike, *, pattern: str = "*.jsonl*"):
        self.directory = os.fspath(directory)
        self.pattern = pattern

    def segments(self) -> List[str]:
        paths = glob.glob(os.path.join(self.directory, self.pattern))
        if not paths and os.listdir(self.directory):
            raise ValueError(
                f"update directory {self.directory} has no segments matching "
                f"{self.pattern!r}"
            )
        # Numeric-aware ordering: a writer that outgrows its zero padding
        # (part-99999 → part-100000) must not have its segments replayed
        # lexicographically out of order.
        def natural(path: str):
            name = os.path.basename(path)
            return tuple(
                int(piece) if piece.isdigit() else piece
                for piece in re.split(r"(\d+)", name)
            )

        return sorted(paths, key=natural)

    def parts(self) -> Iterator[UpdateBatch]:
        for path in self.segments():
            try:
                yield load_update_stream(path)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc


def open_update_source(spec: Union[UpdateSource, PathLike]) -> UpdateSource:
    """Open a path (file or directory of segments) as an :class:`UpdateSource`.

    An existing source is returned as is.
    """
    if isinstance(spec, UpdateSource):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        path = os.fspath(spec)
        if os.path.isdir(path):
            return DirectorySource(path)
        return FileSource(path)
    raise TypeError(f"cannot read updates from {type(spec).__name__}")


def iter_update_batches(
    updates: Sequence[GraphUpdate], batch_size: int
) -> Iterator[Sequence[GraphUpdate]]:
    """Slice ``updates`` into runs of at most ``batch_size`` events.

    The slices have the input's own type: an :class:`UpdateBatch` yields
    column views, a list yields lists.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(updates), batch_size):
        yield updates[start : start + batch_size]
