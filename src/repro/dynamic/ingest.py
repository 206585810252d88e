"""Ingestion layer: update sources on disk.

A stream may arrive as a JSON-lines file (plain or gzipped) or a
directory of numbered segment files (the shape a log-shipping producer
writes — see :func:`repro.graphs.updates.save_update_stream_segments`).
:func:`open_update_source` opens either as an :class:`UpdateSource`, and
:func:`iter_update_batches` chops a decoded sequence into repair batches.
"""

from __future__ import annotations

import glob
import os
import re
from typing import Iterator, List, Sequence, Union

from repro.graphs.updates import GraphUpdate, load_update_stream

__all__ = [
    "DirectorySource",
    "FileSource",
    "UpdateSource",
    "iter_update_batches",
    "open_update_source",
]

PathLike = Union[str, "os.PathLike[str]"]


class UpdateSource:
    """An iterable of :data:`GraphUpdate` events in stream order."""

    def __iter__(self) -> Iterator[GraphUpdate]:  # pragma: no cover - abstract
        raise NotImplementedError

    def collect(self) -> List[GraphUpdate]:
        """Decode the whole source into a list."""
        return list(self)


class FileSource(UpdateSource):
    """A JSON-lines update file (gzip-compressed iff the name ends ``.gz``)."""

    def __init__(self, path: PathLike):
        self.path = os.fspath(path)

    def __iter__(self) -> Iterator[GraphUpdate]:
        return iter(load_update_stream(self.path))


class DirectorySource(UpdateSource):
    """A directory of JSON-lines segment files, read in filename order.

    The default pattern matches the segments written by
    :func:`repro.graphs.updates.save_update_stream_segments`; pass a
    custom glob for differently named logs.  An empty directory is an
    empty stream; a directory with no matching files raises (a typo'd
    pattern must not silently read zero updates from a populated log).
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

    def __iter__(self) -> Iterator[GraphUpdate]:
        for path in self.segments():
            yield from load_update_stream(path)


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
) -> Iterator[List[GraphUpdate]]:
    """Slice ``updates`` into lists of at most ``batch_size`` events."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(updates), batch_size):
        yield list(updates[start : start + batch_size])
