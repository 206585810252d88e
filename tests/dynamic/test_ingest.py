"""Tests for the ingestion layer: update sources."""

import os

import pytest

from repro.dynamic.ingest import (
    DirectorySource,
    FileSource,
    iter_update_batches,
    open_update_source,
)
from repro.graphs.updates import (
    EdgeDelete,
    EdgeInsert,
    UpdateBatch,
    WeightChange,
    save_update_stream,
    save_update_stream_segments,
)

UPDATES = [
    EdgeInsert(0, 1),
    WeightChange(2, 5.0),
    EdgeDelete(1, 3),
    EdgeInsert(3, 2),
    EdgeDelete(0, 1),
]


class TestSources:
    def test_file_source_plain_and_gz(self, tmp_path):
        plain = tmp_path / "u.jsonl"
        gz = tmp_path / "u.jsonl.gz"
        save_update_stream(UPDATES, plain)
        save_update_stream(UPDATES, gz)
        assert list(FileSource(plain)) == UPDATES
        assert FileSource(gz).collect() == UPDATES

    def test_directory_source_reads_segments_in_order(self, tmp_path):
        paths = save_update_stream_segments(UPDATES, tmp_path, segment_size=2)
        assert [os.path.basename(p) for p in paths] == [
            "part-00000.jsonl",
            "part-00001.jsonl",
            "part-00002.jsonl",
        ]
        assert list(DirectorySource(tmp_path)) == UPDATES

    def test_directory_source_gz_segments(self, tmp_path):
        save_update_stream_segments(
            UPDATES, tmp_path, segment_size=3, compress=True
        )
        assert list(DirectorySource(tmp_path)) == UPDATES

    def test_directory_source_sorts_segments_numerically(self, tmp_path):
        """Unpadded (or padding-overflowed) segment numbers must replay in
        numeric order, not lexicographic (part-10 after part-2)."""
        save_update_stream(UPDATES[:2], tmp_path / "part-2.jsonl")
        save_update_stream(UPDATES[2:], tmp_path / "part-10.jsonl")
        assert list(DirectorySource(tmp_path)) == UPDATES

    def test_directory_with_no_matching_segments_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        with pytest.raises(ValueError, match="no segments"):
            list(DirectorySource(tmp_path))

    def test_empty_directory_is_empty_stream(self, tmp_path):
        assert list(DirectorySource(tmp_path)) == []

    def test_open_update_source_coercions(self, tmp_path):
        path = tmp_path / "u.jsonl"
        save_update_stream(UPDATES, path)
        assert isinstance(open_update_source(str(path)), FileSource)
        assert isinstance(open_update_source(tmp_path), DirectorySource)
        src = FileSource(path)
        assert open_update_source(src) is src
        for spec in (42, UPDATES):
            with pytest.raises(TypeError):
                open_update_source(spec)

    def test_iter_update_batches(self):
        batches = list(iter_update_batches(UPDATES, 2))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [u for b in batches for u in b] == UPDATES
        assert all(isinstance(b, list) for b in batches)
        assert list(iter_update_batches([], 2)) == []
        with pytest.raises(ValueError):
            list(iter_update_batches(UPDATES, 0))

    def test_iter_update_batches_slices_columns(self):
        batches = list(iter_update_batches(UpdateBatch.from_updates(UPDATES), 2))
        assert all(isinstance(b, UpdateBatch) for b in batches)
        assert [list(b) for b in batches] == [UPDATES[0:2], UPDATES[2:4], UPDATES[4:]]
        assert batches[2].where(0) == "update 5"


class TestCollect:
    def test_collect_decodes_one_batch_with_lines(self, tmp_path):
        path = tmp_path / "u.jsonl"
        save_update_stream(UPDATES, path)
        path.write_text("# header\n" + path.read_text())
        batch = FileSource(path).collect()
        assert isinstance(batch, UpdateBatch) and len(batch) == len(UPDATES)
        assert batch == UPDATES
        assert batch.lines.tolist() == [2, 3, 4, 5, 6]

    def test_collect_is_only_defined_on_the_base_class(self):
        # Tracing wraps UpdateSource.collect; an override would bypass it.
        for cls in (FileSource, DirectorySource):
            assert "collect" not in vars(cls)

    def test_directory_collect_joins_segments(self, tmp_path):
        save_update_stream_segments(UPDATES, tmp_path, segment_size=2)
        batch = DirectorySource(tmp_path).collect()
        assert batch == UPDATES
        # Line numbers restart per segment, so joined errors name positions.
        assert batch.lines is None and batch.where(4) == "update 5"

    def test_directory_decode_error_names_segment_and_line(self, tmp_path):
        paths = save_update_stream_segments(UPDATES, tmp_path, segment_size=2)
        with open(paths[1], "a", encoding="utf-8") as fh:
            fh.write('{"op": "insert", "u": 1, "v": true}\n')
        with pytest.raises(ValueError, match=r"part-00001\.jsonl: update stream line 3: "):
            DirectorySource(tmp_path).collect()
