"""Tests for update events and the JSON-lines stream format."""

import gzip
import json

import pytest

from repro.graphs.updates import (
    CHUNK,
    OP_DELETE,
    OP_INSERT,
    OP_REWEIGHT,
    EdgeDelete,
    EdgeInsert,
    UpdateBatch,
    WeightChange,
    load_update_stream,
    save_update_stream,
    update_from_json,
    update_to_json,
)

SAMPLE = [
    EdgeInsert(0, 5),
    EdgeDelete(2, 3),
    WeightChange(4, 2.5),
    EdgeInsert(7, 1),
]


class TestJsonRoundtrip:
    @pytest.mark.parametrize("upd", SAMPLE)
    def test_roundtrip(self, upd):
        assert update_from_json(update_to_json(upd)) == upd

    def test_insert_wire_shape(self):
        assert update_to_json(EdgeInsert(3, 7)) == {"op": "insert", "u": 3, "v": 7}

    def test_reweight_wire_shape(self):
        assert update_to_json(WeightChange(3, 2.5)) == {
            "op": "reweight", "v": 3, "weight": 2.5,
        }

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            update_from_json({"op": "explode", "u": 0, "v": 1})

    def test_missing_endpoint(self):
        with pytest.raises(ValueError, match="needs keys"):
            update_from_json({"op": "insert", "u": 0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            update_from_json({"op": "delete", "u": 0, "v": 1, "w": 2})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            update_from_json({"op": "reweight", "v": 0, "weight": 0.0})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            update_from_json([1, 2, 3])

    def test_not_an_update(self):
        with pytest.raises(TypeError, match="not a graph update"):
            update_to_json(("insert", 0, 1))


class TestStreamIO:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        save_update_stream(SAMPLE, path)
        assert load_update_stream(path) == SAMPLE

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl.gz"
        save_update_stream(SAMPLE, path)
        # Really compressed, not just renamed.
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert load_update_stream(path) == SAMPLE

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "# a comment\n\n"
            + json.dumps({"op": "insert", "u": 1, "v": 2})
            + "\n\n"
        )
        assert load_update_stream(path) == [EdgeInsert(1, 2)]

    def test_iterable_source(self):
        lines = [json.dumps(update_to_json(u)) for u in SAMPLE]
        assert load_update_stream(lines) == SAMPLE

    def test_bad_line_names_line_number(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            json.dumps({"op": "insert", "u": 1, "v": 2})
            + "\n"
            + json.dumps({"op": "nope"})
            + "\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            load_update_stream(path)

    def test_gzip_content_loadable_by_stdlib(self, tmp_path):
        path = tmp_path / "stream.jsonl.gz"
        save_update_stream(SAMPLE, path)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows[0] == {"op": "insert", "u": 0, "v": 5}


class TestStrictWireTypes:
    """Vertex ids are JSON integers and weights JSON numbers — nothing
    that merely converts to one."""

    @pytest.mark.parametrize(
        "record, fragment",
        [
            ({"op": "insert", "u": 3.7, "v": 5}, "'u' must be a JSON integer"),
            ({"op": "delete", "u": 3, "v": "5"}, "'v' must be a JSON integer"),
            ({"op": "insert", "u": True, "v": 5}, "'u' must be a JSON integer"),
            ({"op": "reweight", "v": 3, "weight": "2.5"}, "'weight' must be a JSON number"),
        ],
    )
    def test_rejected_with_line_number(self, tmp_path, record, fragment):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            json.dumps({"op": "insert", "u": 1, "v": 2}) + "\n" + json.dumps(record) + "\n"
        )
        with pytest.raises(ValueError, match=f"line 2: .*{fragment}"):
            load_update_stream(path)
        with pytest.raises(ValueError, match=fragment):
            update_from_json(record)

    def test_integral_weight_is_a_number(self):
        assert update_from_json({"op": "reweight", "v": 3, "weight": 2}) == WeightChange(3, 2.0)

    def test_reweight_vertex_must_be_integer(self):
        with pytest.raises(ValueError, match="'v' must be a JSON integer"):
            update_from_json({"op": "reweight", "v": 3.0, "weight": 1.0})


class TestDecoderLineNumbers:
    LINE = json.dumps({"op": "insert", "u": 1, "v": 2})

    def test_blank_and_comment_lines_keep_numbering(self):
        lines = ["# header", "", self.LINE, "   ", "# note", self.LINE, "", "{nope"]
        with pytest.raises(ValueError, match="line 8:"):
            load_update_stream(lines)
        batch = load_update_stream(lines[:-1])
        assert batch.lines.tolist() == [3, 6]

    @pytest.mark.parametrize("bad_line", [CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2])
    def test_error_at_chunk_boundary_names_right_line(self, bad_line):
        # A comment up front shifts line numbers off the event indexes.
        lines = ["# stream"] + [self.LINE] * (2 * CHUNK)
        lines[bad_line - 1] = json.dumps({"op": "insert", "u": 1, "v": "2"})
        with pytest.raises(ValueError, match=f"line {bad_line}: "):
            load_update_stream(lines)

    def test_two_objects_on_one_line_rejected(self):
        lines = [self.LINE, self.LINE + ", " + self.LINE, self.LINE]
        with pytest.raises(ValueError, match="line 2:"):
            load_update_stream(lines)

    def test_object_split_across_lines_rejected(self):
        lines = ['{"op": "insert", "u": 1, "v": [', "2]}"]
        with pytest.raises(ValueError, match="line 1:"):
            load_update_stream(lines)


class TestUpdateBatch:
    def test_columns_round_trip(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        assert batch.op.tolist() == [OP_INSERT, OP_DELETE, OP_REWEIGHT, OP_INSERT]
        assert batch.u.tolist() == [0, 2, -1, 7]
        assert batch.v.tolist() == [5, 3, 4, 1]
        assert batch.w.tolist() == [0.0, 0.0, 2.5, 0.0]
        assert list(batch) == SAMPLE and batch == SAMPLE
        assert UpdateBatch.from_updates(batch) is batch

    def test_slices_are_batches_with_stream_positions(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        tail = batch[2:]
        assert isinstance(tail, UpdateBatch) and tail == SAMPLE[2:]
        assert batch[-1] == SAMPLE[-1]
        assert tail.where(0) == "update 3"

    def test_json_lines_match_json_dumps(self):
        updates = SAMPLE + [WeightChange(9, 0.1), WeightChange(2, 1e-300), WeightChange(1, 3.0)]
        batch = UpdateBatch.from_updates(updates)
        assert batch.json_lines() == [json.dumps(update_to_json(u)) for u in updates]
        assert batch.json_lines(compact=True) == [
            json.dumps(update_to_json(u), sort_keys=True, separators=(",", ":"))
            for u in updates
        ]

    def test_not_an_update(self):
        with pytest.raises(TypeError, match="not a graph update"):
            UpdateBatch.from_updates([("insert", 0, 1)])

    def test_validate_accepts_self_loop_delete(self):
        UpdateBatch.from_updates([EdgeDelete(2, 2), EdgeInsert(0, 1)]).validate(3)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (EdgeInsert(2, 2), "self-loop at vertex 2 is not allowed"),
            (EdgeInsert(0, 3), r"vertex 3 out of range \[0, 3\)"),
            (EdgeDelete(-1, 0), r"vertex -1 out of range \[0, 3\)"),
            (WeightChange(3, 1.0), r"vertex 3 out of range \[0, 3\)"),
            (WeightChange(1, -1.0), "vertex weights must be finite and > 0, got -1.0"),
            (WeightChange(1, float("nan")), "vertex weights must be finite and > 0, got nan"),
        ],
    )
    def test_validate_names_first_bad_event(self, bad, reason):
        batch = UpdateBatch.from_updates([EdgeInsert(0, 1), bad, EdgeInsert(2, 2)])
        with pytest.raises(ValueError, match=f"^update 2: {reason}"):
            batch.validate(3)

    def test_validate_names_source_line(self):
        lines = ["# comment", json.dumps({"op": "insert", "u": 0, "v": 1}),
                 json.dumps({"op": "insert", "u": 5, "v": 5})]
        with pytest.raises(ValueError, match="^update stream line 3: self-loop"):
            load_update_stream(lines).validate(10)
