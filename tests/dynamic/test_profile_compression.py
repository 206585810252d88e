"""Stream-level tests for the always-on ``timings`` buckets, digest
stamping, and the ``--snapshot-compression`` knob."""

import json
import os

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import (
    TIMING_KEYS,
    CheckpointConfig,
    DynamicGraph,
    IncrementalCoverMaintainer,
    ResolvePolicy,
    WriteAheadLog,
    load_snapshot,
    read_wal,
    resume_stream,
    run_stream,
    save_snapshot,
)
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream
from repro.graphs.weights import uniform_weights

from tests.recovery.harness import CrashAfter

#: The buckets timed after a batch's WAL commit (inside its ``elapsed_s``).
AFTER_COMMIT = TIMING_KEYS[1:]


@pytest.fixture(scope="module")
def workload():
    g = gnp_average_degree(150, 6.0, seed=1)
    g = g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=2))
    updates = make_update_stream("uniform", g, 240, seed=3)
    return g, updates


def _assert_buckets(timings):
    assert tuple(timings) == TIMING_KEYS
    assert all(v >= 0.0 for v in timings.values())


def _crashed_run(workload, tmp_path, monkeypatch, crash_after=3):
    """A checkpointed run killed after ``crash_after`` batches."""
    graph, updates = workload
    checkpoint = CheckpointConfig(
        directory=tmp_path / "ckpt", snapshot_every=2, fsync=False
    )
    with CrashAfter(monkeypatch, crash_after):
        with pytest.raises(CrashAfter.Crash):
            run_stream(graph, updates, batch_size=40, checkpoint=checkpoint)
    return checkpoint


class TestTimings:
    def test_every_record_and_the_summary_carry_the_buckets(self, workload):
        graph, updates = workload
        summary = run_stream(graph, updates, batch_size=40)
        _assert_buckets(summary.timings)
        _assert_buckets(summary.summary()["timings"])
        assert len(summary.records) == 6
        for record in summary.records:
            _assert_buckets(record.timings)
            _assert_buckets(record.summary()["timings"])
            assert record.timings["wal_s"] == 0.0  # not durable

    def test_summary_is_the_sum_of_the_records(self, workload):
        graph, updates = workload
        summary = run_stream(
            graph, updates, batch_size=40, policy=ResolvePolicy(every_batch=True)
        )
        assert all(r.timings["resolve_s"] > 0.0 for r in summary.records)
        for key in TIMING_KEYS:
            total = sum(r.timings[key] for r in summary.records)
            if key == "resolve_s":
                # The initial solve belongs to no record.
                assert summary.timings[key] > total
            else:
                assert summary.timings[key] == pytest.approx(total)

    def test_buckets_after_the_wal_commit_fit_in_elapsed(self, workload, tmp_path):
        graph, updates = workload
        checkpoint = CheckpointConfig(directory=tmp_path / "ckpt", fsync=False)
        summary = run_stream(
            graph,
            updates,
            batch_size=40,
            policy=ResolvePolicy(max_batches_between=2),
            checkpoint=checkpoint,
        )
        assert any(r.resolved for r in summary.records)
        for record in summary.records:
            assert record.timings["wal_s"] > 0.0
            inside = sum(record.timings[key] for key in AFTER_COMMIT)
            assert inside <= record.elapsed_s

    def test_resumed_runs_carry_timings(self, workload, tmp_path, monkeypatch):
        checkpoint = _crashed_run(workload, tmp_path, monkeypatch)
        resumed = resume_stream(checkpoint.directory)
        _assert_buckets(resumed.timings)
        assert resumed.records
        for record in resumed.records:
            _assert_buckets(record.timings)
            # Batches 0-3 reached the WAL before the crash; 2 and 3 replay.
            replayed = record.batch_index < 4
            assert (record.timings["wal_s"] == 0.0) == replayed


class TestDigestStamps:
    def test_config_no_longer_records_the_key(self, workload, tmp_path):
        graph, updates = workload
        checkpoint = CheckpointConfig(directory=tmp_path / "ckpt", fsync=False)
        run_stream(graph, updates, batch_size=40, checkpoint=checkpoint)
        assert "stamp_digests" not in json.load(open(checkpoint.config_path))
        records, _ = read_wal(checkpoint.wal_path)
        assert len(records) == 6
        assert all(len(r.state_digest) == 64 for r in records)

    def test_stamp_digests_false_config_resumes_stamped(
        self, workload, tmp_path, monkeypatch
    ):
        graph, updates = workload
        reference = run_stream(graph, updates, batch_size=40)
        checkpoint = _crashed_run(workload, tmp_path, monkeypatch)
        config = json.load(open(checkpoint.config_path))
        config["stamp_digests"] = False
        with open(checkpoint.config_path, "w") as fh:
            json.dump(config, fh)
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_dual_value == reference.final_dual_value
        records, _ = read_wal(checkpoint.wal_path)
        assert [r.batch_index for r in records] == list(range(6))
        assert all(len(r.state_digest) == 64 for r in records[4:])

    def test_unstamped_wal_records_still_replay(
        self, workload, tmp_path, monkeypatch
    ):
        graph, updates = workload
        reference = run_stream(graph, updates, batch_size=40)
        checkpoint = _crashed_run(workload, tmp_path, monkeypatch)
        records, _ = read_wal(checkpoint.wal_path)
        os.remove(checkpoint.wal_path)
        with WriteAheadLog(checkpoint.wal_path, fsync=False) as wal:
            for record in records:
                wal.append(record.batch_index, record.updates)
        os.remove(checkpoint.snapshot_path)  # replay every record from batch 0
        resumed = resume_stream(checkpoint.directory)
        assert resumed.resumed_from_batch == 0
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_dual_value == reference.final_dual_value


class TestSnapshotCompression:
    def _maintainer(self, workload):
        graph, updates = workload
        dyn = DynamicGraph(graph)
        m = IncrementalCoverMaintainer(dyn)
        m.adopt(minimum_weight_vertex_cover(graph, eps=0.1, seed=2))
        m.apply_batch(updates[:60])
        return m

    def test_uncompressed_snapshot_round_trips(self, workload, tmp_path):
        m = self._maintainer(workload)
        plain = tmp_path / "plain.npz"
        packed = tmp_path / "packed.npz"
        save_snapshot(plain, m, compress_arrays=False)
        save_snapshot(packed, m, compress_arrays=True)
        assert os.path.getsize(plain) >= os.path.getsize(packed)
        a = load_snapshot(plain)
        b = load_snapshot(packed)
        assert np.array_equal(a.maintainer.cover, b.maintainer.cover)
        assert a.maintainer.edge_duals() == b.maintainer.edge_duals()
        # Integrity digests cover the array payloads in both modes.
        assert a.meta["content_digest"] == b.meta["content_digest"]

    def test_config_rejects_unknown_compression(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_compression"):
            CheckpointConfig(directory=tmp_path, snapshot_compression="lz4")

    def test_compression_choice_survives_resume(self, workload, tmp_path):
        graph, updates = workload
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt",
            snapshot_every=2,
            fsync=False,
            snapshot_compression="none",
        )
        reference = run_stream(graph, updates, batch_size=40)
        durable = run_stream(
            graph, updates, batch_size=40, checkpoint=checkpoint
        )
        config = json.load(open(checkpoint.config_path))
        assert config["snapshot_compression"] == "none"
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(durable.final_cover, reference.final_cover)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_cover_weight == reference.final_cover_weight
