"""Invalid updates are rejected atomically and can never wedge a durable stream.

Before batches were validated up front, a self-loop insert passed decode,
was written to the write-ahead log, and only then raised — so every later
``repro resume`` replayed the same record and failed the same way.  These
tests pin the fix: the stream is validated before the checkpoint directory
is prepared, each batch is validated before its WAL append, and a WAL that
an older build already poisoned fails resume with a typed error.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.dynamic import (
    CheckpointConfig,
    CheckpointError,
    DynamicGraph,
    IncrementalCoverMaintainer,
    ResolvePolicy,
    WriteAheadLog,
    read_wal,
    resume_stream,
    run_stream,
)
from repro.dynamic.stream import _StreamEngine
from repro.dynamic.wal import _crc
from repro.graphs.io import save_npz
from repro.graphs.updates import EdgeInsert, UpdateBatch, update_to_json
from repro.service.batch import BatchSolver

from tests.recovery.harness import CrashAfter, make_batches, make_workload

BATCH_SIZE = 10
POISON = {"op": "insert", "u": 5, "v": 5}
#: The poisoned event's 1-based line: the first event of batch 5 (index 4).
POISON_LINE = 4 * BATCH_SIZE + 1


def _write_stream(path, updates, poison_line=None):
    lines = [json.dumps(update_to_json(u)) for u in updates]
    if poison_line is not None:
        lines[poison_line - 1] = json.dumps(POISON)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workload(tmp_path):
    graph = make_workload(n=60, seed=11)
    updates = [u for b in make_batches(graph, "uniform", 8, BATCH_SIZE, seed=12) for u in b]
    gpath = tmp_path / "g.npz"
    save_npz(graph, gpath)
    return graph, updates, gpath


def _stream_argv(gpath, upath, directory):
    return [
        "stream", "--input", str(gpath), "--updates", str(upath),
        "--batch-size", str(BATCH_SIZE), "--seed", "3",
        "--checkpoint-dir", str(directory), "--no-fsync",
    ]


class TestPoisonedStream:
    def test_poison_pill_fails_cleanly_and_never_wedges(self, tmp_path, workload, capsys):
        graph, updates, gpath = workload
        directory = tmp_path / "ckpt"
        poisoned = tmp_path / "poisoned.jsonl"
        _write_stream(poisoned, updates, poison_line=POISON_LINE)

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro"] + _stream_argv(gpath, poisoned, directory),
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert f"line {POISON_LINE}: self-loop at vertex 5" in proc.stderr
        assert "Traceback" not in proc.stderr
        # Nothing was logged: no WAL record at all, so none for the bad batch.
        records, _ = read_wal(directory / "wal.jsonl")
        assert records == []
        assert not (directory / "config.json").exists()

        # The corrected stream runs into the same directory, and resumes.
        fixed = tmp_path / "fixed.jsonl"
        _write_stream(fixed, updates)
        assert main(_stream_argv(gpath, fixed, directory)) == 0
        records, torn = read_wal(directory / "wal.jsonl")
        assert [r.batch_index for r in records] == list(range(8)) and not torn
        capsys.readouterr()
        assert main(["resume", "--checkpoint-dir", str(directory)]) == 0

    def test_run_stream_validates_before_preparing_checkpoint(self, tmp_path, workload):
        graph, updates, _ = workload
        bad = list(updates)
        bad[POISON_LINE - 1] = EdgeInsert(5, 5)
        directory = tmp_path / "ckpt"
        with pytest.raises(ValueError, match=f"^update {POISON_LINE}: self-loop"):
            run_stream(
                graph, bad, batch_size=BATCH_SIZE,
                checkpoint=CheckpointConfig(directory=directory, fsync=False),
            )
        assert not directory.exists()

    def test_process_batch_validates_before_wal_append(self, tmp_path, workload):
        graph, updates, _ = workload
        maintainer = IncrementalCoverMaintainer(DynamicGraph(graph))
        wal_path = tmp_path / "wal.jsonl"
        with BatchSolver(use_processes=False) as solver, WriteAheadLog(
            wal_path, fsync=False
        ) as wal:
            engine = _StreamEngine(
                maintainer, ResolvePolicy(), solver,
                eps=0.1, seed=3, engine="vectorized", verify_every=0, wal=wal,
            )
            batch = UpdateBatch.from_updates(updates[:3] + [EdgeInsert(0, graph.n)])
            with pytest.raises(ValueError, match="out of range"):
                engine.process_batch(0, batch, log_to_wal=True)
        assert wal_path.read_bytes() == b""
        assert maintainer.batches_applied == 0

    def test_resume_with_poisoned_continuation_logs_nothing(
        self, tmp_path, monkeypatch, workload
    ):
        graph, updates, _ = workload
        directory = tmp_path / "ckpt"
        checkpoint = CheckpointConfig(directory=directory, snapshot_every=2, fsync=False)
        with CrashAfter(monkeypatch, 3):
            with pytest.raises(CrashAfter.Crash):
                run_stream(graph, updates, batch_size=BATCH_SIZE, checkpoint=checkpoint)
        committed = [r.batch_index for r in read_wal(directory / "wal.jsonl")[0]]
        bad = list(updates)
        bad[POISON_LINE - 1] = EdgeInsert(5, 5)
        with pytest.raises(ValueError, match=f"^update {POISON_LINE}: self-loop"):
            resume_stream(directory, updates=bad)
        assert [r.batch_index for r in read_wal(directory / "wal.jsonl")[0]] == committed
        # The stored (valid) stream still resumes cleanly.
        assert resume_stream(directory).final_is_cover


class TestUnreplayableWal:
    """A WAL written by an older build, which logged before validating."""

    def _poisoned_checkpoint(self, tmp_path, monkeypatch, workload):
        graph, updates, _ = workload
        directory = tmp_path / "ckpt"
        checkpoint = CheckpointConfig(directory=directory, snapshot_every=2, fsync=False)
        with CrashAfter(monkeypatch, 3):
            with pytest.raises(CrashAfter.Crash):
                run_stream(graph, updates, batch_size=BATCH_SIZE, checkpoint=checkpoint)
        records, _ = read_wal(directory / "wal.jsonl")
        # Hand-build the next record the way the old writer did: the
        # self-loop insert committed with a valid checksum.
        index = records[-1].batch_index + 1
        body = [update_to_json(u) for u in updates[index * BATCH_SIZE : (index + 1) * BATCH_SIZE]]
        body[0] = dict(POISON)
        payload = {"v": 1, "batch_index": index, "updates": body}
        payload["crc"] = _crc(payload)
        with open(directory / "wal.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return directory, index

    def test_resume_raises_typed_error_naming_batch(self, tmp_path, monkeypatch, workload):
        directory, index = self._poisoned_checkpoint(tmp_path, monkeypatch, workload)
        with pytest.raises(
            CheckpointError,
            match=rf"WAL batch {index} cannot be replayed: update 1: self-loop at vertex 5",
        ):
            resume_stream(directory)

    def test_resume_cli_fails_cleanly(self, tmp_path, monkeypatch, workload):
        directory, index = self._poisoned_checkpoint(tmp_path, monkeypatch, workload)
        with pytest.raises(SystemExit, match=f"WAL batch {index} cannot be replayed"):
            main(["resume", "--checkpoint-dir", str(directory)])
