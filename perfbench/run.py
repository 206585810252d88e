"""The repo's benchmark: seeded workloads through the real ``repro`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload solve-gnp-3m --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload stream-durable --seed 1 --seconds 12 --trace 1

One run sets the workload up from ``--seed`` (several times, to time set-up),
starts ``worker.py`` to call ``repro.cli.main`` on the files for
``--seconds``, checks every output, and prints the metrics.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer metrics of
``tracer.py``.  The last stdout line is one JSON object; the exit code is 1
when any check failed.  See README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from calibrate import Calibration, speed_factor
from tracer import COUNT_METRICS, METRICS, OVERHEAD_METRIC
from workloads import (
    WORKLOADS, CheckError, check_batch, check_solve, check_stream, first_json, replay, setup,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: What a run leaves in its work directory.
KEEP_FILES = ("result.json", "runs.json", "trace.json")
#: Every run must end within this many seconds.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "certified_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _environment() -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def _start_worker(workdir: str, timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py in its own process group; kill the whole group (pool
    workers included) if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workdir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nworker killed after {timeout:.0f}s"
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _normalized(obj):
    """Deterministic part of a summary: every timing (``*_s``) dropped."""
    if isinstance(obj, dict):
        return {k: _normalized(v) for k, v in obj.items() if not k.endswith("_s")}
    if isinstance(obj, list):
        return [_normalized(v) for v in obj]
    return obj


def _keep_only(directory: str, names) -> None:
    """Delete a run's inputs and outputs, keeping its records."""
    for name in os.listdir(directory):
        if name not in names:
            path = os.path.join(directory, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Outcome:
    """Operation tally; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            print(f"FAILED: {what}", file=sys.stderr)


def _check_runs(workload, inputs, runs, outcome: Outcome):
    """Check every invocation; returns the certified ratio of the first.

    Every invocation must pass the workload's checks and repeat the first
    one's output exactly (traced or not), and the durable stream's cover
    must equal the plain stream's on the same inputs.
    """
    final = replay(inputs) if workload.startswith("stream") else None
    weight = inputs.items if workload == "batch-manifest" else 1
    ratio = None
    first = None  # (normalized summary, cover bytes) of the first good run
    for run in runs:
        what = f"{workload} {run['tag']}"
        if run["rc"] != 0:
            outcome.op(False, f"{what}: exit code {run['rc']}: {run['stderr'][-500:]}", weight)
            continue
        if run.get("error"):
            outcome.op(False, f"{what}: {run['error']}", weight)
            continue
        bad = 0
        try:
            if workload == "batch-manifest":
                rows = _read_jsonl(run["outputs"]["out"])
                r, bad = check_batch(inputs, rows)
                key = (_normalized(rows), b"")
            else:
                cover = run["outputs"]["cover"]
                summary = first_json(run["stdout"])
                if workload == "solve-gnp-3m":
                    r = check_solve(inputs, summary, cover)
                    key = (_normalized(summary), _read(cover))
                else:
                    records = _read_jsonl(run["outputs"]["records"])
                    r = check_stream(inputs, final, summary, records, cover)
                    key = (_normalized([summary, records]), _read(cover))
        except (CheckError, OSError, ValueError, KeyError) as exc:
            outcome.op(False, f"{what}: {exc}", weight)
            continue
        if run["tag"] == "reference":
            outcome.op(first is not None and key == first,
                       f"{what}: the plain stream's output differs from the durable stream's")
            continue
        if first is None:
            first, ratio = key, r
        if key != first:
            outcome.op(False, f"{what}: output differs from the first invocation's", weight)
            continue
        outcome.op(True, what, weight - bad)
        if bad:
            outcome.op(False, f"{what}: {bad} requests failed", bad)
    return ratio


def _mark_count_mismatches(runs) -> None:
    """Counts must repeat exactly: a traced invocation whose counts differ
    from the first traced invocation's fails."""
    traced = [r for r in runs if r["traced"] and r["rc"] == 0]
    for r in traced[1:]:
        differ = [k for k in COUNT_METRICS if r["layers"][k] != traced[0]["layers"][k]]
        if differ:
            r["error"] = f"counts differ from the first traced invocation's: {differ}"


def _layer_metrics(runs, scale: float) -> dict:
    traced = [r for r in runs if r["traced"] and r["rc"] == 0]
    plain = [r for r in runs if not r["traced"] and r["tag"] != "reference" and r["rc"] == 0]
    metrics = {}
    for name, (unit, _) in METRICS.items():
        values = [r["layers"][name] for r in traced]
        if not values or any(v is None for v in values):
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            factor = scale if unit in ("s", "ms") else 1.0
            metrics[name] = {"value": statistics.median(values) * factor, "unit": unit}
    overhead = None
    if traced and plain:
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain)) - 1.0
    metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "ratio"}
    return metrics


def run(args) -> int:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program source at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    indir = os.path.join(workdir, "in")

    calibration = Calibration()
    calibration.measure()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(indir, ignore_errors=True)
        t0 = time.perf_counter()
        inputs = setup(args.workload, args.seed, indir)
        setup_times.append(time.perf_counter() - t0)
        calibration.after(setup_times[-1])

    job = {"src": SRC, "workload": args.workload, "argv": inputs.argv,
           "seconds": args.seconds, "trace": args.trace,
           "checkpoint": args.workload == "stream-durable",
           "reference_argv": inputs.argv if args.workload == "stream-durable" else None}
    with open(os.path.join(workdir, "job.json"), "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
    proc = _start_worker(workdir, max(remaining - 15.0, 10.0))
    if proc.returncode != 0:
        print(proc.stderr[-3000:], file=sys.stderr)
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "runs.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    runs = result["runs"]

    outcome = Outcome()
    if args.trace:
        _mark_count_mismatches(runs)
    ratio = _check_runs(args.workload, inputs, runs, outcome)
    env = _environment()
    kernel_times = calibration.times + result["calibration_s"]
    scale = speed_factor(kernel_times)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# calibration kernel: median {statistics.median(kernel_times):.4f} s "
          f"over {len(kernel_times)} timings; times below are scaled by {scale:.4f}")
    raw = {"setup_s": setup_times}
    if args.trace:
        metrics = _layer_metrics(runs, scale)
    else:
        timed = [r["wall_s"] for r in runs if r["tag"] != "reference" and r["rc"] == 0]
        raw["wall_s"] = timed
        wall = statistics.median(timed) * scale if timed else None
        metrics = {
            "wall_s": wall,
            "throughput_per_s": inputs.items / wall if wall else None,
            "certified_ratio": ratio,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup_times) * scale,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for name, values in raw.items():
        print(f"# raw {name}: {[round(v, 4) for v in values]}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}" + (" (absent)" if m.get("absent") else ""))
    print(f"# error_rate = {error_rate} ({outcome.failed}/{outcome.attempted})")
    correct = outcome.failed == 0 and outcome.attempted > 0
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "seed": args.seed, "workload": args.workload,
                   "error_rate": error_rate, "metrics": metrics, "raw": raw,
                   "calibration_s": kernel_times, "scale": scale}, fh, indent=1)
    _keep_only(workdir, KEEP_FILES)
    print(json.dumps({"correct": correct, "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
