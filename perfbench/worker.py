"""Child process of ``run.py``: runs the ``repro`` CLI in-process, timed.

Usage: ``python3 perfbench/worker.py <workdir>``.  Reads ``<workdir>/job.json``
written by ``run.py``, calls ``repro.cli.main(argv)`` repeatedly for the
job's seconds, and times the calibration kernel before the first call and
after each one.  Writes ``<workdir>/runs.json`` (one entry per invocation,
plus the kernel times) and, when tracing, ``<workdir>/trace.json`` (every
span and count).  Running the invocations in their own process keeps the
benchmark's set-up and checks out of ``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

from calibrate import Calibration
from tracer import Tracer


def _invoke(main, argv):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every invocation starts from a collected heap
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
        err.write(f"SystemExit: {exc.code}\n")
    except Exception:  # a crash is one failed invocation, reported with its traceback
        rc = 1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return rc, wall, out.getvalue(), err.getvalue()


def main() -> int:
    workdir = sys.argv[1]
    with open(os.path.join(workdir, "job.json"), encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import repro.cli
    import repro.dynamic  # noqa: F401  (the CLI imports it lazily; keep that out of timings)

    if not os.path.realpath(repro.cli.__file__).startswith(os.path.realpath(job["src"])):
        print(f"imported repro from {repro.cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2

    runs, traces = [], []
    calibration = Calibration()
    gc.collect()
    calibration.measure()
    budget = float(job["seconds"])
    began = time.perf_counter()
    i = 0
    while True:
        traced = bool(job["trace"]) and i % 3 != 0
        n_traced = sum(r["traced"] for r in runs)
        n_plain = len(runs) - n_traced
        if time.perf_counter() - began >= budget and len(runs) >= 2 and (
            not job["trace"] or (n_traced >= 2 and n_plain >= 1)
        ):
            break
        runs.append(_run_one(repro.cli.main, job, workdir, f"run{i}", traced, traces))
        gc.collect()
        calibration.after(runs[-1]["wall_s"])
        i += 1
    if job.get("reference_argv"):
        runs.append(
            _run_one(repro.cli.main, job, workdir, "reference", False, traces,
                     argv=job["reference_argv"])
        )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(workdir, "runs.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "peak_rss_mb": peak_kb / 1024.0,
                   "calibration_s": calibration.times}, fh)
    if traces:
        with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(traces, fh)
    return 0


def _run_one(main, job, workdir, tag, traced, traces, argv=None):
    """One CLI invocation with its own output paths."""
    argv = list(argv or job["argv"])
    outputs = {}
    if job["workload"] == "batch-manifest":
        outputs["out"] = os.path.join(workdir, f"{tag}.out.jsonl")
        argv += ["--out", outputs["out"]]
    else:
        outputs["cover"] = os.path.join(workdir, f"{tag}.cover.txt")
        argv += ["--cover-out", outputs["cover"]]
    if job["workload"].startswith("stream"):
        outputs["records"] = os.path.join(workdir, f"{tag}.records.jsonl")
        argv += ["--out", outputs["records"]]
    if job.get("checkpoint") and tag != "reference":
        ckpt = os.path.join(workdir, "ckpt")
        shutil.rmtree(ckpt, ignore_errors=True)
        argv += ["--checkpoint-dir", ckpt, "--no-fsync"]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        rc, wall, out, err = _invoke(main, argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run = {"tag": tag, "traced": traced, "rc": rc, "wall_s": wall, "stdout": out,
           "stderr": err[-2000:], "outputs": outputs}
    if tracer is not None:
        run["layers"] = tracer.layer_values()
        run["absent"] = sorted(tracer.absent)
        traces.append({"tag": tag, "spans": tracer.spans, "counts": dict(tracer.counts)})
    return run


if __name__ == "__main__":
    sys.exit(main())
