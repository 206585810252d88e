"""Seeded inputs of the four workloads, and the checks on the program's outputs.

Every input is a file the benchmark writes itself from ``--seed``; the
program only ever reads files.  Edge sets and churn are drawn by the
benchmark's own NumPy code, not by ``repro.graphs`` generators, so a change
to the program's generators can never change the benchmark's inputs.  Graph
files go through the program's ``WeightedGraph`` and ``save_npz`` (the only
way to write its ``.npz`` format), which is why set-up time is a metric: work
moved from loading into saving shows there.

The checks trust nothing the program says about itself: covers are read
from ``--cover-out`` and checked edge by edge against the benchmark's own
copy of the graph, the stream's final graph is rebuilt by replaying the
benchmark's own ``u.jsonl``, and cover weights are recomputed from weights.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Workload name -> why it is in the benchmark (also in README.md).
WORKLOADS = {
    "solve-gnp-3m": "static solve at ~3.2M edges: graph loading and the "
    "Algorithm-2 phase loop dominate",
    "stream-uniform": "100k uniform-churn updates, no durability: decode, the "
    "per-event apply loop, repair, prune and re-solves",
    "stream-durable": "the same stream with WAL, digests, snapshots and the "
    "input copy (fsync off)",
    "batch-manifest": "24-line manifest, 8 duplicates, 2 pool workers: pool, "
    "digest-keyed dedup and manifest loading",
}

# Sizes. The stream config is the one committed in BENCH_repair.json.
SOLVE_N, SOLVE_DEGREE = 200_000, 32.0
STREAM_N, STREAM_DEGREE, STREAM_UPDATES, STREAM_BATCH = 10_000, 10.0, 100_000, 1000
BATCH_N, BATCH_DEGREE, BATCH_DISTINCT, BATCH_DUPLICATES = 20_000, 16.0, 16, 8
BATCH_WORKERS = 2
WEIGHT_LO, WEIGHT_HI = 1.0, 10.0

# Uniform churn mix, matching the program's own ``uniform`` churn model.
P_REWEIGHT, P_DELETE = 0.2, 0.4
WEIGHT_SCALE = 2.0

#: Relative tolerance when comparing a recomputed cover weight with the
#: program's (the two sums add the same floats in different orders).
WEIGHT_RTOL = 1e-9


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def random_graph(
    n: int, degree: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G(n, p) with p = degree/(n-1): Binomial edge count, uniform pairs.

    Pairs are drawn uniformly with replacement; self-loops are dropped and
    repeats merged (about 0.01% of edges at these sizes).  Returns
    canonical ``(u, v, weights)`` with ``u < v`` sorted lexicographically.
    """
    pairs = n * (n - 1) // 2
    m = int(rng.binomial(pairs, degree / (n - 1)))
    a = rng.integers(0, n, size=m)
    b = rng.integers(0, n, size=m)
    keep = a != b
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    codes = np.sort(lo * n + hi)
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    weights = rng.uniform(WEIGHT_LO, WEIGHT_HI, size=n)
    return codes // n, codes % n, weights


def write_graph(path: str, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """Write a graph file through the program's own format writer."""
    from repro.graphs.graph import WeightedGraph
    from repro.graphs.io import save_npz

    save_npz(WeightedGraph(n, u, v, w), path)


def uniform_churn(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    weights: np.ndarray,
    num_updates: int,
    rng: np.random.Generator,
) -> List[str]:
    """JSON lines of a memoryless insert/delete/reweight stream.

    Deletes pick a uniformly random present edge, inserts a uniformly
    random absent pair, reweights multiply a random vertex weight by a
    factor in ``[1/2, 2]``.
    """
    pairs: List[Tuple[int, int]] = list(zip(u.tolist(), v.tolist()))
    index: Dict[Tuple[int, int], int] = {p: i for i, p in enumerate(pairs)}
    w = weights.copy()
    draws = rng.random(num_updates)
    lines: List[str] = []
    for r in draws.tolist():
        if r < P_REWEIGHT:
            x = int(rng.integers(n))
            w[x] = float(w[x]) * float(WEIGHT_SCALE ** rng.uniform(-1.0, 1.0))
            lines.append(json.dumps({"op": "reweight", "v": x, "weight": float(w[x])}))
        elif r < P_REWEIGHT + P_DELETE and pairs:
            i = int(rng.integers(len(pairs)))
            pair = pairs[i]
            last = pairs.pop()
            del index[pair]
            if i < len(pairs):
                pairs[i] = last
                index[last] = i
            lines.append(json.dumps({"op": "delete", "u": pair[0], "v": pair[1]}))
        else:
            while True:
                a, b = int(rng.integers(n)), int(rng.integers(n))
                if a == b:
                    continue
                pair = (a, b) if a < b else (b, a)
                if pair not in index:
                    break
            index[pair] = len(pairs)
            pairs.append(pair)
            lines.append(json.dumps({"op": "insert", "u": pair[0], "v": pair[1]}))
    return lines


@dataclass
class Inputs:
    """What one workload's set-up wrote, plus the benchmark's own copy."""

    argv: List[str]
    items: int  # edges (solve), updates (streams) or requests (batch)
    graph: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None
    updates_path: Optional[str] = None
    manifest_lines: Optional[List[dict]] = None


def setup(workload: str, seed: int, directory: str) -> Inputs:
    """Generate ``workload``'s inputs from ``seed`` into ``directory``.

    Both stream workloads draw from the same RNG streams, so one seed gives
    them identical inputs (their covers are compared).
    """
    os.makedirs(directory, exist_ok=True)
    if workload == "solve-gnp-3m":
        rng = _rng(seed, 1)
        u, v, w = random_graph(SOLVE_N, SOLVE_DEGREE, rng)
        path = os.path.join(directory, "g.npz")
        write_graph(path, SOLVE_N, u, v, w)
        argv = ["solve", "--input", path, "--json", "--seed", str(seed)]
        return Inputs(argv, int(u.size), graph=(SOLVE_N, u, v, w))
    if workload in ("stream-uniform", "stream-durable"):
        u, v, w = random_graph(STREAM_N, STREAM_DEGREE, _rng(seed, 2))
        gpath = os.path.join(directory, "g.npz")
        write_graph(gpath, STREAM_N, u, v, w)
        lines = uniform_churn(STREAM_N, u, v, w, STREAM_UPDATES, _rng(seed, 3))
        upath = os.path.join(directory, "u.jsonl")
        with open(upath, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        argv = [
            "stream", "--input", gpath, "--updates", upath,
            "--batch-size", str(STREAM_BATCH), "--seed", str(seed),
        ]
        return Inputs(argv, STREAM_UPDATES, graph=(STREAM_N, u, v, w), updates_path=upath)
    if workload == "batch-manifest":
        rng = _rng(seed, 4)
        specs = []
        for k in range(BATCH_DISTINCT):
            u, v, w = random_graph(BATCH_N, BATCH_DEGREE, rng)
            path = os.path.join(directory, f"g{k:02d}.npz")
            write_graph(path, BATCH_N, u, v, w)
            specs.append({"input": path})
        # Duplicates are separate lines naming an already listed file, at
        # seeded positions, so dedup has to find them by content digest.
        dup_of = rng.choice(BATCH_DISTINCT, size=BATCH_DUPLICATES, replace=False)
        lines = specs + [dict(specs[int(k)]) for k in dup_of]
        order = rng.permutation(len(lines))
        lines = [lines[int(i)] for i in order]
        for i, spec in enumerate(lines):
            spec["id"] = f"r{i:02d}"
        mpath = os.path.join(directory, "manifest.jsonl")
        with open(mpath, "w", encoding="utf-8") as fh:
            for spec in lines:
                fh.write(json.dumps(spec) + "\n")
        argv = ["batch", "--manifest", mpath, "--workers", str(BATCH_WORKERS)]
        return Inputs(argv, len(lines), manifest_lines=lines)
    raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
class CheckError(Exception):
    """An output of the program failed a check."""


def first_json(text: str) -> dict:
    """The first JSON object in a CLI's stdout (summaries may be followed
    by human-readable lines)."""
    start = text.find("{")
    if start < 0:
        raise CheckError("no JSON summary on stdout")
    obj, _ = json.JSONDecoder().raw_decode(text[start:])
    return obj


def read_cover(path: str, n: int) -> np.ndarray:
    ids = np.loadtxt(path, dtype=np.int64, ndmin=1)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise CheckError(f"cover file {path} names a vertex outside [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def _check_cover(cover, u, v, w, claimed_weight: float, what: str) -> None:
    uncovered = int((~(cover[u] | cover[v])).sum())
    if uncovered:
        raise CheckError(f"{what}: {uncovered} edges uncovered")
    weight = float(w[cover].sum())
    if not math.isclose(weight, float(claimed_weight), rel_tol=WEIGHT_RTOL):
        raise CheckError(
            f"{what}: cover weight {weight!r} recomputed, program says {claimed_weight!r}"
        )


def check_solve(inputs: Inputs, summary: dict, cover_path: str) -> float:
    """Check a ``repro solve`` run; returns its certified ratio."""
    n, u, v, w = inputs.graph
    if int(summary["m"]) != u.size or int(summary["n"]) != n:
        raise CheckError(f"solve saw n={summary['n']} m={summary['m']}, wrote {n}/{u.size}")
    _check_cover(read_cover(cover_path, n), u, v, w, summary["cover_weight"], "solve")
    return _check_ratio(summary["certified_ratio"], "solve")


def replay(inputs: Inputs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The final graph of a stream, rebuilt from the benchmark's own files."""
    n, u, v, w = inputs.graph
    edges = set(zip(u.tolist(), v.tolist()))
    w = w.copy()
    with open(inputs.updates_path, encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            if ev["op"] == "insert":
                edges.add((ev["u"], ev["v"]))
            elif ev["op"] == "delete":
                edges.discard((ev["u"], ev["v"]))
            else:
                w[ev["v"]] = ev["weight"]
    arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1], w


def check_stream(inputs: Inputs, final, summary: dict, records: List[dict], cover_path: str) -> float:
    """Check a ``repro stream`` run against the replayed final graph.

    Returns the mean certified ratio after each batch: the quality a user
    sees over the stream's life.  The final ratio alone sits anywhere on the
    drift sawtooth between two re-solves, so it varies too much by seed.
    """
    n = inputs.graph[0]
    u, v, w = final
    if int(summary["num_updates"]) != inputs.items:
        raise CheckError(f"stream applied {summary['num_updates']} of {inputs.items} updates")
    batches = -(-inputs.items // STREAM_BATCH)
    if len(records) != batches or int(summary["num_batches"]) != batches:
        raise CheckError(f"stream wrote {len(records)} batch records, expected {batches}")
    _check_cover(
        read_cover(cover_path, n), u, v, w, summary["final_cover_weight"], "stream"
    )
    _check_ratio(summary["final_certified_ratio"], "stream final")
    ratios = [_check_ratio(r["certified_ratio_after"], "stream batch") for r in records]
    return sum(ratios) / len(ratios)


def check_batch(inputs: Inputs, rows: List[dict]) -> Tuple[float, int]:
    """Check ``repro batch`` output lines; returns (worst ratio, failed rows)."""
    expected = inputs.manifest_lines
    if len(rows) != len(expected):
        raise CheckError(f"batch wrote {len(rows)} lines for {len(expected)} requests")
    failed = 0
    first_weight: Dict[str, float] = {}
    hits = 0
    worst = 0.0
    for spec, row in zip(expected, rows):
        if row.get("request_id") != spec["id"] or not row.get("ok"):
            failed += 1
            continue
        hits += bool(row["cache_hit"])
        worst = max(worst, _check_ratio(row["certified_ratio"], spec["id"]))
        if float(row["cover_weight"]) < float(row["dual_value"]):
            failed += 1
        prev = first_weight.setdefault(spec["input"], row["cover_weight"])
        if prev != row["cover_weight"]:
            raise CheckError(f"{spec['id']}: duplicate's cover weight differs")
    if not failed and hits != BATCH_DUPLICATES:
        raise CheckError(f"batch reported {hits} cache hits, expected {BATCH_DUPLICATES}")
    return worst, failed


def _check_ratio(ratio, what: str) -> float:
    ratio = float(ratio)
    if not (math.isfinite(ratio) and ratio >= 1.0):
        raise CheckError(f"{what}: certified ratio {ratio!r} is not a finite value >= 1")
    return ratio
