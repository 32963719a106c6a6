"""Benchmark a change against a base revision in alternating pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --workload presets --seed 0 --pairs 10 \
        --seconds 30 --out BENCH_<n>.json

The base revision (default HEAD) is extracted with `git archive` into a
temporary directory.  Each pair runs `perfbench/run.py --trace 0` once
there and once in the working tree, the side that goes first alternating
from pair to pair, so drift of the machine falls on both sides alike.
With --trace-seconds BASE CHANGE, each side then gets one traced run of
that length for the per-layer table.  Per-layer counts compare only at
equal pass counts, so pick the two lengths to give equal passes (the
faster side needs the shorter run); --pairs 0 runs the traced pair alone.

The output file holds the environment (with numpy's SIMD dispatch
targets, as output bits depend on them), the seeds, every pair's end-to-end
metrics, failures and output checks, per metric the medians and quartiles
of each side and the number of pairs the change wins, and per side the
operations attempted and failed over all pairs.  Each run also records its
failures by operation label, and each pair prints them.  Each run also
records, per operation label, the median bytes its successful operations
wrote: a deterministic work counter that machine drift does not move.
Each pair prints it, and the summary gives its median over the pairs per
side.  Each run also records its CPU time, `cpu_s`: the user + system time
of the benchmark process and of every child it waited for (the set-up
children that time `setup_s` included), with its wall time, `wall_s`; the
summary gives each side's CPU seconds per wall second, which tells a
change of the code from a change of its thread count.  A warning is printed when
the change fails a larger share of its operations than the base, when its
median of an end-to-end metric is worse than the base's by more than that
metric's relative `bound` in BENCHMARK.json, or when either side writes
incorrect outputs.  The change's entry lists the paths that
differ from its commit, the output file aside.  Runs on another workload
or seed are merged into the same file under their own key,
"<workload>/seed<seed>".
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from collections import Counter
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def uncommitted_changes(out: Path) -> list[str]:
    """Paths whose working-tree state differs from HEAD: tracked files
    changed, staged or deleted, and untracked files, but not `out`, the
    BENCH file this run merges into."""
    paths = (git("diff", "--name-only", "HEAD").splitlines()
             + git("ls-files", "--others", "--exclude-standard").splitlines())
    out = out.resolve()
    return sorted(p for p in set(paths) if (ROOT / p).resolve() != out)


def extract(rev: str, dest: Path):
    archive = dest / "base.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                       stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "base", filter="data")
    archive.unlink()


def run_bench(tree: Path, args, trace: int, seconds: float) -> dict:
    """One perfbench run in `tree`: its result line and its results file."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark failed in {tree}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["cpu_s"] = (after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime)
    path = (tree / "perfbench" / "out" / "results"
            / f"{args.workload}-seed{args.seed}-trace{trace}.json")
    with open(path) as fh:
        saved = json.load(fh)
    result["passes"] = saved["passes"]
    ops = [r for r in saved["operations"] if r["traced"] == bool(trace)]
    failed = Counter(r["op"] for r in ops if not r["ok"])
    result["failed_ops"] = dict(sorted(failed.items()))
    written = {}
    for r in ops:
        if r["ok"]:
            written.setdefault(r["op"], []).append(r["output_bytes"])
    result["output_bytes"] = {label: statistics.median(sizes)
                              for label, sizes in sorted(written.items())}
    return result, saved["environment"]


def numpy_simd() -> list[str]:
    """numpy's dispatch targets that this host turns on and
    NPY_DISABLE_CPU_FEATURES leaves on; the runs inherit this environment."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                                  __cpu_features__)
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def describe(run: dict) -> str:
    """Passes, CPU and wall seconds, per failing label its failures, and
    per label the median bytes written."""
    return (f"{run['passes']} passes, cpu {run['cpu_s']:.1f} s of wall "
            f"{run['wall_s']:.1f} s") + "".join(
        f", {label} failed {n}x"
        for label, n in run["failed_ops"].items()) + ", bytes " + ", ".join(
        f"{label} {size:.0f}" for label, size in run["output_bytes"].items())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric: each side's spread, the change's wins, and
    whether its median is worse than the base's by more than the bound."""
    summary = {}
    for name, metric in metrics.items():
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        before, after = statistics.median(base), statistics.median(change)
        summary[name] = {
            "better": metric["better"], "bound": metric["bound"],
            "base": spread(base), "change": spread(change),
            "median_ratio": after / before,
            "worse_than_bound": (sign * (after - before)
                                 < -metric["bound"] * abs(before)),
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs)}
    return summary


def output_bytes(pairs: list[dict]) -> dict:
    """Per side and label: the median over the pairs of each run's median
    bytes written by one successful operation."""
    return {side: {label: statistics.median(
                       p[side]["output_bytes"][label] for p in pairs
                       if label in p[side]["output_bytes"])
                   for label in sorted({label for p in pairs
                                        for label in p[side]["output_bytes"]})}
            for side in ("base", "change")}


def cpu_time(pairs: list[dict]) -> dict:
    """Per side: the spread of each run's CPU seconds and of its CPU
    seconds per wall second."""
    return {side: {"cpu_s": spread([p[side]["cpu_s"] for p in pairs]),
                   "cpu_per_wall": spread([p[side]["cpu_s"] / p[side]["wall_s"]
                                           for p in pairs])}
            for side in ("base", "change")}


def failures(pairs: list[dict]) -> dict:
    """Per side: operations attempted and failed over all pairs, the failed
    share, and whether every run's outputs were correct."""
    out = {}
    for side in ("base", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        by_label = sum((Counter(p[side]["failed_ops"]) for p in pairs),
                       Counter())
        out[side] = {"attempted": attempted, "failed": failed,
                     "failed_share": failed / attempted if attempted else 0.0,
                     "failed_ops": dict(sorted(by_label.items())),
                     "correct": all(p[side]["correct"] for p in pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "max-collapse", "oracle"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace-seconds", type=float, nargs=2,
                        metavar=("BASE", "CHANGE"))
    parser.add_argument("--base", default="HEAD", help="git revision")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs == 1 or args.pairs < 0 or not (args.pairs or
                                                 args.trace_seconds):
        parser.error("--pairs must be 0 (with --trace-seconds) or >= 2")

    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    pairs, traced = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side], env = run_bench(trees[side], args, 0, args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{name} {pair['base']['metrics'][name]['value']:.4g} -> "
                f"{pair['change']['metrics'][name]['value']:.4g}"
                for name in metrics) + ", failed " + " -> ".join(
                f"{pair[side]['failed']}/{pair[side]['attempted']}"
                for side in ("base", "change")), flush=True)
            for side in ("base", "change"):
                print(f"  {side}: {describe(pair[side])}", flush=True)
        for side, seconds in zip(("base", "change"),
                                 args.trace_seconds or ()):
            traced[side], env = run_bench(trees[side], args, 1, seconds)
            print(f"traced {side}: {traced[side]['passes']} passes",
                  flush=True)

    entry = {"workload": args.workload, "seed": args.seed,
             "environment": {**env, "numpy_simd": numpy_simd()},
             "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
             "change": {"commit": git("rev-parse", "HEAD"),
                        "uncommitted_changes": uncommitted_changes(args.out)}}
    if pairs:
        entry.update(seconds=args.seconds, summary=summarise(pairs, metrics),
                     failures=failures(pairs),
                     output_bytes=output_bytes(pairs),
                     cpu=cpu_time(pairs),
                     quartiles="statistics.quantiles(n=4), exclusive method",
                     pairs=pairs)
    if traced:
        entry["traced"] = {"seconds": dict(zip(traced, args.trace_seconds)),
                           **traced}
    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs.setdefault(f"{args.workload}/seed{args.seed}", {}).update(entry)
    args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    for name, s in entry.get("summary", {}).items():
        print(f"{name:12s} median {s['base']['median']:.4g} -> "
              f"{s['change']['median']:.4g} ({s['median_ratio']:.3f}x), "
              f"change better in {s['wins']}/{s['pairs']} pairs")
        if s["worse_than_bound"]:
            print(f"WARNING: the change's median {name} is worse than the "
                  f"base's by more than its bound {s['bound']:g}")
    written = entry.get("output_bytes", {"base": {}, "change": {}})
    for label, size in written["base"].items():
        after = written["change"].get(label, 0)
        print(f"bytes {label:12s} {size:.0f} -> {after:.0f}"
              + (f" ({after / size:.3f}x)" if size else ""))
    if "cpu" in entry:
        print("cpu per wall  " + " -> ".join(
            f"{entry['cpu'][side]['cpu_per_wall']['median']:.3f}"
            for side in ("base", "change")))
    if "failures" in entry:
        base, change = entry["failures"]["base"], entry["failures"]["change"]
        print("failed share  " + " -> ".join(
            f"{f['failed']}/{f['attempted']} ({f['failed_share']:.4f})"
            for f in (base, change)))
        print("failed by op  " + " -> ".join(
            json.dumps(f["failed_ops"]) for f in (base, change)))
        if change["failed_share"] > base["failed_share"]:
            print("WARNING: the change fails a larger share of operations "
                  "than the base")
        for side, f in (("base", base), ("change", change)):
            if not f["correct"]:
                print(f"WARNING: {side} wrote incorrect outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
