"""latticemc benchmark: ensemble throughput and full-Hilbert-space oracle time.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/METRICS.md for why each exists):
  presets       `latticemc ensemble` on fig2..fig5 as shipped, n_traj 20
  max-collapse  `latticemc ensemble` on a maximum-scenario config run to
                tau = 30 (about 1e5 counts per trajectory), n_traj 40
  oracle        the oracle-check case set through the public API

One client, one process, closed loop: the next operation starts only after
the previous one finished and its outputs were checked.  Passes over the
workload's operation list repeat until --seconds have elapsed.  With
--trace 0 the end-to-end metrics are measured; with --trace 1 every pass
runs untraced and then traced on the same inputs, and the per-layer
metrics come from the traced runs (`tracer.py`).  The last line of stdout
is one JSON object; a results file with the environment and every
operation is written under perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

# A fresh interpreter imports the package and builds, for every config of the
# workload, what an ensemble needs before its first trajectory.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import latticemc
from latticemc import cli
for path in sys.argv[2:]:
    with open(path) as fh:
        cfg = cli.parse_config(fh.read())
    p0 = cli.initial_distribution(cfg)
    model = cli.probe_model(cfg)
    latticemc.amplitude_table(model, p0.z_values)
elapsed = time.perf_counter() - start
if not latticemc.__file__.startswith(sys.argv[1]):
    sys.exit("imported latticemc from " + latticemc.__file__)
print(repr(elapsed))
"""

END_TO_END = {"setup_s": "s", "traj_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run, per pass unless a ratio.  A name
# ending in .calls/.s/.self_s is read from the span of that function.
PER_LAYER = {
    "trajectory.advance.self_s": "s",
    "trajectory.advance.calls": "count",
    "trajectory.counts": "count",
    "cli.cmd_ensemble.s": "s",
    "cli.cmd_ensemble.self_s": "s",
    "cli.output_bytes": "B",
    "trajectory.run_trajectory.calls": "count",
    "trajectory.run_trajectory.s": "s",
    "trajectory.strides": "count",
    "trajectory.us_per_stride": "us",
    "trajectory.strides_run_frac": "frac",
    "trajectory.detect_peaks.calls": "count",
    "trajectory.detect_peaks.s": "s",
    "trajectory.classify_outcome.s": "s",
    "states.with_probabilities.calls": "count",
    "states.with_probabilities.s": "s",
    "photostats.photocount_distribution.calls": "count",
    "photostats.photocount_distribution.s": "s",
    "photostats.support": "count",
    "optics.amplitude_table.s": "s",
    "cli.parse_config.s": "s",
    "oracle.run_script.s": "s",
    "oracle.evolve_nonhermitian.calls": "count",
    "oracle.evolve_nonhermitian.s": "s",
    "oracle.z_marginal.s": "s",
    "trajectory.exact_distribution.s": "s",
    "optics.prefactor_exponent_exact.calls": "count",
    "optics.prefactor_exponent_exact.s": "s",
    "trace.overhead_frac": "frac",
}
SPAN_FIELDS = {"calls": "calls", "s": "total_s", "self_s": "self_s"}
TRACED_MODULES = ("cli", "trajectory", "states", "optics", "photostats",
                  "oracle")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "max-collapse", "oracle"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 reproduces the shipped seeds)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for this long (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_package():
    """Import latticemc from this checkout's src/, never from elsewhere."""
    if not (SRC / "latticemc" / "__init__.py").is_file():
        sys.exit(f"benchmark: no latticemc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latticemc
    if not Path(latticemc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: imported latticemc from {latticemc.__file__}")


def blas_threads() -> dict:
    """Thread setting of the OpenBLAS that numpy loaded, and the env vars."""
    info = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for so in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(so))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["openblas_threads"] = int(fn())
                info["openblas_library"] = so.name
                return info
    info["openblas_threads"] = None
    return info


def environment(seed: int, workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_threads(),
        "machine": platform.machine(),
        "workload_seed": seed,
        "program_seeds_pass0": workload.seeds(),
    }


def time_setup(config_paths: list[Path]) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters.

    The benchmark process has already imported the package, so the bytecode
    cache and the file cache are warm, as on any run after the first.
    """
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC)]
    argv += [str(p) for p in config_paths]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def per_pass(records: list[dict], value) -> list[float]:
    """value(successful operations of one pass), for each pass that has one."""
    passes = defaultdict(list)
    for r in records:
        if r["ok"]:
            passes[r["pass"]].append(r)
    return [value(rs) for _, rs in sorted(passes.items())]


def full_length_rate(rs: list[dict]) -> float:
    """Trajectories per second, each weighted by the share of its recording
    grid it ran, so seeds whose trajectories stop early do not move it."""
    done = sum(r["trajectories"] * r["strides"] / r["grid_strides"] for r in rs)
    return done / sum(r["wall_s"] for r in rs)


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """Gated metrics, and the figures that are only reported."""
    rates = per_pass(records, full_length_rate)
    metrics = {
        "setup_s": statistics.median(setup),
        "traj_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Not gated: figures that exist on one workload only or can be 0;
    # failures are counted in the result line as attempted/failed.
    failed = sum(not r["ok"] for r in records)
    extra = {"failed_frac": (failed / len(records), "")}
    unweighted = per_pass(records, lambda rs: sum(r["trajectories"] for r in rs)
                          / sum(r["wall_s"] for r in rs))
    if unweighted:
        extra["traj_per_s.unweighted"] = (statistics.median(unweighted), "1/s")
    labels = sorted({r["op"] for r in records})
    if all(label.startswith("oracle:") for label in labels):
        if not failed:
            oracle = per_pass(records, lambda rs: sum(r["wall_s"] for r in rs))
            extra["oracle_s"] = (statistics.median(oracle), "s")
    else:
        for label in labels:
            times = [r["wall_s"] for r in records if r["ok"] and r["op"] == label]
            if times:
                extra[f"ensemble_s.{label}"] = (statistics.median(times), "s")
    return metrics, extra


def make_tracer():
    from workloads import recording_grid
    modules = [importlib.import_module(f"latticemc.{m}") for m in TRACED_MODULES]
    counters = defaultdict(float)

    # Hooks read only what they find, so a later refactor that changes a
    # record's shape loses a count, never the run.
    def on_trajectory(args, kwargs, record):
        samples = getattr(record, "samples", None)
        if samples and "max_tau" in kwargs:
            counters["trajectory.strides"] += len(samples) - 1
            counters["trajectory.counts"] += getattr(samples[-1], "m", 0)
            counters["grid_strides"] += len(recording_grid(
                kwargs["max_tau"], kwargs.get("sample_interval_tau"),
                kwargs.get("snapshot_taus", ()))) - 1

    def on_photocount(args, kwargs, result):
        counters["photostats.support"] += len(getattr(result, "n_values", ()))

    tracer = Tracer(modules, "latticemc", hooks={
        "trajectory.run_trajectory": on_trajectory,
        "photostats.photocount_distribution": on_photocount})
    return tracer, counters


def per_layer(tracer, counters, records, passes) -> tuple[dict, list]:
    """Per-pass layer metrics; names whose function no longer exists are absent."""
    metrics, absent = {}, []
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in SPAN_FIELDS:
            if span not in tracer.names:
                absent.append(name)
            metrics[name] = getattr(tracer, SPAN_FIELDS[field]).get(span, 0) / passes
    if "trajectory.run_trajectory" not in tracer.names:
        absent += ["trajectory.strides", "trajectory.counts",
                   "trajectory.us_per_stride", "trajectory.strides_run_frac"]
    if "photostats.photocount_distribution" not in tracer.names:
        absent.append("photostats.support")
    strides = counters["trajectory.strides"]
    metrics["trajectory.strides"] = strides / passes
    metrics["trajectory.counts"] = counters["trajectory.counts"] / passes
    metrics["trajectory.us_per_stride"] = (
        1e6 * tracer.total_s.get("trajectory.run_trajectory", 0.0) / strides
        if strides else 0.0)
    metrics["trajectory.strides_run_frac"] = (
        strides / counters["grid_strides"] if counters["grid_strides"] else 0.0)
    metrics["photostats.support"] = counters["photostats.support"] / passes
    traced = [r for r in records if r["traced"]]
    plain_s = sum(r["wall_s"] for r in records if not r["traced"])
    metrics["cli.output_bytes"] = sum(r["output_bytes"] for r in traced) / passes
    metrics["trace.overhead_frac"] = (
        sum(r["wall_s"] for r in traced) / plain_s - 1.0 if plain_s else 0.0)
    return {k: metrics[k] for k in PER_LAYER}, absent


def dominant_layers(tracer, records, passes, top=10) -> list[dict]:
    traced_s = sum(r["wall_s"] for r in records if r["traced"]) / passes
    rows = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:top]
    return [{"span": name, "self_s": s / passes,
             "share": s / passes / traced_s if traced_s else 0.0,
             "calls": tracer.calls[name] / passes} for name, s in rows]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import Client, Workload, clear

    work_dir = OUT / f"work-{os.getpid()}"
    workload = Workload(args.workload, args.seed, work_dir)
    env = environment(args.seed, workload)
    client = Client(work_dir)
    try:
        if args.trace:
            tracer, counters = make_tracer()
            passes = client.run_passes(workload, args.seconds, tracer)
            metrics, absent = per_layer(tracer, counters, client.records, passes)
            extra = {"absent": absent, "rebound": tracer.rebound(),
                     "dominant_self_time": dominant_layers(
                         tracer, client.records, passes),
                     "spans": {n: {"calls": tracer.calls[n],
                                   "total_s": tracer.total_s[n],
                                   "self_s": tracer.self_s[n]}
                               for n in sorted(tracer.calls)},
                     "edges": [{"caller": a, "callee": b, "calls": c, "s": s}
                               for (a, b), (c, s) in sorted(
                                   tracer.edges.items(), key=lambda kv: str(kv[0]))]}
            units = PER_LAYER
        else:
            setup = time_setup(list(workload.config_paths.values()))
            passes = client.run_passes(workload, args.seconds)
            metrics, extra = end_to_end(client.records, setup)
            extra["setup_s.samples"] = (setup, "s")
            units = END_TO_END
    finally:
        clear(work_dir)

    attempted = [r for r in client.records if r["traced"] == bool(args.trace)]
    failed = [r for r in attempted if not r["ok"]]
    correct = not any(r["problems"] for r in client.records)
    result = {"correct": correct, "attempted": len(attempted),
              "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}

    report(args, passes, result, extra, failed)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              f".json", "w") as fh:
        json.dump({"environment": env, "seconds": args.seconds,
                   "passes": passes, "result": result, "extra": extra,
                   "operations": client.records}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


def report(args, passes, result, extra, failed):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes, {result['attempted']} operations, "
          f"{result['failed']} failed, outputs "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        if extra["absent"]:
            print("  absent (not in this version): " + ", ".join(extra["absent"]))
        print("  largest self time per pass:")
        for row in extra["dominant_self_time"]:
            print(f"    {row['span']:42s} {row['self_s']:10.4f} s "
                  f"{100 * row['share']:5.1f}%  {row['calls']:10.0f} calls")
    else:
        for name, (value, unit) in extra.items():
            if name != "setup_s.samples":  # recorded in the results file
                print(f"  {name:44s} {value:14.6g} {unit:5s} (not gated)")
    for r in failed:
        why = r["problems"][0].splitlines()[-1] if r["problems"] else \
            f"exit code {r['exit_code']}"
        print(f"  failed: {r['op']} pass {r['pass']}: {why}")


if __name__ == "__main__":
    sys.exit(main())
