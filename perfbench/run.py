"""Sketch-engine benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lang_sketch_build --seed 1 \\
        --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The repository is the parent of this file's directory, so the benchmark
runs from any working directory. A run starts one Ray session capped at the
host's CPU count, writes the workload's seeded input files (``inputs.py``,
in a child process), runs the workload's own preparation ``SETUPS`` times,
warms up, and then either

- ``--trace 0``: repeats the timed job for ``--seconds`` seconds (at least
  ``MIN_JOBS`` times), checking every output, and reports the end-to-end
  metrics as medians over the jobs; or
- ``--trace 1``: runs the job once split at layer boundaries inside spans,
  replays each layer's public calls in this process over the blocks the
  layer received, runs the job once untraced, and reports the per-layer
  metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run's details: workload, seed, host facts, every metric of the
workload by name, unit and better-direction (the workload-specific ones
too), the correctness gates and the job walls. Everything else the process
prints, Ray's warnings included, goes to standard error.

Exit codes: 0 after a run, also one whose checks failed; 2 when the engine
is not beside this directory; 3 when another Ray session is live; 1 when
the self-test fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
#: preparations per run; setup_s is their median plus Ray start, input
#: generation and warm-up
SETUPS = 3
#: timed jobs per untraced run, however short --seconds is
MIN_JOBS = 3
#: Ray puts its sockets under its temp dir; Unix socket paths are limited
#: to 107 bytes, and Ray appends up to 64 to the directory
RAY_TEMP_MAX = 43

#: metric name -> (unit, better); the end-to-end metrics are emitted by
#: untraced runs, the per-layer ones by traced runs
END_TO_END = {
    "setup_s": ("s", "lower"),
    "docs_per_s": ("1/s", "higher"),
    "resume_s": ("s", "lower"),
    "driver_peak_rss_mb": ("MB", "lower"),
}
#: end-to-end metrics that vary with the seed by more than any bound the
#: benchmark may set, or are zero on a correct run: printed in the details
#: line (and gated, see workloads.py), not bounded as medians
DETAIL_ONLY = {
    "probe_urls_per_s": ("1/s", "higher"),
    "fpp_measured": ("ratio", "lower"),
    "distinct_rel_err": ("ratio", "lower"),
    "quantile_rank_err": ("ratio", "lower"),
    "failed_ops": ("ratio", "lower"),
}
PER_LAYER = {
    "sources.rows": ("count", "higher"),
    "sources.busy_s": ("s", "lower"),
    "extract.rows": ("count", "higher"),
    "extract.busy_s": ("s", "lower"),
    "hashing.keys": ("count", "higher"),
    "hashing.busy_s": ("s", "lower"),
    "hashing.scan_ratio": ("ratio", "higher"),
    "sketch.insert_keys": ("count", "higher"),
    "sketch.insert_busy_s": ("s", "lower"),
    "sketch.find_keys": ("count", "higher"),
    "sketch.find_busy_s": ("s", "lower"),
    "sketch.merges": ("count", "lower"),
    "sketch.merge_busy_s": ("s", "lower"),
    "sketch.serde_bytes": ("B", "lower"),
    "sketch.serde_busy_s": ("s", "lower"),
    "sketch_build.partial_rows": ("count", "lower"),
    "sketch_build.partial_bytes": ("B", "lower"),
    "sketch_build.raw_share": ("ratio", "higher"),
    "sketch_build.shard_skew": ("ratio", "lower"),
    "sketch_build.map_busy_s": ("s", "lower"),
    "sketch_build.merge_busy_s": ("s", "lower"),
    "broadcast.bytes": ("B", "lower"),
    "broadcast.busy_s": ("s", "lower"),
    "checkpoint.partitions_built": ("count", "lower"),
    "checkpoint.partitions_skipped": ("count", "higher"),
    "checkpoint.bytes_written": ("B", "lower"),
    "checkpoint.partition_ms_p50": ("ms", "lower"),
    "checkpoint.partition_ms_max": ("ms", "lower"),
    "checkpoint.build_busy_s": ("s", "lower"),
    "checkpoint.merge_busy_s": ("s", "lower"),
    "ray.tasks": ("count", "lower"),
    "ray.blocks": ("count", "lower"),
    "ray.unattributed_s": ("s", "lower"),
    "ray.overhead_share": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
#: replay span -> (busy-time metric, {span count: count metric})
REPLAY_LAYERS = {
    "sources": ("sources.busy_s", {"rows": "sources.rows"}),
    "extract": ("extract.busy_s", {"rows": "extract.rows"}),
    "hashing": ("hashing.busy_s", {"keys": "hashing.keys"}),
    "sketch.insert": ("sketch.insert_busy_s", {"keys": "sketch.insert_keys"}),
    "sketch.find": ("sketch.find_busy_s", {"keys": "sketch.find_keys"}),
    "sketch.merge": ("sketch.merge_busy_s", {"merges": "sketch.merges"}),
    "sketch.serde": ("sketch.serde_busy_s", {"bytes": "sketch.serde_bytes"}),
    "sketch_build.map": ("sketch_build.map_busy_s", {}),
    "sketch_build.merge": ("sketch_build.merge_busy_s", {}),
    "broadcast": ("broadcast.busy_s", {"bytes": "broadcast.bytes"}),
    "checkpoint.build": ("checkpoint.build_busy_s", {}),
    "checkpoint.merge": ("checkpoint.merge_busy_s", {}),
}


def _now() -> float:
    return time.perf_counter()


def _nproc() -> int:
    """CPUs this process may use, counted as nproc(1) counts them."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            n = min(n, int(os.environ[var]))
    return n


def _ray_pids() -> list[int]:
    """PIDs of Ray processes on this host: its daemons, its workers, and
    the Python helpers it starts (a script under the ray package)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/comm", "rb") as f:
                comm = f.read().strip()
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:  # exited while listed
            continue
        if (comm in (b"raylet", b"gcs_server") or comm.startswith(b"ray::")
                or any(a.endswith(b".py") and b"/ray/" in a
                       for a in argv[1:3])):
            pids.append(int(entry))
    return pids


def _wait_ray_gone(timeout: float = 30.0) -> None:
    """Wait until every Ray process has ended; kill stragglers."""
    deadline = _now() + timeout
    while _ray_pids() and _now() < deadline:
        time.sleep(0.2)
    for pid in _ray_pids():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    deadline = _now() + 10
    while _ray_pids() and _now() < deadline:
        time.sleep(0.1)


def _start_ray() -> None:
    import ray
    from ray.data import DataContext

    # Ray workers start in another directory: give them the engine
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    temp = os.path.join(WORK, "ray")
    if len(temp) <= RAY_TEMP_MAX:
        kwargs["_temp_dir"] = temp
    ray.init(address="local", num_cpus=_nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, **kwargs)
    from libfilter_ray.context import apply_scale_defaults

    apply_scale_defaults()
    DataContext.get_current().enable_progress_bars = False


def _clean(work: str) -> None:
    """Remove a run's inputs and Ray's session files."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)


def _host() -> dict:
    import numpy
    import pyarrow
    import ray

    return {"nproc": _nproc(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "python": sys.version.split()[0]}


class Ops:
    """Attempted and failed operations (jobs and correctness gates)."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.gates: dict = {}

    def call(self, fn, *args):
        """Run one job; a job that raises is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the run goes on; the failure is counted
            traceback.print_exc()
            self.failed += 1
            return None

    def check(self, gates) -> None:
        """Count each named gate of an output as one operation."""
        for name, ok in gates:
            self.attempted += 1
            self.failed += not ok
            passed, total = self.gates.get(name, (0, 0))
            self.gates[name] = (passed + bool(ok), total + 1)


def set_up(w, ops: Ops, setups: int) -> dict:
    """Ray start, input generation, `setups` preparations, one warm-up."""
    t0 = _now()
    _start_ray()
    ray_start = _now() - t0
    shutil.rmtree(w.work, ignore_errors=True)
    t0 = _now()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), w.generator,
         w.work, str(w.seed), json.dumps(w.sizes)],
        check=True, stdout=sys.stderr)
    generate = _now() - t0
    times = []
    for _ in range(setups):
        t0 = _now()
        w.prepare()
        times.append(_now() - t0)
    t0 = _now()
    ops.check(w.warm_up(ops))
    warm_up = _now() - t0
    return {"setup_s": ray_start + generate + statistics.median(times)
            + warm_up, "ray_start_s": ray_start, "generate_s": generate,
            "prepare_s": times, "warm_up_s": warm_up}


def timed(w, ops: Ops, seconds: float) -> tuple[dict, dict]:
    walls, results, checks, rows = [], [], [], 0
    end = _now() + seconds
    # start another job while it is expected to end by the deadline
    while ops.attempted == 0 or len(walls) < MIN_JOBS \
            or _now() + statistics.median(walls) <= end:
        got = ops.call(w.job)
        if got is None:
            if ops.failed > MIN_JOBS:
                break
            continue
        out, rows, wall, result_s = got
        walls.append(wall)
        results.append(result_s)
        t0 = _now()
        ops.check(w.check(out))
        checks.append(_now() - t0)
    wall = statistics.median(walls) if walls else float("nan")
    metrics = {
        "docs_per_s": rows / wall if walls else 0.0,
        "resume_s": statistics.median(results) if results else 0.0,
        **w.accuracy,
    }
    if w.name == "url_membership_probe":
        metrics["probe_urls_per_s"] = metrics["docs_per_s"]
    return metrics, {"job_walls_s": walls, "check_s": checks,
                     "rows_per_job": rows}


def traced(w, ops: Ops) -> tuple[dict, dict]:
    from spans import RayStats, Tracer

    tracer, stats = Tracer(), RayStats()
    with stats.capture(), tracer.span("job"):
        out = ops.call(w.traced, tracer)
    job_span = tracer.spans[0]
    traced_wall = job_span["end"] - job_span["start"]
    if out is not None:
        ops.check(w.check_traced(out))
    n0 = len(tracer.spans)
    with tracer.span("replay"), tracer.wrap_library():
        ops.call(w.replay, tracer)
    replay_span = tracer.spans[n0]
    replay_wall = replay_span["end"] - replay_span["start"]
    got = ops.call(w.job)
    untraced_wall = float("nan")
    if got is not None:
        out, _rows, untraced_wall, _ = got
        ops.check(w.check(out))

    layers = tracer.layers([replay_span["id"]])
    m = {name: 0.0 for name in PER_LAYER}
    busy = 0.0
    for span, (busy_metric, counts) in REPLAY_LAYERS.items():
        agg = layers.get(span, {})
        m[busy_metric] = agg.get("busy_s", 0.0)
        busy += m[busy_metric]
        for count, metric in counts.items():
            m[metric] = agg.get(count, 0)
    hashing = layers.get("hashing", {})
    if hashing.get("scanned_bytes"):
        m["hashing.scan_ratio"] = hashing["key_bytes"] / \
            hashing["scanned_bytes"]
    m.update(w.extras)
    m["ray.tasks"], m["ray.blocks"] = stats.totals()
    m["ray.unattributed_s"] = traced_wall - busy
    m["ray.overhead_share"] = 1.0 - replay_wall / untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    tracer.dump(os.path.join(WORK, "results", f"{w.name}-{w.seed}-spans.json"),
                ray_operators=stats.operators)
    return m, {"traced_wall_s": traced_wall, "replay_wall_s": replay_wall,
               "untraced_wall_s": untraced_wall,
               "ray_operators": stats.operators,
               "ray_stage_s": {sp["name"]: sp["end"] - sp["start"]
                               for sp in tracer.spans
                               if sp["name"].startswith("ray.")}}


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setups: int = SETUPS) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details line)."""
    import ray

    from workloads import WORKLOADS

    w = WORKLOADS[name](os.path.join(WORK, f"{name}-{seed}"), seed, scale)
    ops = Ops()
    try:
        setup = set_up(w, ops, setups)
        if trace:
            metrics, info = traced(w, ops)
            specs = PER_LAYER
        else:
            metrics, info = timed(w, ops, seconds)
            metrics["setup_s"] = setup["setup_s"]
            metrics["driver_peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            specs = END_TO_END
        host = _host()
    finally:
        ray.shutdown()
        _wait_ray_gone()
        _clean(w.work)
    metrics["failed_ops"] = ops.failed / max(ops.attempted, 1)
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u}
                          for k, (u, _b) in specs.items()}}
    details = {
        "workload": name, "seed": seed, "trace": int(trace),
        "sizes": w.sizes, "host": host, "setup": setup,
        "metrics": {k: {"value": float(metrics[k]), "unit": u, "better": b}
                    for k, (u, b) in {**specs, **DETAIL_ONLY}.items()
                    if k in metrics},
        "gates": {k: {"passed": p, "total": t}
                  for k, (p, t) in ops.gates.items()},
        **info}
    return result, details


def self_test() -> bool:
    """Every workload (also those BENCHMARK.json leaves out) at a tiny
    size, untraced and traced: every metric BENCHMARK.json names is emitted
    with its unit and better-direction, and a deliberately corrupted output
    fails its gates."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run(name, 7, 0.0, trace, scale=0.02,
                                  setups=1)
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                det = details["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] \
                        or det is None or det["better"] != m["better"]:
                    print(f"FAIL {name}: metric {m['name']} missing or "
                          f"mislabelled: {got} {det}", file=sys.stderr)
                    ok = False
            if result["failed"]:
                print(f"FAIL {name} trace={trace}: {result['failed']} "
                      f"failed ops: {details['gates']}", file=sys.stderr)
                ok = False
        ok = _corruption_detected(name) and ok
    print("self-test", "PASS" if ok else "FAIL", file=sys.stderr)
    return ok


def _corruption_detected(name: str) -> bool:
    import ray

    from workloads import WORKLOADS

    w = WORKLOADS[name](os.path.join(WORK, f"{name}-selftest"), 7, 0.02)
    ops = Ops()
    try:
        set_up(w, ops, 1)
        out = w.job()[0]
        before = ops.failed
        ops.check(w.check(w.corrupt(out)))
        caught = ops.failed > before
    finally:
        ray.shutdown()
        _wait_ray_gone()
        _clean(w.work)
    print(f"{name}: corrupted output {'counted' if caught else 'MISSED'} "
          f"in failed_ops", file=sys.stderr)
    return caught


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "libfilter_ray")):
        print(f"no engine at {ROOT}/libfilter_ray", file=sys.stderr)
        return 2
    if _ray_pids():
        print("another Ray session is live; refusing to start",
              file=sys.stderr)
        return 3
    sys.path.insert(0, ROOT)
    # Ray workers and pyarrow write to standard output; keep it for the
    # result lines only
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    if args.self_test:
        return 0 if self_test() else 1
    if args.workload is None:
        ap.error("--workload is required")
    result, details = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"details": details, "result": result}, f, indent=1)
    out.write(json.dumps(details) + "\n" + json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
