"""One benchmark process: set up a workload, then measure it.

Started by run.py, never by hand.  With --probe it stops after set-up and
reports only the set-up time; otherwise it runs the workload's items
(--seconds fixes how many) and prints its result as one JSON line.  BLAS/OpenMP pools are pinned to one
thread before numpy is imported, so the whole process is single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Hard stop for the traced run, well inside the 180 s an invocation may take.
MAX_MEASURE_S = 120.0


def fail(msg: str) -> None:
    print(f"worker: {msg}", file=sys.stderr)
    sys.exit(2)


def import_latmin():
    if not (SRC / "latmin" / "__init__.py").is_file():
        fail(f"no latmin sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import latmin

    if Path(latmin.__file__).resolve().parent != SRC / "latmin":
        fail(f"imported latmin from {latmin.__file__}, not from {SRC}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_item(workload, j: int, reference: dict[int, str]):
    """Run item j once.  If its output digest differs from an earlier run
    of the same item, every op of it fails."""
    r = workload.run_item(j)
    if reference.setdefault(j, r.digest) != r.digest:
        r.failed = [True] * len(r.failed)
    return r


def measure(workload) -> dict:
    """Run item 0 once as a warm-up, then time one pass over every item,
    with a host-speed probe around every op."""
    from workloads import MIN_OPS

    reference: dict[int, str] = {}
    run_item(workload, 0, reference)
    probes = hostspeed.Recorder()
    workload.probe = probes.probe
    try:
        items = [run_item(workload, j, reference) for j in range(workload.n_items)]
    finally:
        workload.probe = None
    slowdown = [[probes.slowdown(t, t + x) for t, x in zip(r.starts, r.latencies)] for r in items]
    latencies = [x for r in items for x in r.latencies]
    slowdowns = [s for per_item in slowdown for s in per_item]
    scaled = [x / s for x, s in zip(latencies, slowdowns)]
    # Program time outside every op (a game's start-up) is scaled by the
    # item's median slowdown.
    wall = sum(r.wall for r in items)
    wall_scaled = sum(scaled) + sum(
        (r.wall - sum(r.latencies)) / statistics.median(s) for r, s in zip(items, slowdown)
    )
    measured = {"wall_s": wall, "op_ms.p50": 1e3 * statistics.median(latencies)}
    out = {
        "items": len(items),
        "attempted": len(latencies),
        "failed": sum(sum(r.failed) for r in items),
        "digest": hashlib.sha256("".join(r.digest for r in items).encode()).hexdigest(),
        "slowdown": statistics.median(slowdowns),
        "wall_s": wall_scaled,
        "op_ms.p50": 1e3 * statistics.median(scaled),
        "consensus_solves": sum(r.consensus_solves for r in items),
        "agreed": sum(r.agreed for r in items),
        "exact": None,
        "exact_base": 0,
        "notes": workload.notes() if hasattr(workload, "notes") else [],
    }
    if hasattr(workload, "exactness"):
        out["exact"], out["exact_base"] = workload.exactness()
    if len(latencies) >= MIN_OPS:
        measured["op_ms.tail"] = 1e3 * tail(latencies)[0]
        value, pct = tail(scaled)
        out["op_ms.tail"] = 1e3 * value
        out["tail_percentile"] = pct
    out["measured"] = measured
    return out


def measure_traced(workload, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced passes over the first quarter of the
    items until --seconds are up; per-layer figures come from the traced
    passes, the tracing overhead from the difference of the two."""
    from tracer import Tracer

    subset = range(max(1, workload.n_items // 4))
    untraced, traced, summaries, spans_json = [], [], [], None
    reference: dict[int, str] = {}
    failed = attempted = 0
    start = time.perf_counter()
    while True:
        plain = [run_item(workload, j, reference) for j in subset]
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            seen = [run_item(workload, j, reference) for j in subset]
        finally:
            tracer.uninstall()
            workload.tracer = None
        untraced.append(sum(r.wall for r in plain))
        traced.append(sum(r.wall for r in seen))
        summaries.append(tracer.summary())
        # Keep the first pass's spans as one string: live span objects would
        # make every later garbage collection, and so every later pass, slower.
        spans_json = spans_json or json.dumps(tracer.spans)
        del tracer
        for r in plain + seen:
            failed += sum(r.failed)
            attempted += len(r.failed)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_MEASURE_S:
            break
    layers = {}
    for key in summaries[0]:
        values = [s.get(key, 0.0) for s in summaries]
        timed = key.endswith("_s") or key.endswith(".s")
        if not timed and len(set(values)) != 1:  # counts must repeat exactly
            failed += 1
        layers[key] = statistics.median(values) if timed else values[0]
    layers["trace.untraced_wall_s"] = statistics.median(untraced)
    layers["trace.traced_wall_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
    layers["solvers.consensus_solves"] = sum(r.consensus_solves for r in seen)
    layers["solvers.agreed_solves"] = sum(r.agreed for r in seen)
    fields = ["name", "start", "end", "parent", "op", "oracle_s", "leaf_oracle_calls"]
    trace_path.write_text(
        f'{{"layers": {json.dumps(layers)}, "span_fields": {json.dumps(fields)}, "spans": {spans_json}}}'
    )
    return {"passes": len(traced), "items": len(subset), "attempted": attempted, "failed": failed,
            "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--probe", action="store_true", help="set up only")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)

    import_latmin()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, work, args.seed, args.seconds, args.smoke)
        workload.setup()
        setup_s = time.monotonic() - args.t0
        if args.probe:
            result = {"setup_s": setup_s}
        elif args.trace:
            trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.json"
            result = measure_traced(workload, args.seconds, trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            result = measure(workload)
            result["setup_s"] = setup_s
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
