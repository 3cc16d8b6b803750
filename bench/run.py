"""latmin benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload fig3 --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Workloads: fig3, swarm8, population, audit (see bench/NOTES.md).  With
--trace 0 the run prints the end-to-end metrics: set-up time (median of
several set-ups, each in a fresh process), program time of one pass over
the seed's inputs (--seconds fixes how many there are), median and tail
op latency, and peak resident memory.
With --trace 1 it prints per-layer metrics from a separate traced run.
Either way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --smoke runs every
workload at a tiny size in both modes and checks the metric names, units
and that no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fig3", "swarm8", "population", "audit")

# Set-ups per run: this many set-up-only processes plus the measured one.
SETUP_PROBES = 4
# Set-up is mostly interpreter start-up and imports, which the host's slow
# spells stretch differently from interpreted code (see hostspeed.py).  So
# each set-up is scaled by a reference start-up timed right before it: a
# fresh interpreter that imports numpy and yaml and exits.  This is its
# median time on the reference host.
REFERENCE_STARTUP_S = 0.2
SINGLE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                      "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
PROBE_TIMEOUT_S = 5
RUN_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "lattice.oracle.calls": "count",
    "lattice.oracle.distinct": "count",
    "lattice.oracle.distinct_ratio": "ratio",
    "lattice.oracle.self_s": "s",
    "lattice.cross_difference.calls": "count",
    "extension.greedy_extension.calls": "count",
    "extension.theta.calls": "count",
    "projection.project_product.calls": "count",
    "solvers.mix_profiles.calls": "count",
    "solvers.trace_oracle_calls": "count",
    "solvers.agreed_solves": "count",
    "trace.layer_self_s": "s",
    "trace.overhead_s": "s",
}
# Printed by a traced run in addition to PER_LAYER (and kept in its trace file).
LAYER_REPORT = (
    "lattice.check_submodular.s",
    "lattice.brute_force_minimize.s",
    "extension.greedy_extension.self_s",
    "extension.theta.s",
    "projection.project_product.s",
    "solvers.mix_profiles.s",
    "solvers.distributed_minimize.self_s",
    "solvers.centralized_minimize.self_s",
    "solvers.consensus_solves",
    "ctf.step_setup.s",
    "ctf.attacker_policy.s",
    "ctf.run_game.self_s",
    "scenario.load_scenario.s",
    "cli.write_csv.s",
    "trace.untraced_wall_s",
    "trace.traced_wall_s",
    "trace.spans",
)


class BenchError(RuntimeError):
    pass


def worker(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args, "--t0", repr(t0)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    return json.loads(lines[-1])


def startup_slowdown() -> float:
    """Time of the reference start-up now, over its reference time."""
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", "import numpy, yaml"], env={**os.environ, **SINGLE_THREAD},
                       check=True, timeout=PROBE_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"reference start-up failed: {exc}") from exc
    return (time.monotonic() - t0) / REFERENCE_STARTUP_S


def setup(base: list[str], measured: bool) -> tuple[float, float, dict]:
    """One set-up in a fresh worker: (scaled set-up time, measured set-up
    time, the worker's result)."""
    slowdown = startup_slowdown()
    res = worker(base if measured else base + ["--probe"], RUN_TIMEOUT_S if measured else PROBE_TIMEOUT_S)
    return res["setup_s"] / slowdown, res["setup_s"], res


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        base.append("--smoke")
    if trace:
        res = worker(base + ["--trace", "1"], RUN_TIMEOUT_S)
        layers = res["layers"]
        print(f"{workload} seed {seed} traced: {res['passes']} traced passes of the first "
              f"{res['items']} items, {res['attempted']} ops, {res['failed']} failed, "
              f"spans in {res['trace_file']}")
        for key in list(PER_LAYER) + [k for k in LAYER_REPORT if k in layers]:
            print(f"  {key:40s} {layers.get(key, 0.0):.6g}")
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
        return {"correct": res["failed"] == 0, "attempted": res["attempted"],
                "failed": res["failed"], "metrics": metrics}

    setups = [setup(base, measured=False) for _ in range(SETUP_PROBES)] + [setup(base, measured=True)]
    res = setups[-1][2]
    if "op_ms.tail" not in res:
        raise BenchError(f"only {res['attempted']} ops; the tail needs at least 20")
    res["setup_s"] = statistics.median(s[0] for s in setups)
    n, bad = res["attempted"], res["failed"]
    print(f"{workload} seed {seed}: {res['items']} items, {n} ops, "
          f"failed {bad}/{n} (failed_fraction {bad / n:.4g})")
    print(f"  setup_s      {res['setup_s']:.4f} s   (median of {len(setups)} set-ups, "
          f"each scaled by its reference start-up)")
    print(f"  wall_s       {res['wall_s']:.4f} s   (program time over all items)")
    print(f"  op_ms.p50    {res['op_ms.p50']:.3f} ms")
    print(f"  op_ms.tail   {res['op_ms.tail']:.3f} ms  (p{res['tail_percentile']:.1f} of {n} ops)")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MiB")
    m = res["measured"]
    print(f"  host slowdown {res['slowdown']:.4f}  (median over ops; the times above are "
          f"measured times divided by each op's slowdown, see hostspeed.py)")
    print(f"  measured     setup_s {statistics.median(s[1] for s in setups):.4f} s, wall_s {m['wall_s']:.4f} s, "
          f"op_ms.p50 {m['op_ms.p50']:.3f} ms, op_ms.tail {m['op_ms.tail']:.3f} ms")
    if res["consensus_solves"]:
        print(f"  agree_fraction {res['agreed'] / res['consensus_solves']:.4f} "
              f"({res['agreed']}/{res['consensus_solves']} consensus solves, reported, not gated)")
    if res["exact"] is not None:
        print(f"  exact_fraction {res['exact'] / res['exact_base']:.4f} "
              f"({res['exact']}/{res['exact_base']} solves, reported, not gated)")
    for note in res["notes"]:
        print(f"  {note}")
    print(f"  output digest {res['digest']}")
    metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": bad == 0, "attempted": n, "failed": bad, "metrics": metrics}


def smoke() -> int:
    """Every workload, tiny, in both modes: names, units, no failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out = run(workload, 1, 0.01, trace, smoke=True)
            for m in listed:
                got = out["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}: metric {m['name']} missing or not in {m['unit']}")
            if out["failed"] or len(out["metrics"]) != len(listed):
                problems.append(f"{workload} trace={trace}: {out['failed']} failed ops, "
                                f"{len(out['metrics'])} metrics")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
