"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public functions of the latmin modules (every module
attribute that names the original function is swapped, so calls made
through `from .x import f` bindings are seen too) and records one span per
call: name, start, end, parent span and op id.  Oracle evaluations are far
too many for a span each; their count and time are aggregated into the
innermost open span instead.  Everything stays in memory; the worker reads
`summary()` and `spans` and writes them out when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

from latmin import lattice

# (module, function) pairs whose calls become spans.  Low-level helpers such
# as ctf.manhattan run inside oracle evaluations and are not wrapped.
TRACED = {
    "lattice": ("check_submodular", "brute_force_minimize", "cross_difference"),
    "extension": ("greedy_extension", "theta"),
    "projection": ("project_product",),
    "solvers": ("mix_profiles", "distributed_minimize", "centralized_minimize"),
    "ctf": (
        "predict_attackers",
        "threat_distance",
        "adaptive_alpha",
        "attacker_pursuit_weights",
        "avoidance_planes",
        "build_step_problem",
        "attacker_policy",
        "run_game",
    ),
    "scenario": ("load_scenario",),
    "cli": ("main", "write_trajectories", "write_events"),
}

STEP_SETUP = tuple(
    f"ctf.{name}"
    for name in (
        "predict_attackers",
        "threat_distance",
        "adaptive_alpha",
        "attacker_pursuit_weights",
        "avoidance_planes",
        "build_step_problem",
    )
)
SOLVER_LOOPS = ("solvers.distributed_minimize", "solvers.centralized_minimize")

# Span record layout (a list, for cheap in-place updates).
NAME, START, END, PARENT, OP, ORACLE_S, LEAF_CALLS = range(7)


class Tracer:
    """Span recorder installed around latmin's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        # Oracle work done outside any span (e.g. directly by the benchmark).
        self._root = ["(root)", 0.0, 0.0, -1, -1, 0.0, 0]
        self._oracle_depth = 0
        self._had_child = False
        self._distinct: set = set()
        self._oracles: dict[int, object] = {}  # keeps ids unique while tracing
        self._patched: list[tuple[object, str, object]] = []
        self._oracle_call = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "latmin"]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"latmin.{mod_name}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span_wrapper(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        self._oracle_call = lattice.Oracle.__call__
        lattice.Oracle.__call__ = self._oracle_wrapper(self._oracle_call)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        if self._oracle_call is not None:
            lattice.Oracle.__call__ = self._oracle_call
            self._oracle_call = None
        self._oracles.clear()

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def _oracle_wrapper(self, call):
        spans, stack = self.spans, self._stack

        def traced_call(oracle, point):
            depth = self._oracle_depth
            enclosing_flag = self._had_child
            self._had_child = False
            self._oracle_depth = depth + 1
            t0 = perf_counter()
            try:
                return call(oracle, point)
            finally:
                dt = perf_counter() - t0
                self._oracle_depth = depth
                span = spans[stack[-1]] if stack else self._root
                if not self._had_child:
                    # A leaf cost: it evaluated no other oracle.
                    span[LEAF_CALLS] += 1
                    self._oracles[id(oracle)] = oracle
                    self._distinct.add((id(oracle), tuple(point)))
                if depth == 0:
                    span[ORACLE_S] += dt
                # A composite oracle (e.g. a summed cost) learns it had a child.
                self._had_child = True if depth > 0 else enclosing_flag

        return traced_call

    # -- reading -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer calls, inclusive time and self time, plus oracle totals."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        leaf_calls = self._root[LEAF_CALLS]
        oracle_s = self._root[ORACLE_S]
        layer_self = 0.0
        for i, span in enumerate(spans):
            name = span[NAME]
            total = span[END] - span[START]
            own = total - child_s[i] - span[ORACLE_S]
            add(f"{name}.calls", 1)
            add(f"{name}.s", total)
            add(f"{name}.self_s", own)
            layer_self += own
            leaf_calls += span[LEAF_CALLS]
            oracle_s += span[ORACLE_S]
            if name in SOLVER_LOOPS:
                add("solvers.trace_oracle_calls", span[LEAF_CALLS])
            if name in STEP_SETUP:
                add("ctf.step_setup.s", total)
            if name in ("cli.write_trajectories", "cli.write_events"):
                add("cli.write_csv.s", total)
        distinct = len(self._distinct)
        out["lattice.oracle.calls"] = leaf_calls
        out["lattice.oracle.distinct"] = distinct
        out["lattice.oracle.distinct_ratio"] = distinct / leaf_calls if leaf_calls else 0.0
        out["lattice.oracle.self_s"] = oracle_s
        out["trace.layer_self_s"] = layer_self
        out["trace.spans"] = len(spans)
        return out
