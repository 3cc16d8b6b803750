"""Command-line surface: check, solve, simulate.

Exit status contract: 0 success (or submodularity confirmed), 1 domain
failure (a violation was found), 2 usage, parse, or validation errors.
All file outputs use fixed column orders and C-locale decimal points, and
are byte-stable for a given scenario and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .ctf import GameResult, first_step_problem, run_game
from .lattice import CapExceededError, Oracle, brute_force_minimize, check_submodular
from .scenario import Problem, Scenario, ScenarioError, ScenarioParseError, load_scenario
from .solvers import centralized_minimize, distributed_minimize

OK, VIOLATION, USAGE = 0, 1, 2


def _fmt(v) -> str:
    return format(float(v), ".12g")


def _overridden(record: Problem | Scenario, args) -> Problem | Scenario:
    """The loaded record with `--seed-override` and `--iters-override` applied."""
    changes = {}
    if args.seed_override is not None:
        changes["seed"] = args.seed_override
    if args.iters_override is not None:
        changes["solver"] = dataclasses.replace(record.solver, iterations=args.iters_override)
    return dataclasses.replace(record, **changes)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One output file: the header, then the rows, through `csv.writer`."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cannot_write(command: str, exc: OSError) -> int:
    """Report an output file that could not be opened for writing; the error names it."""
    print(f"{command}: cannot write output: {exc}", file=sys.stderr)
    return USAGE


def cmd_check(args) -> int:
    record = load_scenario(args.path)
    if isinstance(record, Problem):
        space = record.space()
        oracles = record.oracles()
    else:
        oracles, space = first_step_problem(record)

    total = Oracle(lambda x: sum(f(x) for f in oracles), space)
    try:
        report = check_submodular(total, space)
    except CapExceededError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return USAGE
    print(f"checked {report.points_checked} cross differences on {space.dims}")
    if report.is_submodular:
        print("submodular: yes")
    else:
        print(f"submodular: no ({len(report.violations)} violations)")
        for x, (i, j), value in report.violations[:20]:
            print(f"  violation at {x}, chains ({i},{j}): cross difference {_fmt(value)}")
    # The check's value table serves the minimum: no further evaluations.
    best, argmins = brute_force_minimize(total, space)
    print(f"minimum: {_fmt(best)} at {len(argmins)} of {space.cardinality} points")
    return OK if report.is_submodular else VIOLATION


def cmd_solve(args) -> int:
    record = load_scenario(args.path)
    if not isinstance(record, Problem):
        print("solve: expected a problem file (kind: problem)", file=sys.stderr)
        return USAGE
    record = _overridden(record, args)
    space = record.space()
    oracles = record.oracles()
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"solve: cannot create output dir: {exc}", file=sys.stderr)
        return USAGE

    if args.mode == "central":
        total = Oracle(lambda x: sum(f(x) for f in oracles), space)
        point, value, trace = centralized_minimize(total, space, record.solver)
        points, values = [point], [value]
    else:
        if record.network is None:
            print("solve: distributed mode needs a network block", file=sys.stderr)
            return USAGE
        points, values, trace = distributed_minimize(oracles, space, record.network, record.solver)

    try:
        _write_csv(out / "solution.csv", ["agent", "point", "value"], (
            [a, " ".join(str(c) for c in x), _fmt(v)] for a, (x, v) in enumerate(zip(points, values))
        ))
        _write_csv(out / "trace.csv", ["iter", "agent", "ext_value", "disagreement", "best_rounded"], (
            [k + 1, a, _fmt(ext), _fmt(trace.disagreement[k]), _fmt(trace.best_rounded[k])]
            for k, row in enumerate(trace.ext_values)
            for a, ext in enumerate(row)
        ))
    except OSError as exc:
        return _cannot_write("solve", exc)
    for a, (x, v) in enumerate(zip(points, values)):
        print(f"agent {a}: point ({', '.join(str(c) for c in x)}) value {_fmt(v)}")
    return OK


def write_trajectories(path: Path, result: GameResult) -> None:
    def rows(rec):
        for i, (x, y) in enumerate(rec.defenders):
            yield [rec.k, f"d{i}", "defender", x, y, _fmt(rec.alpha_a[i]), 0]
        for g, (x, y) in enumerate(rec.attackers):
            yield [rec.k, f"a{g}", "attacker", x, y, _fmt(rec.eta_avoid[g]), int(rec.captured[g])]

    _write_csv(path, ["k", "player_id", "team", "x", "y", "alpha_a", "captured"],
               (row for rec in result.steps for row in rows(rec)))


def write_events(path: Path, result: GameResult) -> None:
    _write_csv(path, ["k", "type", "subject", "detail"],
               ([e.k, e.kind, e.subject, e.detail] for e in result.events))


def render_svg(result: GameResult, arena, cell: int = 24) -> str:
    """Arena, zone, obstacles, and player trajectories as standalone SVG."""
    size = arena.size
    w = size * cell

    def px(c):
        # Cell centers; y flipped so the zone at high y renders at the top.
        return (c[0] + 0.5) * cell, (size - 1 - c[1] + 0.5) * cell

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w}" '
        f'viewBox="0 0 {w} {w}">',
        f'<rect width="{w}" height="{w}" fill="white"/>',
    ]
    for z in arena.zone:
        x, y = px(z)
        parts.append(
            f'<rect x="{x - cell / 2:.1f}" y="{y - cell / 2:.1f}" width="{cell}" '
            f'height="{cell}" fill="#cfe8ff"/>'
        )
    for i in range(size + 1):
        parts.append(f'<line x1="0" y1="{i * cell}" x2="{w}" y2="{i * cell}" stroke="#eeeeee"/>')
        parts.append(f'<line x1="{i * cell}" y1="0" x2="{i * cell}" y2="{w}" stroke="#eeeeee"/>')
    for o in sorted(arena.obstacles):
        x, y = px(o)
        r = cell * 0.3
        parts.append(
            f'<path d="M {x - r:.1f} {y - r:.1f} L {x + r:.1f} {y + r:.1f} '
            f'M {x - r:.1f} {y + r:.1f} L {x + r:.1f} {y - r:.1f}" '
            f'stroke="#333333" stroke-width="2"/>'
        )

    n_d = len(result.steps[0].defenders) if result.steps else 0
    n_a = len(result.steps[0].attackers) if result.steps else 0
    defender_colors = ["#1f77b4", "#17becf", "#2ca02c", "#9467bd", "#7f7f7f", "#8c564b"]
    attacker_colors = ["#d62728", "#ff7f0e", "#e377c2", "#bcbd22", "#aec7e8", "#ffbb78"]

    def polyline(track, color):
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in (px(c) for c in track))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-opacity="0.8"/>'
        )
        x0, y0 = px(track[0])
        x1, y1 = px(track[-1])
        parts.append(f'<circle cx="{x0:.1f}" cy="{y0:.1f}" r="4" fill="{color}"/>')
        parts.append(
            f'<rect x="{x1 - 4:.1f}" y="{y1 - 4:.1f}" width="8" height="8" fill="{color}"/>'
        )

    for i in range(n_d):
        track = [rec.defenders[i] for rec in result.steps] + [result.final_defenders[i]]
        polyline(track, defender_colors[i % len(defender_colors)])
    for g in range(n_a):
        track = [rec.attackers[g] for rec in result.steps] + [result.final_attackers[g]]
        polyline(track, attacker_colors[g % len(attacker_colors)])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_simulate(args) -> int:
    record = load_scenario(args.path)
    if not isinstance(record, Scenario):
        print("simulate: expected a game file (kind: game)", file=sys.stderr)
        return USAGE
    record = _overridden(record, args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"simulate: cannot create output dir: {exc}", file=sys.stderr)
        return USAGE

    result = run_game(record)
    try:
        write_trajectories(out / "trajectories.csv", result)
        write_events(out / "events.csv", result)
        if args.svg:
            (out / "arena.svg").write_text(render_svg(result, record.arena))
    except OSError as exc:
        return _cannot_write("simulate", exc)
    captures = sum(1 for e in result.events if e.kind == "capture")
    print(
        f"{len(result.steps)} steps, outcome {result.outcome}, "
        f"{captures} captures, {len(result.events)} events -> {out}"
    )
    return OK


def _seed(text: str) -> int:
    """A seed override: a non-negative integer, else a usage error."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"seeds are non-negative integers, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmin",
        description="Submodular minimization over chain products, and a grid game that runs on it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="exhaustively test a cost for submodularity")
    p_check.add_argument("path", help="problem or game file")

    p_solve = sub.add_parser("solve", help="minimize a problem file")
    p_solve.add_argument("path")
    p_solve.add_argument("--mode", choices=["central", "distributed"], default="distributed")
    p_solve.add_argument("--out", default="out")
    p_solve.add_argument("--seed-override", type=_seed, default=None)
    p_solve.add_argument("--iters-override", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="run a game scenario")
    p_sim.add_argument("path")
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--svg", action="store_true", help="also render the arena SVG")
    p_sim.add_argument("--seed-override", type=_seed, default=None)
    p_sim.add_argument("--iters-override", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_simulate(args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
