"""Command-line surface: check, solve, simulate.

Exit status contract: 0 success (or submodularity confirmed), 1 domain
failure (a violation was found), 2 usage, parse, or validation errors.
The commands raise, and `main` alone maps a failure to its stderr message
and exit code.  All file outputs use fixed column orders and C-locale
decimal points, and are byte-stable for a given scenario and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .ctf import GameResult, first_step_problem, run_game
from .lattice import CapExceededError, Oracle, _left_sum, brute_force_minimize, check_submodular
from .scenario import Problem, Scenario, ScenarioError, ScenarioParseError, load_scenario
from .solvers import centralized_minimize, distributed_minimize

OK, VIOLATION, USAGE = 0, 1, 2

# Pixels per arena cell in `arena.svg`.
SVG_CELL = 24


class _Refusal(Exception):
    """A command declines its input; `main` prints `<command>: <cause>`."""


def _fmt(v) -> str:
    return format(float(v), ".12g")


def _total(oracles, space) -> Oracle:
    """The total cost: the oracles' values, added left to right."""
    return Oracle(lambda x: _left_sum(f(x) for f in oracles), space)


def _run_input(args, kind: type, name: str, need_network: bool = False):
    """The run's record: the loaded file, which must be a `kind` record
    (`kind: name`), with a network block if `need_network`, and with
    `--seed-override` and `--iters-override` applied."""
    record = load_scenario(args.path)
    if not isinstance(record, kind):
        raise _Refusal(f"expected a {name} file (kind: {name})")
    if need_network and record.network is None:
        raise _Refusal("distributed mode needs a network block")
    changes = {}
    if args.seed_override is not None:
        changes["seed"] = args.seed_override
    if args.iters_override is not None:
        changes["solver"] = dataclasses.replace(record.solver, iterations=args.iters_override)
    return dataclasses.replace(record, **changes)


def _out_dir(args, names) -> Path:
    """The made `--out` directory: made after the run, so a refused run makes none.
    A path among `names`, the files the run writes there, that holds something
    other than a regular file, such as a directory, refuses the run before any is written."""
    out = Path(args.out)
    for name in names:
        if (out / name).exists() and not (out / name).is_file():
            raise _Refusal(f"cannot write output: {out / name} is not a regular file")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Refusal(f"cannot create output dir: {exc}") from exc
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One output file: the header, then the rows, through `csv.writer`."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_check(args) -> int:
    record = load_scenario(args.path)
    if isinstance(record, Problem):
        space = record.space()
        oracles = record.oracles()
    else:
        oracles, space = first_step_problem(record)

    total = _total(oracles, space)
    report = check_submodular(total, space)
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
    record = _run_input(args, Problem, "problem", need_network=args.mode == "distributed")
    space = record.space()
    oracles = record.oracles()
    if args.mode == "central":
        point, value, trace = centralized_minimize(_total(oracles, space), space, record.solver)
        points, values = [point], [value]
    else:
        points, values, trace = distributed_minimize(oracles, space, record.network, record.solver)
    # The trace prices its columns when read, and a cost error there refuses the run: read before `out`.
    ext_values, disagreement, best_rounded = trace.ext_values, trace.disagreement, trace.best_rounded

    out = _out_dir(args, ["solution.csv", "trace.csv"])
    _write_csv(out / "solution.csv", ["agent", "point", "value"], (
        [a, " ".join(str(c) for c in x), _fmt(v)] for a, (x, v) in enumerate(zip(points, values))
    ))
    _write_csv(out / "trace.csv", ["iter", "agent", "ext_value", "disagreement", "best_rounded"], (
        [k + 1, a, _fmt(ext), _fmt(disagreement[k]), _fmt(best_rounded[k])]
        for k, row in enumerate(ext_values)
        for a, ext in enumerate(row)
    ))
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


def render_svg(result: GameResult, arena) -> str:
    """Arena, zone, obstacles, and player trajectories as standalone SVG."""
    size = arena.size
    w = size * SVG_CELL

    def px(c):
        # Cell centers; y flipped so the zone at high y renders at the top.
        return (c[0] + 0.5) * SVG_CELL, (size - 1 - c[1] + 0.5) * SVG_CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w}" '
        f'viewBox="0 0 {w} {w}">',
        f'<rect width="{w}" height="{w}" fill="white"/>',
    ]
    for z in arena.zone:
        x, y = px(z)
        parts.append(
            f'<rect x="{x - SVG_CELL / 2:.1f}" y="{y - SVG_CELL / 2:.1f}" width="{SVG_CELL}" '
            f'height="{SVG_CELL}" fill="#cfe8ff"/>'
        )
    for i in range(size + 1):
        at = i * SVG_CELL
        parts.append(f'<line x1="0" y1="{at}" x2="{w}" y2="{at}" stroke="#eeeeee"/>')
        parts.append(f'<line x1="{at}" y1="0" x2="{at}" y2="{w}" stroke="#eeeeee"/>')
    for o in sorted(arena.obstacles):
        x, y = px(o)
        r = SVG_CELL * 0.3
        parts.append(
            f'<path d="M {x - r:.1f} {y - r:.1f} L {x + r:.1f} {y + r:.1f} '
            f'M {x - r:.1f} {y + r:.1f} L {x + r:.1f} {y - r:.1f}" '
            f'stroke="#333333" stroke-width="2"/>'
        )

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

    for i in range(len(result.final_defenders)):
        track = [rec.defenders[i] for rec in result.steps] + [result.final_defenders[i]]
        polyline(track, defender_colors[i % len(defender_colors)])
    for g in range(len(result.final_attackers)):
        track = [rec.attackers[g] for rec in result.steps] + [result.final_attackers[g]]
        polyline(track, attacker_colors[g % len(attacker_colors)])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_simulate(args) -> int:
    record = _run_input(args, Scenario, "game")
    result = run_game(record)
    out = _out_dir(args, ["trajectories.csv", "events.csv", *(["arena.svg"] if args.svg else [])])
    write_trajectories(out / "trajectories.csv", result)
    write_events(out / "events.csv", result)
    if args.svg:
        (out / "arena.svg").write_text(render_svg(result, record.arena))
    captures = sum(1 for e in result.events if e.kind == "capture")
    print(
        f"{len(result.steps)} steps, outcome {result.outcome}, "
        f"{captures} captures, {len(result.events)} events -> {out}"
    )
    return OK


def _seed(text: str) -> int:
    """A seed override: a non-negative integer, else a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seeds are non-negative integers, got {text!r}")
    return int(text)


def _iterations(text: str) -> int:
    """An iterations override: a positive integer, else a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"iterations are integers ≥ 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmin",
        description="Submodular minimization over chain products, and a grid game that runs on it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="exhaustively test a cost for submodularity")
    p_check.add_argument("path", help="problem or game file")
    p_check.set_defaults(run=cmd_check)

    # The input and output options that `solve` and `simulate` share.
    run_options = argparse.ArgumentParser(add_help=False)
    run_options.add_argument("path")
    run_options.add_argument("--out", default="out")
    run_options.add_argument("--seed-override", type=_seed, default=None)
    run_options.add_argument("--iters-override", type=_iterations, default=None)

    p_solve = sub.add_parser("solve", parents=[run_options], help="minimize a problem file")
    p_solve.add_argument("--mode", choices=["central", "distributed"], default="distributed")
    p_solve.set_defaults(run=cmd_solve)

    p_sim = sub.add_parser("simulate", parents=[run_options], help="run a game scenario")
    p_sim.add_argument("--svg", action="store_true", help="also render the arena SVG")
    p_sim.set_defaults(run=cmd_simulate)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes a stderr message and exit 2."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.run(args)
    # A CapExceededError is a ValueError, so it is caught first.
    except (_Refusal, CapExceededError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
    # numpy refuses an array it cannot allocate, such as a trace of 10**15 rounds.
    except MemoryError as exc:
        print(f"{args.command}: out of memory: {exc}", file=sys.stderr)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    # Reads fail as ScenarioParseError, so an OSError here is a write.
    except OSError as exc:
        print(f"{args.command}: cannot write output: {exc}", file=sys.stderr)
    return USAGE


if __name__ == "__main__":
    sys.exit(main())
