"""The `latmin` command-line contract: one table of cases, each run as a process.

A case runs in a new directory holding only its input, `given.cfg`, so its
messages name the file `given.cfg` and the output directory `out`.  It runs
through the `latmin` script installed with this interpreter when there is
one, else as `python -m latmin.cli`, on the `latmin` these tests import, and
a numpy RuntimeWarning fails it.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import latmin
from latmin.scenario import bundled_scenario_path

FIG3 = bundled_scenario_path("paper_fig3.cfg").read_bytes()
FIG3_CHECK = (
    "checked 81648 cross differences on (3, 3, 3, 3, 3, 3, 3, 3)\n"
    "submodular: yes\n"
    "minimum: 416.601545942 at 1 of 6561 points\n"
)
PROBLEM = b"""kind: problem
seed: 3
dims: [3, 4]
objectives:
  - {type: linear, coefficients: [1.0, -0.5]}
  - {type: quadratic, centers: [1.0, 2.0]}
solver: {iterations: 200, gamma: 0.1, schedule: diminishing}
"""
NETWORK = b"network: {eta: 0.1, matrix: [[0.7, 0.3], [0.3, 0.7]]}\n"


def problem(dims: list[int], objective: str) -> bytes:
    solver = "{iterations: 5, gamma: 0.1}"
    return f"kind: problem\nseed: 1\ndims: {dims}\nobjectives: [{objective}]\nsolver: {solver}\n".encode()


def fig3_with(old: bytes, new: bytes) -> bytes:
    assert FIG3.count(old) == 1, old
    return FIG3.replace(old, new)


@dataclass(frozen=True)
class Case:
    """One command line and all it must do: `stdout` is the whole of stdout,
    `stderr` its one line (a pattern matches it in full; empty, no stderr at
    all), and `files` the non-empty files under `out`, and no others (with
    none and nothing `made`, `out` must not exist).  `made` names the
    directories made before the run, which must stay, empty."""

    name: str
    argv: str
    given: bytes
    code: int
    stdout: str
    stderr: str | re.Pattern = ""
    files: tuple[str, ...] = ()
    env: dict = field(default_factory=dict)
    made: tuple[str, ...] = ()


UNDECODABLE = b"kind: problem\nseed: 1\xff\n"
# libyaml and the pure loader word the reason differently.
UNDECODABLE_LINE = re.compile(
    r"parse error: given\.cfg: not valid structured text: unacceptable character #x00ff: .+ at position 21"
)
OUT = ("solution.csv", "trace.csv")
# A value nested deeper than `repr` and a recursive check can go.
DEEP = b"[" * 3000 + b"1" + b"]" * 3000


def deep_line(field: str) -> re.Pattern:
    """The refusal of a list in `field` nested deeper than a message shows: the value is shown cut short."""
    return re.compile(re.escape(f"error: {field}: cannot read [[[[[[[...]]]]]]]: ") + r"int\(\) argument .+")


CASES = [
    Case("check-fig3", "check given.cfg", FIG3, 0, FIG3_CHECK),
    # Files are decoded by PyYAML, not by the locale.
    Case("check-fig3-utf8-comment-ascii-locale", "check given.cfg", "# step size γ ≥ 0\n".encode() + FIG3, 0,
         FIG3_CHECK, env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
    Case("simulate-fig3", "simulate given.cfg --out out", FIG3, 0,
         "40 steps, outcome defense, 2 captures, 4 events -> out\n", files=("events.csv", "trajectories.csv")),
    Case("solve-central", "solve given.cfg --mode central --out out", PROBLEM + NETWORK, 0,
         "agent 0: point (0, 2) value 0\n", files=OUT),
    Case("solve-distributed", "solve given.cfg --mode distributed --out out", PROBLEM + NETWORK, 0,
         "agent 0: point (0, 2) value 0\nagent 1: point (0, 2) value 0\n", files=OUT),
    # A refusal: exit 2, one stderr line, nothing on stdout and no `out`.
    Case("solve-game-file", "solve given.cfg --out out", FIG3, 2, "",
         "solve: expected a problem file (kind: problem)"),
    Case("simulate-problem-file", "simulate given.cfg --out out", PROBLEM + NETWORK, 2, "",
         "simulate: expected a game file (kind: game)"),
    # Distributed is the default mode.
    Case("solve-without-network", "solve given.cfg --out out", PROBLEM, 2, "",
         "solve: distributed mode needs a network block"),
    Case("check-above-the-cap", "check given.cfg", problem([2] * 21, "{type: product}"), 2, "",
         "check: submodularity check refused: 2097152 points exceeds the brute-force cap of 1000000"),
    Case("check-unparsable", "check given.cfg", b": : :\n", 2, "",
         "parse error: given.cfg: not valid structured text: while parsing a block mapping at "
         "line 1, column 1; did not find expected key at line 1, column 1"),
    Case("check-undecodable-byte", "check given.cfg", UNDECODABLE, 2, "", UNDECODABLE_LINE),
    Case("solve-central-undecodable-byte", "solve given.cfg --mode central --out out", UNDECODABLE, 2, "",
         UNDECODABLE_LINE),
    # Refused on the way: the run starts, and `out` is made only after it ends.
    Case("solve-central-linear-overflow", "solve given.cfg --mode central --out out",
         problem([3], "{type: linear, coefficients: [1.0e+308]}"), 2, "",
         "error: cost at (2,) is not finite: inf"),
    Case("solve-central-quadratic-overflow", "solve given.cfg --mode central --out out",
         problem([3], "{type: quadratic, centers: [1.0e+200]}"), 2, "",
         "error: cost at (0,) is not finite: overflow"),
    Case("solve-central-deeply-nested-seed", "solve given.cfg --mode central --out out",
         PROBLEM.replace(b"seed: 3", b"seed: " + DEEP), 2, "", deep_line("seed")),
    # A YAML alias makes a list that holds itself.
    Case("solve-central-self-holding-seed", "solve given.cfg --mode central --out out",
         PROBLEM.replace(b"seed: 3", b"seed: &a [*a]"), 2, "", deep_line("seed")),
    Case("check-deeply-nested-dims", "check given.cfg", PROBLEM.replace(b"dims: [3, 4]", b"dims: " + DEEP), 2, "",
         deep_line("dims")),
    # libyaml's loader would crash the process on this file (segmentation fault, exit 139).
    Case("check-nested-past-the-limit", "check given.cfg",
         PROBLEM.replace(b"seed: 3", b"seed: " + b"[" * 30000 + b"1" + b"]" * 30000), 2, "",
         "parse error: given.cfg: not valid structured text: nested deeper than 10000 levels at line 2, column 10006"),
    # A directory standing where an output file goes: refused before the first write, so no file is written.
    Case("solve-trace-path-is-a-directory", "solve given.cfg --out out", PROBLEM + NETWORK, 2, "",
         "solve: cannot write output: out/trace.csv is not a regular file", made=("out/trace.csv",)),
    Case("simulate-svg-path-is-a-directory", "simulate given.cfg --out out --svg", FIG3, 2, "",
         "simulate: cannot write output: out/arena.svg is not a regular file", made=("out/arena.svg",)),
    # numpy refuses the first round buffer, 8 * 10**15 * 2 agents * 5 coordinates bytes, before it touches a page.
    Case("solve-iterations-out-of-memory", "solve given.cfg --iters-override 1000000000000000 --out out",
         PROBLEM + NETWORK, 2, "", "solve: out of memory: Unable to allocate 71.1 PiB for an array with shape "
         "(1000000000000000, 2, 5) and data type float64"),
    Case("check-defender-delta-th-overflow", "check given.cfg",
         fig3_with(b"delta_th: 20\n", b"delta_th: 5000.0\n"), 2, "",
         "error: defenders.delta_th: beta * delta_th must be at most 709.782712893, got 3500"),
    Case("simulate-attacker-delta-th-overflow", "simulate given.cfg --out out",
         fig3_with(b"delta_th: 4.0\n", b"delta_th: 5000.0\n"), 2, "",
         "error: attackers.delta_th: kappa * delta_th must be at most 709.782712893, got 4500"),
    # A nominal weight of 1 whose switch boost exp(rate * (delta_th - gap)) underflows stays 1, never 0/0.
    Case("simulate-defender-switch-underflow", "simulate given.cfg --out out",
         fig3_with(b"alpha_f_nom: 0.9\n  alpha_a_nom: 0.1\n  beta: 0.7\n  delta_th: 20\n",
                   b"alpha_f_nom: 0.0\n  alpha_a_nom: 1.0\n  beta: 0.7\n  delta_th: -2000\n"), 0,
         "40 steps, outcome defense, 6 captures, 10 events -> out\n", files=("events.csv", "trajectories.csv")),
    Case("simulate-attacker-switch-underflow", "simulate given.cfg --out out",
         fig3_with(b"eta_avoid_nom: 0.7\n  eta_base_nom: 0.3\n  delta_th: 4.0\n",
                   b"eta_avoid_nom: 1.0\n  eta_base_nom: 0.0\n  delta_th: -2000.0\n"), 0,
         "40 steps, outcome defense, 0 captures, 0 events -> out\n", files=("events.csv", "trajectories.csv")),
    # A null is not a number: it is refused by name, never read as NaN.
    Case("check-defender-mobility-null", "check given.cfg",
         fig3_with(b"mobility: [1.0, 1.0, 1.0, 1.0]\n", b"mobility: null\n"), 2, "",
         "error: defenders.mobility: cannot read None: expected a number, got null"),
    Case("check-defender-mobility-null-entry", "check given.cfg",
         fig3_with(b"mobility: [1.0, 1.0, 1.0, 1.0]\n", b"mobility: [1.0, null, 1.0, 1.0]\n"), 2, "",
         "error: defenders.mobility: cannot read [1.0, None, 1.0, 1.0]: expected a number, got null"),
    Case("check-defender-delta-th-null", "check given.cfg", fig3_with(b"delta_th: 20\n", b"delta_th: null\n"), 2, "",
         "error: defenders.delta_th: cannot read None: expected a number, got null"),
    Case("simulate-network-matrix-null-entry", "simulate given.cfg --out out",
         fig3_with(b"- [0.7, 0.3, 0.0, 0.0]\n", b"- [0.7, null, 0.0, 0.0]\n"), 2, "",
         "error: network.matrix: cannot read [[0.7, None, 0.0, 0.0], [0.3, 0.6, 0.1, 0.0], [0.0, 0.1, 0.6, 0.3], "
         "[0.0, 0.0, 0.3, 0.7]]: expected a number, got null"),
]


def launcher() -> list[str]:
    """The `latmin` script installed with this interpreter, else the module."""
    script = shutil.which("latmin", path=sysconfig.get_path("scripts"))
    return [script] if script else [sys.executable, "-m", "latmin.cli"]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_the_command_line_contract(tmp_path, case):
    (tmp_path / "given.cfg").write_bytes(case.given)
    for name in case.made:
        (tmp_path / name).mkdir(parents=True)
    argv = [*launcher(), *case.argv.split()]
    env = {**os.environ, "PYTHONPATH": str(Path(latmin.__file__).parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning", **case.env}
    run = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=120)
    stdout, stderr = run.stdout.decode(), run.stderr.decode()
    where = f"{shlex.join(argv)}\nstderr: {stderr}"
    assert (run.returncode, stdout) == (case.code, case.stdout), where
    line = case.stderr.pattern if isinstance(case.stderr, re.Pattern) else re.escape(case.stderr)
    assert re.fullmatch(f"{line}\n" if line else "", stderr), where
    out = [f"out/{name}" for name in case.files]
    left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert left == sorted(["given.cfg", *(["out"] if out or case.made else []), *out, *case.made]), where
    assert all((tmp_path / name).stat().st_size > 0 for name in out), where
