"""`latmin simulate`'s and `latmin solve`'s output bytes, pinned by digest.

The CSVs are byte-stable for a given scenario and seed, so a change that
only restructures the game leaves these digests as they are, and one that
moves a player, reorders an event or formats a float differently does not.
The inputs are the bundled fig3 game at its seed, at the bundled budget
and at 200 rounds, and an 8-defender game written out below, whose
defenders reach the top row, so moves off the grid are clamped, and whose
attackers are captured, freed and finally breach the zone. fig3's
`--svg` drawing is pinned too, and so are the `solution.csv` and
`trace.csv` of two problems in both solve modes: the README's, whose
consensus rounds mix in a generated mixer, and one whose rounds mix in numpy.
"""

import hashlib

import pytest

from latmin.cli import main
from latmin.scenario import bundled_scenario_path

EIGHT_DEFENDERS = """\
kind: game
seed: 11
arena:
  size: 20
  horizon: 24
  defense_zone: [[2, 19], [3, 19], [4, 19], [5, 19], [6, 19], [7, 19], [8, 19], [9, 19],
                 [10, 19], [11, 19], [12, 19], [13, 19], [14, 19], [15, 19], [16, 19], [17, 19]]
  responsibilities:
    - [[2, 19], [3, 19]]
    - [[4, 19], [5, 19]]
    - [[6, 19], [7, 19]]
    - [[8, 19], [9, 19]]
    - [[10, 19], [11, 19]]
    - [[12, 19], [13, 19]]
    - [[14, 19], [15, 19]]
    - [[16, 19], [17, 19]]
  obstacles: [[3, 15], [10, 16], [15, 14], [7, 9], [13, 6]]
players:
  u_max: 1
  defenders: [[2, 17], [4, 16], [6, 17], [8, 16], [10, 17], [12, 16], [14, 17], [16, 16]]
  attackers: [[1, 12], [5, 10], [10, 13], [14, 9], [18, 12]]
defenders:
  pursuit_gain: 20.0
  cohesion:
    - [0.0, 0.5, 0.1, 0.01, 0.01, 0.01, 0.01, 0.01]
    - [0.5, 0.0, 0.5, 0.1, 0.01, 0.01, 0.01, 0.01]
    - [0.1, 0.5, 0.0, 0.5, 0.1, 0.01, 0.01, 0.01]
    - [0.01, 0.1, 0.5, 0.0, 0.5, 0.0, 0.01, 0.01]
    - [0.01, 0.01, 0.1, 0.5, 0.0, 0.5, 0.1, 0.01]
    - [0.01, 0.01, 0.01, 0.1, 0.5, 0.0, 0.5, 0.1]
    - [0.01, 0.01, 0.01, 0.01, 0.1, 0.5, 0.0, 0.5]
    - [0.01, 0.01, 0.01, 0.01, 0.01, 0.1, 0.5, 0.0]
  mobility: [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
  zeta1: 200.0
  zeta2: 5.0
  alpha_f_nom: 0.9
  alpha_a_nom: 0.1
  beta: 0.7
  delta_th: 12
  distance: manhattan
attackers:
  eta_avoid_nom: 0.2
  eta_base_nom: 0.8
  delta_th: 4.0
  kappa: 0.9
network:
  eta: 0.1
  matrix:
    - [0.7, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    - [0.3, 0.4, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 0.3, 0.4, 0.3, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 0.3, 0.4, 0.3, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 0.3, 0.4, 0.3, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 0.3, 0.4, 0.3, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.4, 0.3]
    - [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.7]
solver:
  iterations: 20
  gamma: 0.1
  schedule: constant
  t_hat: 0.7
"""

# (trajectories.csv, events.csv) sha256 digests.
DIGESTS = {
    "fig3": (
        "2dd17cd6f32a293c45260f5161421888a51ba3f34ae6c5a497ace082fad2de49",
        "299f3a2b3a837e50bbbe02aa3483132ed4bbd75da5b0fa7b09c738ad9a5870f3",
    ),
    "fig3_200_rounds": (
        "acddacb511f75bed01505636f38fd256ccaf59f6019d93d447f8b4b7e6c1975d",
        "7adef04a433f2422edef489dae039e49d013532c9616658956f3cf024b8ec3e2",
    ),
    "eight_defenders": (
        "cd42fa0c4997a2fc02a3e800ea5a32bf0576bc7867cd36c5de13404f79dd74fd",
        "68b7a4a9edc09c91140c4f3525f05fc655c4c6b164acaac2ab789291453c832d",
    ),
}


@pytest.mark.parametrize("game", sorted(DIGESTS))
def test_simulate_writes_the_pinned_bytes(game, tmp_path, capsys):
    if game == "eight_defenders":
        path = tmp_path / "eight_defenders.cfg"
        path.write_text(EIGHT_DEFENDERS)
        extra = []
    else:
        path = bundled_scenario_path("paper_fig3.cfg")
        extra = ["--iters-override", "200"] if game == "fig3_200_rounds" else []
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out), *extra]) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("trajectories.csv", "events.csv")
    )
    assert digests == DIGESTS[game]


# arena.svg sha256 digest of the bundled fig3 game.
FIG3_SVG = "bc3fe19eb7b73082504d91572de017128e397fd0139d9aa275e92a4984098255"


def test_simulate_draws_the_pinned_svg(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(bundled_scenario_path("paper_fig3.cfg")), "--out", str(out), "--svg"]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / "arena.svg").read_bytes()).hexdigest() == FIG3_SVG


# The README's problem file. `latmin solve` is the one reader of a solve's trace.
README_PROBLEM = """\
kind: problem
seed: 3
dims: [3]
objectives:
  - {type: linear, coefficients: [1.0]}
  - {type: quadratic, centers: [2.0], weights: [1.0]}
network:
  eta: 0.1
  matrix:
    - [0.7, 0.3]
    - [0.3, 0.7]
solver:
  iterations: 4000
  gamma: 0.01
  schedule: diminishing
  t_hat: 0.7
"""

# (solution.csv, trace.csv) sha256 digests per --mode.
SOLVE_DIGESTS = {
    "central": (
        "7344171188cf60b879bbee45d1a4b9950d6754c50b92604605e8c38b3951e5e6",
        "6102e3ef48a77802a288638e07262ba5a5121d3a147e4a3d9ce82640732da342",
    ),
    "distributed": (
        "e939a958d206c72acc43251ac4a0d3480d6dcf6adfaf706551bcde2a1c4be13a",
        "dc43efb9348b572e40e8f50d0ec1d8a9234b2ac1474e788ff0d9a3ad14496603",
    ),
}


# 3 agents on a line at r = 48: 4 off-diagonal weights times r is 192 corrections,
# above the 128 a generated mixer takes, so the consensus rounds mix in numpy.
NUMPY_MIXING_PROBLEM = """\
kind: problem
seed: 5
dims: [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]
objectives:
  - {type: linear, coefficients: [1.0, -0.5, 0.25, -1.0, 0.5, -0.25, 0.75, -0.75, 1.5, -1.5, 0.1, -0.1]}
  - {type: quadratic, centers: [2.0, 1.0, 3.0, 0.0, 4.0, 2.0, 1.0, 3.0, 2.0, 0.0, 4.0, 1.0]}
  - {type: quadratic, centers: [1.0, 3.0, 2.0, 4.0, 0.0, 1.0, 2.0, 2.0, 3.0, 1.0, 0.0, 4.0],
     weights: [0.5, 1.0, 2.0, 0.5, 1.0, 2.0, 0.5, 1.0, 2.0, 0.5, 1.0, 2.0]}
network:
  eta: 0.1
  matrix:
    - [0.7, 0.3, 0.0]
    - [0.3, 0.4, 0.3]
    - [0.0, 0.3, 0.7]
solver:
  iterations: 300
  gamma: 0.05
  schedule: diminishing
  t_hat: 0.7
"""

NUMPY_MIXING_DIGESTS = {
    "central": (
        "2b1d345574fc528888d4ced4671f65637ad4c94ed46e8599b428b22795815200",
        "1cbcef209cf0d6b1d7e445086e64ceac6a93d65c9d2020a256bee701047277b6",
    ),
    "distributed": (
        "22cac0b00b5bec94f5cc1aa1ffdb535e73dee4374f4b235d97406c5f606b15ee",
        "9161db05ab04ba371c2cd4bfb4467b658f30126a4a2935869cc519db5fb48dbf",
    ),
}


def solve_digests(problem, mode, tmp_path, capsys):
    """`latmin solve`'s (solution.csv, trace.csv) sha256 digests on the problem file `problem`."""
    path = tmp_path / "problem.cfg"
    path.write_text(problem)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--mode", mode, "--out", str(out)]) == 0
    capsys.readouterr()
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("solution.csv", "trace.csv"))


@pytest.mark.parametrize("mode", sorted(SOLVE_DIGESTS))
def test_solve_writes_the_pinned_bytes(mode, tmp_path, capsys):
    assert solve_digests(README_PROBLEM, mode, tmp_path, capsys) == SOLVE_DIGESTS[mode]


@pytest.mark.parametrize("mode", sorted(NUMPY_MIXING_DIGESTS))
def test_solve_mixing_in_numpy_writes_the_pinned_bytes(mode, tmp_path, capsys):
    assert solve_digests(NUMPY_MIXING_PROBLEM, mode, tmp_path, capsys) == NUMPY_MIXING_DIGESTS[mode]
