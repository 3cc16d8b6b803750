"""`latmin simulate`'s output bytes, pinned by digest.

The CSVs are byte-stable for a given scenario and seed, so a change that
only restructures the game leaves these digests as they are, and one that
moves a player, reorders an event or formats a float differently does not.
The inputs are the bundled fig3 game at its seed, at the bundled budget
and at 200 rounds, and an 8-defender game written out below, whose
defenders reach the top row, so moves off the grid are clamped, and whose
attackers are captured, freed and finally breach the zone. fig3's
`--svg` drawing is pinned too.
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
