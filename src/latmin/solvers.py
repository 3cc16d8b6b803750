"""Projected-subgradient minimization via the continuous extension.

Distributed: N agents each hold one term of the total cost and a local
estimate of the shared profile; every synchronous round they mix neighbor
estimates with doubly-stochastic weights, step along their own local
subgradient, and project.  All agents round at the same shared threshold
so they agree whenever the minimizer is unique.  Centralized is the
one-agent case: iterate project(rho - gamma_k * subgrad) and round once at
the end.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .extension import Profile, check_rows, extend_rows, round_rows, uniform_random_profile
from .lattice import ChainProduct, Oracle
from .projection import project_rows

STOCHASTIC_TOL = 1e-9


@dataclass
class MatrixReport:
    """Pass/fail per condition on a consensus weight matrix."""

    strongly_connected: bool
    diagonal_at_least_eta: bool
    edges_at_least_eta: bool
    doubly_stochastic: bool

    @property
    def ok(self) -> bool:
        return (
            self.strongly_connected
            and self.diagonal_at_least_eta
            and self.edges_at_least_eta
            and self.doubly_stochastic
        )

    def failures(self) -> list[str]:
        out = []
        if not self.strongly_connected:
            out.append("condition 1: support graph is not strongly connected")
        if not self.diagonal_at_least_eta:
            out.append("condition 2: some self-weight is below eta")
        if not self.edges_at_least_eta:
            out.append("condition 3: some positive edge weight is below eta")
        if not self.doubly_stochastic:
            out.append("condition 4: matrix is not doubly stochastic")
        return out


def _strongly_connected(support: np.ndarray) -> bool:
    n = support.shape[0]
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(support[u]):
                if v not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        if len(seen) < n:
            return False
    return True


def validate_weight_matrix(matrix, eta: float) -> MatrixReport:
    """Check the four consensus conditions on a mixing matrix.

    1. strong connectivity of the support graph, 2. self-weights >= eta,
    3. positive neighbor weights >= eta, 4. rows and columns sum to 1.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix: must be square, got shape {a.shape}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta: must lie in (0,1), got {eta}")
    if np.any(a < 0):
        # Negative weights break every condition's premise; report them as
        # a doubly-stochastic failure rather than a separate channel.
        return MatrixReport(False, False, False, False)
    diag = np.diag(a)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    positive = a[a > 0]
    return MatrixReport(
        strongly_connected=_strongly_connected(off > 0),
        diagonal_at_least_eta=bool(np.all(diag >= eta)),
        edges_at_least_eta=bool(positive.size == 0 or np.all(positive >= eta)),
        doubly_stochastic=bool(
            np.all(np.abs(a.sum(axis=0) - 1.0) <= STOCHASTIC_TOL)
            and np.all(np.abs(a.sum(axis=1) - 1.0) <= STOCHASTIC_TOL)
        ),
    )


@dataclass
class WeightMatrix:
    """A consensus mixing matrix that has passed all four conditions; errors name the field."""

    entries: np.ndarray
    eta: float

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        report = validate_weight_matrix(self.entries, self.eta)
        if not report.ok:
            raise ValueError("matrix: " + "; ".join(report.failures()))

    def __eq__(self, other):
        return (
            isinstance(other, WeightMatrix)
            and self.eta == other.eta
            and np.array_equal(self.entries, other.entries)
        )

    @property
    def n_agents(self) -> int:
        return self.entries.shape[0]


@dataclass
class SolverParams:
    """Iteration budget, step schedule, rounding threshold, and seed."""

    iterations: int
    gamma: float
    schedule: str = "constant"  # or "diminishing": gamma / sqrt(k)
    t_hat: float = 0.7
    seed: int = 0

    def __post_init__(self):
        # Each message starts with the name of the offending field.
        if isinstance(self.iterations, bool) or not isinstance(self.iterations, numbers.Integral):
            raise ValueError(f"iterations: need an integer, got {self.iterations!r}")
        if self.iterations < 1:
            raise ValueError("iterations: ≥ 1 required")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma: step size must be positive and finite, got {self.gamma}")
        if self.schedule not in ("constant", "diminishing"):
            raise ValueError(f"schedule: unknown step schedule {self.schedule!r}")
        if not 0.0 < self.t_hat < 1.0:
            raise ValueError("t_hat: rounding threshold must be strictly inside (0,1)")


def step_size(k: int, params: SolverParams) -> float:
    """Step length for round k (1-based)."""
    if k < 1:
        raise ValueError("round index starts at 1")
    if params.schedule == "constant":
        return params.gamma
    return params.gamma / math.sqrt(k)


@dataclass
class SolveTrace:
    """Per-round diagnostics; rounded values are recorded for inspection only."""

    ext_values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    disagreement: np.ndarray = field(default_factory=lambda: np.zeros(0))
    best_rounded: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _mixing_plan(weights: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Every nonzero off-diagonal weight as (agent, neighbor, weight), row by row in neighbor order."""
    agents, neighbors, ws = [], [], []
    for i, row in enumerate(weights.tolist()):
        for j, w in enumerate(row):
            if j != i and w != 0.0:
                agents.append(i)
                neighbors.append(j)
                ws.append(w)
    return np.array(agents, dtype=np.intp), neighbors, np.array(ws)[:, None]


def _mix(state: np.ndarray, plan) -> np.ndarray:
    """`mix_profiles` with the corrections `_mixing_plan` listed."""
    own, neighbors, ws = plan
    mixed = state.copy()
    if neighbors:
        # np.add.at adds to a repeated row unbuffered, in index order.
        np.add.at(mixed, own, ws * (state[neighbors] - state[own]))
    return mixed


def mix_profiles(state: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every agent's weighted combination of the agents' flat profiles (the rows of `state`).

    Row i of the result mixes with row i of `weights`.  Computed in
    deviation form, own profile plus weighted corrections toward each
    neighbor, which is identical for a row summing to 1 and keeps agreeing
    agents agreeing bit-exactly.  A row receives only its neighbors'
    corrections, added one at a time in increasing neighbor index: a
    zero-weight term would turn its -0.0 into 0.0.  A solve builds the
    list of corrections once and mixes with it every round.
    """
    return _mix(state, _mixing_plan(weights))


def _disagreement(state: np.ndarray) -> float:
    """The largest Euclidean distance between two agents' profiles.

    sqrt is monotone and `np.linalg.norm` of a float vector is sqrt(d.dot(d)),
    so this equals the largest pairwise norm bit for bit.
    """
    squares = (d.dot(d) for d in (p - q for p, q in itertools.combinations(state, 2)))
    return math.sqrt(max(squares, default=0.0))


def distributed_minimize(
    oracles: list[Oracle],
    space: ChainProduct,
    matrix: WeightMatrix,
    params: SolverParams,
    initial: list[Profile] | None = None,
):
    """Consensus projected-subgradient minimization of sum_i f_i over the lattice.

    Exactness rests on every f_i being submodular (the relaxation is convex
    and tight exactly then); the checker in `lattice` can certify that at
    desk scale.  Every agent starts from the same seeded feasible profile (any feasible
    start is admissible; a shared one makes identical-cost runs exactly
    symmetric).  Rounds are synchronous and gather-then-update: all mixing
    reads use the previous round's profiles, so execution order within a
    round cannot matter.  A round works on the whole (n_agents, r) state:
    it mixes every row, checks every mixed row, walks each agent's
    extension, then projects, rounds and measures disagreement for all
    rows.  After the last round each agent rounds its profile at the shared
    threshold; the value reported for an agent is the *total* cost of its
    rounded point.

    Returns (points, values, trace): per-agent rounded lattice points, their
    total-cost values, and the per-round trace.

    Each agent's oracle is evaluated at most once per distinct lattice
    point during one solve, so afterwards its `calls` counts distinct
    evaluations: the walks and the rounded points' total costs read one
    dict of values per agent, dropped on return.
    """
    a = matrix.entries
    n_agents = len(oracles)
    if a.shape != (n_agents, n_agents):
        raise ValueError(
            f"matrix shape {a.shape} does not match {n_agents} agents"
        )
    starts = [uniform_random_profile(space, params.seed)] * n_agents if initial is None else initial
    if len(starts) != n_agents:
        raise ValueError("need one initial profile per agent")
    for p in starts:
        p.validate(space)
    # Row i is agent i's profile.
    state = np.array([p.values for p in starts])
    plan = _mixing_plan(a)
    # Agent i's oracle values by point number, as `extend_rows` keys them.
    memos = [{} for _ in oracles]

    def total_cost(point) -> float:
        code = sum(map(operator.mul, point, space.strides))
        costs = []
        for f, memo in zip(oracles, memos):
            if code not in memo:
                memo[code] = f(point)
            costs.append(memo[code])
        # A lone agent's cost as is: sum() would turn its -0.0 into 0.0.
        return sum(costs) if n_agents > 1 else costs[0]

    ext_values = np.zeros((params.iterations, n_agents))
    disagreement = np.zeros(params.iterations)
    best_rounded = np.zeros(params.iterations)
    best = math.inf

    for k in range(1, params.iterations + 1):
        gamma_k = step_size(k, params)
        mixed = _mix(state, plan)
        check_rows(mixed, space)
        ext_values[k - 1], subgradients = extend_rows(oracles, memos, mixed, space)
        state = project_rows(mixed - gamma_k * np.array(subgradients), space)
        disagreement[k - 1] = _disagreement(state)
        # Each distinct point once: min over a repeated total keeps `best`.
        for point in dict.fromkeys(round_rows(state, space, params.t_hat)):
            best = min(best, total_cost(point))
        best_rounded[k - 1] = best

    points = round_rows(state, space, params.t_hat)
    values = [total_cost(x) for x in points]
    trace = SolveTrace(ext_values=ext_values, disagreement=disagreement, best_rounded=best_rounded)
    return points, values, trace


def centralized_minimize(f: Oracle, space: ChainProduct, params: SolverParams):
    """Single-agent projected subgradient on the extension of f.

    The one-agent case of `distributed_minimize` (weight matrix [[1]]), so
    f is likewise evaluated once per distinct point.  Returns (point,
    value, trace) with the point rounded at t_hat after the final
    iteration.  Tight for submodular f, a heuristic otherwise.
    """
    points, values, trace = distributed_minimize([f], space, WeightMatrix([[1.0]], eta=0.5), params)
    return points[0], values[0], trace
