"""Projected-subgradient minimization via the continuous extension.

Distributed: N agents each hold one term of the total cost and a local
estimate of the shared profile; every synchronous round they mix neighbor
estimates with doubly-stochastic weights, step along their own local
subgradient, and project.  All agents round at the same shared threshold
so they agree whenever the minimizer is unique.  Centralized is the
one-agent case: iterate project(rho - gamma_k * subgrad) and round once at
the end.  The trace's bookkeeping is paid once per solve where it can be:
each round's rounded points are read off the projected rows as point
numbers and each distinct number is priced once per solve, and the
disagreement is computed in one batch after the last round.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .extension import (
    Profile,
    _descending,
    _walk,
    check_row,
    point_of_number,
    rounding_rule,
    uniform_random_profile,
)
from .lattice import ChainProduct, Oracle, _require_oracle_space
from .projection import project_row

STOCHASTIC_TOL = 1e-9

# The most floats one batch of the disagreement's pairwise differences
# holds, so its temporaries stay small next to the kept state.
_DISAGREEMENT_BATCH = 1 << 12


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed: need a non-negative integer, got {self.seed!r}")


def step_size(k: int, params: SolverParams) -> float:
    """Step length for round k (1-based)."""
    if k < 1:
        raise ValueError("round index starts at 1")
    if params.schedule == "constant":
        return params.gamma
    return params.gamma / math.sqrt(k)


@dataclass
class SolveTrace:
    """Per-round diagnostics, recorded for inspection only.

    Row k of `ext_values` holds each agent's extension value where it walked
    in round k + 1; `disagreement[k]` is the largest Euclidean distance
    between two agents' profiles after that round (0 for one agent); and
    `best_rounded[k]` is the lowest total cost of any point an agent has
    rounded to in the rounds up to it.
    """

    ext_values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    disagreement: np.ndarray = field(default_factory=lambda: np.zeros(0))
    best_rounded: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _mixing_plan(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero off-diagonal weight as (agent, neighbor, weight), row by row in neighbor order."""
    agents, neighbors, ws = [], [], []
    for i, row in enumerate(weights.tolist()):
        for j, w in enumerate(row):
            if j != i and w != 0.0:
                agents.append(i)
                neighbors.append(j)
                ws.append(w)
    return np.array(agents, dtype=np.intp), np.array(neighbors, dtype=np.intp), np.array(ws)[:, None]


def _mix(state: np.ndarray, plan) -> np.ndarray:
    """`mix_profiles` with the corrections `_mixing_plan` listed."""
    own, neighbors, ws = plan
    mixed = state.copy()
    if len(own):
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


def _disagreement_trace(history: np.ndarray) -> np.ndarray:
    """Per round, the largest Euclidean distance between two agents' rows of
    `history`, an (iterations, n_agents, r) array of every round's state.

    sqrt is monotone and `np.vecdot` of a float vector with itself gives
    the bytes of BLAS `d.dot(d)`, which `np.linalg.norm` takes too, so each
    entry equals the largest pairwise norm bit for bit.  Rounds go in
    batches of at most `_DISAGREEMENT_BATCH` differences.  One agent has no
    pairs and keeps zeros.
    """
    iterations, n_agents, r = history.shape
    disagreement = np.zeros(iterations)
    first, second = np.triu_indices(n_agents, 1)
    if len(first):
        step = max(1, _DISAGREEMENT_BATCH // (len(first) * r))
        for start in range(0, iterations, step):
            rounds = history[start : start + step]
            d = rounds[:, first] - rounds[:, second]
            disagreement[start : start + step] = np.sqrt(np.vecdot(d, d).max(axis=1))
    return disagreement


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
    round cannot matter.  A round mixes the whole (n_agents, r) state in
    numpy and turns it into lists once; every mixed row is checked, then
    each agent in turn walks its extension, steps and projects its own
    row, and reads the number of the point that row rounds to at the
    shared threshold (`extension.rounding_rule`).  The new rows become the
    state array once more, kept per round; the whole disagreement trace is
    computed from it after the last round.  The points a round's agents
    round to are priced in agent order, each number once per solve, so
    `best_rounded` costs a dict lookup per agent and round.  Each agent
    returns its last round's point; the value reported for an agent is the
    *total* cost of that point.

    Returns (points, values, trace): per-agent rounded lattice points, their
    total-cost values, and the per-round trace.  Every oracle must be
    defined on `space`.

    Each agent's oracle is evaluated at most once per distinct lattice
    point during one solve, so afterwards its `calls` counts distinct
    evaluations: the walks and the rounded points' total costs read one
    dict of values per agent, dropped on return.  Keeping every round's
    state costs 8 * iterations * n_agents * r bytes for the solve.
    """
    a = matrix.entries
    n_agents = len(oracles)
    if a.shape != (n_agents, n_agents):
        raise ValueError(
            f"matrix shape {a.shape} does not match {n_agents} agents"
        )
    for f in oracles:
        _require_oracle_space(f, space)
    starts = [uniform_random_profile(space, params.seed)] * n_agents if initial is None else initial
    if len(starts) != n_agents:
        raise ValueError("need one initial profile per agent")
    for p in starts:
        p.validate(space)
    # Row i is agent i's profile.
    state = np.array([p.values for p in starts])
    plan = _mixing_plan(a)
    # Agent i's oracle values by point number, as `_walk` keys them.
    memos = [{} for _ in oracles]

    def total_cost(number) -> float:
        point = point_of_number(space, number)
        costs = []
        for f, memo in zip(oracles, memos):
            if number not in memo:
                memo[number] = f(point)
            costs.append(memo[number])
        # A lone agent's cost as is: sum() would turn its -0.0 into 0.0.
        return sum(costs) if n_agents > 1 else costs[0]

    ext_values = np.zeros((params.iterations, n_agents))
    best_rounded = np.zeros(params.iterations)
    best = math.inf
    top = space.top()
    number_of = rounding_rule(space, params.t_hat)
    # Total costs by point number, each priced when an agent first rounds to it.
    totals = {}
    # Round k's projected rows are history[k - 1].
    history = np.empty((params.iterations, n_agents, space.sort_length))

    for k in range(1, params.iterations + 1):
        gamma_k = step_size(k, params)
        mixed = _mix(state, plan).tolist()
        for row in mixed:
            check_row(row, space)
        rows, values, numbers = [], [], []
        for f, memo, row in zip(oracles, memos, mixed):
            value, subgradient = _walk(f, memo, space, row, _descending(row), top)
            values.append(value)
            projected = project_row([m - gamma_k * g for m, g in zip(row, subgradient)], space)
            rows.append(projected)
            numbers.append(number_of(projected))
        ext_values[k - 1] = values
        state = history[k - 1]
        state[:] = rows
        # A point priced before is in `best` already: min() would keep `best`.
        for number in numbers:
            if number not in totals:
                total = totals[number] = total_cost(number)
                best = min(best, total)
        best_rounded[k - 1] = best

    points = [point_of_number(space, number) for number in numbers]
    values = [totals[number] for number in numbers]
    trace = SolveTrace(
        ext_values=ext_values, disagreement=_disagreement_trace(history), best_rounded=best_rounded
    )
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
