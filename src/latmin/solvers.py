"""Projected-subgradient minimization via the continuous extension.

Distributed: N agents each hold one term of the total cost and a local
estimate of the shared profile; every synchronous round they mix neighbor
estimates with doubly-stochastic weights, step along their own local
subgradient, and project.  All agents round at the same shared threshold
so they agree whenever the minimizer is unique.  Centralized is the
one-agent case: iterate project(rho - gamma_k * subgrad) and round once at
the end.  A round prices nothing for its trace: `SolveTrace` computes the
extension values, the disagreement and `best_rounded` from the solve's
logs when first read, so a caller that never reads them, as a game does
not, never pays for them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .extension import (
    _BATCH_FLOATS,
    Profile,
    _value,
    _walk,
    check_rows,
    uniform_random_profile,
)
from .lattice import ChainProduct, Oracle, _integer, _left_sum, _real, _require_oracle_space
from .projection import _kernel

STOCHASTIC_TOL = 1e-9


# Each condition's report field and the message its failure prints, in order.
_CONDITIONS = {
    "strongly_connected": "condition 1: support graph is not strongly connected",
    "diagonal_at_least_eta": "condition 2: some self-weight is below eta",
    "edges_at_least_eta": "condition 3: some positive edge weight is below eta",
    "doubly_stochastic": "condition 4: matrix is not doubly stochastic",
}


@dataclass
class MatrixReport:
    """Pass/fail per condition on a consensus weight matrix."""

    strongly_connected: bool
    diagonal_at_least_eta: bool
    edges_at_least_eta: bool
    doubly_stochastic: bool

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return [message for name, message in _CONDITIONS.items() if not getattr(self, name)]


def _strongly_connected(support: np.ndarray) -> bool:
    """Whether every agent reaches every other along `support`'s edges.  Each squaring of
    the reachability of `support | I` doubles the path length it covers, up to n - 1."""
    n = support.shape[0]
    reach = support | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def validate_weight_matrix(matrix, eta: float) -> MatrixReport:
    """Check the four consensus conditions on a mixing matrix.

    1. strong connectivity of the support graph, 2. self-weights >= eta,
    3. positive weights >= eta, 4. rows and columns sum to 1.  A matrix
    that is not square, has no agent, or has a negative or non-finite
    entry, raises a ValueError naming it.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix: must be square, got shape {a.shape}")
    if not len(a):
        raise ValueError("matrix: need at least one agent")
    if not (_real(eta) and 0.0 < eta < 1.0):
        raise ValueError(f"eta: must lie in (0,1), got {eta!r}")
    # Written as "inside" so that NaN entries count as outside.
    inside = (a >= 0.0) & (a < math.inf)
    if not inside.all():
        i, j = np.argwhere(~inside)[0].tolist()
        raise ValueError(
            f"matrix: entry ({i}, {j}) is {a[i, j].item()}; weights must be finite and non-negative"
        )
    support = a > 0
    return MatrixReport(
        strongly_connected=_strongly_connected(support),
        diagonal_at_least_eta=bool(np.all(np.diag(a) >= eta)),
        edges_at_least_eta=bool(np.all(a[support] >= eta)),
        doubly_stochastic=bool(
            np.all(np.abs(a.sum(axis=0) - 1.0) <= STOCHASTIC_TOL)
            and np.all(np.abs(a.sum(axis=1) - 1.0) <= STOCHASTIC_TOL)
        ),
    )


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """A consensus mixing matrix that has passed all four conditions, frozen and held as a
    read-only copy so that it stays as checked; errors name the field.  It compares by
    value and, like the array it holds, is unhashable."""

    entries: np.ndarray
    eta: float

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        report = validate_weight_matrix(self.entries, self.eta)
        if not report.ok:
            raise ValueError("matrix: " + "; ".join(report.failures()))
        object.__setattr__(self, "eta", float(self.eta))

    def __eq__(self, other):
        return (
            isinstance(other, WeightMatrix)
            and self.eta == other.eta
            and np.array_equal(self.entries, other.entries)
        )

    @property
    def n_agents(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The slot table `_slot_arrays` builds from `entries`, built on first use,
        kept for every later solve on this network and read-only."""
        table = _slot_arrays(self.entries)
        for array in table:
            array.flags.writeable = False
        return table


@cache
def _lone_agent() -> WeightMatrix:
    """The one-agent network of every central solve, checked on the first one and kept,
    its slot table with it; built on first use, so an import that solves nothing pays
    nothing for it."""
    return WeightMatrix([[1.0]], eta=0.5)


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
        if not _integer(self.iterations):
            raise ValueError(f"iterations: need an integer, got {self.iterations!r}")
        if self.iterations < 1:
            raise ValueError("iterations: ≥ 1 required")
        if not (_real(self.gamma) and 0 < self.gamma < math.inf):
            raise ValueError(f"gamma: step size must be positive and finite, got {self.gamma!r}")
        if self.schedule not in ("constant", "diminishing"):
            raise ValueError(f"schedule: unknown step schedule {self.schedule!r}")
        if not (_real(self.t_hat) and 0.0 < self.t_hat < 1.0):
            raise ValueError("t_hat: rounding threshold must be strictly inside (0,1)")
        if not (_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed: need a non-negative integer, got {self.seed!r}")
        # Python numbers, which a file can hold; a numpy float32 would make the solve single precision.
        self.iterations, self.seed = int(self.iterations), int(self.seed)
        self.gamma, self.t_hat = float(self.gamma), float(self.t_hat)


def _step_sizes(params: SolverParams) -> list[float]:
    """Every round's step size, in round order: gamma, or gamma / math.sqrt(k) in
    round k on the diminishing schedule.  numpy's square root is correctly rounded,
    as `math.sqrt` is, and the division stays Python's, so each size is that float."""
    gamma, n = params.gamma, params.iterations
    if params.schedule == "constant":
        return [gamma] * n
    return [gamma / root for root in np.sqrt(np.arange(1, n + 1)).tolist()]


class SolveTrace:
    """Per-round diagnostics of one solve, computed when first read.

    Row k of `ext_values` holds each agent's extension value where it walked
    in round k + 1; `disagreement[k]` is the largest Euclidean distance
    between two agents' profiles after that round (0 for one agent); and
    `best_rounded[k]` is the lowest total cost of any point an agent has
    rounded to in the rounds up to it.

    Built from the solve's log: its lattice, each agent's f(bottom), the
    (iterations, n_agents, r) buffers of mixed and of projected rows, each
    agent-round's walk (order, subgradient) in round then agent order, each
    round's rounded point numbers and the solve's `price`.  The first read
    of `ext_values` or `disagreement` computes both, with `_value` on each
    mixed row and `_disagreement_trace` on the projected ones.
    `best_rounded` is the running minimum of the prices in round then agent
    order; a non-finite cost met there raises, naming its point, on every
    read.  Each column drops the log it read once it is computed.
    """

    def __init__(self, space, bottoms, mixed, walks, projected, rounds, price):
        self._log = space, bottoms, mixed, walks, projected
        self._rounds = rounds, price

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        space, bottoms, mixed, walks, projected = self._log
        rows = mixed.reshape(-1, mixed.shape[2]).tolist()
        values = [
            _value(bottom, row, order, subgradient, space)
            for bottom, row, (order, subgradient) in zip(itertools.cycle(bottoms), rows, walks)
        ]
        columns = np.array(values).reshape(mixed.shape[:2]), _disagreement_trace(projected)
        del self._log
        return columns

    @property
    def ext_values(self) -> np.ndarray:
        return self._columns[0]

    @property
    def disagreement(self) -> np.ndarray:
        return self._columns[1]

    @cached_property
    def best_rounded(self) -> np.ndarray:
        rounds, price = self._rounds
        best, running = math.inf, []
        for rounded in rounds:
            for number in rounded:
                best = min(best, price(number))
            running.append(best)
        del self._rounds
        return np.array(running)


def _slot_arrays(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's nonzero off-diagonal weights as correction slots: slot s holds
    each agent's s-th neighbor, by increasing index, in an (S, n) neighbor array
    and its weight in an (S, n, 1) array, S the most neighbors any agent has.  An
    agent with fewer takes its own row at weight -0.0 there, since
    -0.0 * (x - x) = -0.0 and y + -0.0 = y, even for y = -0.0: an exact identity
    on finite rows.  A -0.0 weight is zero and gets no slot.
    """
    n = len(weights)
    edges = (weights != 0.0) & ~np.eye(n, dtype=bool)
    counts = edges.sum(axis=1)
    slots = np.arange(counts.max(initial=0))[:, None]
    # A stable sort of "not an edge" lists each agent's neighbors first, in index order.
    order = np.argsort(~edges, axis=1, kind="stable").T[: len(slots)]
    filled = slots < counts
    neighbors = np.where(filled, order, np.arange(n))
    ws = np.where(filled, weights[np.arange(n), order], -0.0)[:, :, None]
    return neighbors, ws


def _mix(state: np.ndarray, neighbors: np.ndarray, ws: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`mix_profiles` with the slot table `_slot_arrays` builds, written into `out` and returned:
    every slot's corrections in one array step, then added to `state` in slot order;
    a copy of `state` when there are none."""
    if not len(ws):
        out[:] = state
        return out
    corrections = ws * (state.take(neighbors, axis=0) - state)
    np.add(state, corrections[0], out=out)
    for s in range(1, len(corrections)):
        out += corrections[s]
    return out


def mix_profiles(state: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every agent's weighted combination of the agents' flat profiles (the rows of `state`).

    Row i of the result mixes with row i of `weights`.  Computed in
    deviation form, own profile plus weighted corrections toward each
    neighbor, which is identical for a row summing to 1 and keeps agreeing
    agents agreeing bit-exactly.  A row receives only its neighbors'
    corrections, added in increasing neighbor index: a zero-weight term
    would turn its -0.0 into 0.0.  The corrections come from the slot table
    of `_slot_arrays`, computed in one array step and added in slot order,
    each entry through the same operations in the same order as one
    neighbor at a time.  `state` and `weights` may be arrays or nested
    lists; the result is a new float array.
    """
    state = np.asarray(state, dtype=float)
    return _mix(state, *_slot_arrays(np.asarray(weights, dtype=float)), np.empty(state.shape))


def _disagreement_trace(history: np.ndarray) -> np.ndarray:
    """Per round, the largest Euclidean distance between two agents' rows of
    `history`, an (iterations, n_agents, r) array of every round's state.

    sqrt is monotone and `np.vecdot` of a float vector with itself gives
    the bytes of BLAS `d.dot(d)`, which `np.linalg.norm` takes too, so each
    entry equals the largest pairwise norm bit for bit.  Rounds go in
    batches of at most `_BATCH_FLOATS` differences.  One agent has no
    pairs and keeps zeros.
    """
    iterations, n_agents, r = history.shape
    disagreement = np.zeros(iterations)
    first, second = np.triu_indices(n_agents, 1)
    if len(first):
        step = max(1, _BATCH_FLOATS // (len(first) * r))
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
    desk scale.  Every agent starts from the same seeded profile, feasible
    by construction and so not checked (any feasible start is admissible;
    a shared one makes identical-cost runs exactly symmetric); each of a
    caller's `initial` profiles is checked in turn.  Rounds are synchronous
    and gather-then-update: all mixing reads use the previous round's
    profiles, so execution order within a round cannot matter.  In a round
    each agent walks its extension at its mixed row, then steps, projects
    and rounds the row in one call of the projection kernel of `space`'s
    shape.  The extension is linear on each sort order's cone, so an agent
    walks each order once per solve and steps along the kept subgradient
    when it meets the order again.

    Returns (points, values, trace): each agent's point rounded at t_hat in
    the last round, the *total* cost of each, and the per-round
    `SolveTrace`.  Every oracle must be defined on `space`.

    Each agent's oracle is asked for each distinct lattice point at most
    once per solve and its trace, so afterwards its `calls` counts distinct
    evaluations.  The solve asks for the walks' points, then the final
    points; a point only an earlier round rounded to is asked for when
    `best_rounded` is first read, where a non-finite cost raises.

    Memory: the mixed and the projected rows of every round, each 8 *
    iterations * n_agents * r bytes; per agent, at most one walk (the
    order's key and r floats) per round; and per agent-round, a reference
    to its walk and a point number.  The trace holds these and the value
    dicts until it is read or dropped.

    Every mixed row must pass `extension.check_rows`, the one row check.  It
    runs once over the buffer after the last round, or when anything raises
    during the rounds (an oracle, the walk or the projection); then the
    first infeasible row, by round then agent, raises its error.  A lone
    agent's mixed row is its previous projected row.  So a solve raises the
    same error as one that checked each round's rows before its walks,
    though an oracle may have been asked for more points by then.
    """
    n_agents = len(oracles)
    if matrix.entries.shape != (n_agents, n_agents):
        raise ValueError(f"matrix shape {matrix.entries.shape} does not match {n_agents} agents")
    for f in oracles:
        _require_oracle_space(f, space)
    if initial is None:
        # Feasible by construction, and shared: a seeded start is not checked.
        starts = [uniform_random_profile(space, params.seed)] * n_agents
    else:
        if len(initial) != n_agents:
            raise ValueError("need one initial profile per agent")
        for p in initial:
            p.validate(space)
        starts = initial
    # Row i is agent i's profile.
    state = np.array([p.values for p in starts])
    neighbors, ws = matrix._slots
    project = _kernel(space.dims)
    # Agent i's oracle values by point number, as `_walk` keys them.
    memos = [{} for _ in oracles]
    # Agent i's walks by sort order: the order and the subgradient.
    walks = [{} for _ in oracles]
    # Each agent-round's walk and rounded point number, in round then agent order, for the trace.
    log = []
    logged = log.append
    rounds = []
    t_hat = params.t_hat
    # Round k's projected rows are history[k - 1].
    history = np.empty((params.iterations, n_agents, space.sort_length))

    # Round k's mixed rows are kept[k - 1], checked once the loop ends however it ends:
    # a walk, oracle or projection failure may follow from a bad row, which outranks it.
    kept = np.empty_like(history)
    mixed_rounds = 0
    flat = range(space.sort_length)

    try:
        for k, gamma_k in enumerate(_step_sizes(params), 1):
            mixed = _mix(state, neighbors, ws, kept[k - 1]).tolist()
            mixed_rounds = k
            rows, rounded = [], []
            for f, memo, walked, row in zip(oracles, memos, walks, mixed):
                # The stable descending sort of flat indices, as `extension._descending` sorts.
                key = tuple(sorted(flat, key=row.__getitem__, reverse=True))
                walk = walked.get(key)
                if walk is None:
                    walk = walked[key] = (key, _walk(f, memo, space, key))
                logged(walk)
                projected, number = project(row, walk[1], gamma_k, t_hat)
                rows.append(projected)
                rounded.append(number)
            state = history[k - 1]
            state[:] = rows
            rounds.append(rounded)
    finally:
        check_rows(kept[:mixed_rounds].reshape(-1, space.sort_length), space)

    # Total costs by point number, each priced once: the final points' now, the rest on read.
    totals = {}

    def price(number) -> float:
        total = totals.get(number)
        if total is None:
            point = space.point(number)
            for f, memo in zip(oracles, memos):
                if number not in memo:
                    memo[number] = f(point)
            costs = [memo[number] for memo in memos]
            # A lone agent's cost as is: a sum from 0.0 would turn its -0.0 into 0.0.
            total = totals[number] = _left_sum(costs) if n_agents > 1 else costs[0]
        return total

    points = [space.point(number) for number in rounded]
    values = [price(number) for number in rounded]
    bottoms = [memo[0] for memo in memos]
    return points, values, SolveTrace(space, bottoms, kept, log, history, rounds, price)


def centralized_minimize(f: Oracle, space: ChainProduct, params: SolverParams):
    """Single-agent projected subgradient on the extension of f.

    The one-agent case of `distributed_minimize`, on one weight matrix
    [[1]] kept for every call, so f is likewise evaluated once per
    distinct point.  Returns (point, value, trace) with the point rounded
    at t_hat after the final iteration.  Tight for submodular f, a
    heuristic otherwise.
    """
    points, values, trace = distributed_minimize([f], space, _lone_agent(), params)
    return points[0], values[0], trace
