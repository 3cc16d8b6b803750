"""Projected-subgradient minimization via the continuous extension.

Distributed: N agents each hold one term of the total cost and a local
estimate of the shared profile; every synchronous round they mix neighbor
estimates with doubly-stochastic weights, step along their own local
subgradient, and project.  All agents round at the same shared threshold
so they agree whenever the minimizer is unique.  Centralized is the
one-agent case: iterate project(rho - gamma_k * subgrad) and round once at
the end.  The trace's bookkeeping is paid only when read: a round logs
each agent's walk and the numbers of the points the agents round to,
read off the projected rows, and the solve prices only its final points.
The extension values, the disagreement and `best_rounded` are computed
from those logs, the two round buffers and the value dicts when the
trace is first read (`SolveTrace`), so a caller that never reads them,
as a game does not, never pays for them.  The walk is paid once per
order: the extension is linear on each sort order's cone, so each agent
keeps the order and subgradient of every order it walked, and an order
met again costs no oracle request; a trace read recovers the f-steps
from the subgradient.  The round writes out the sort
that keys the walks, the stable descending sort `extension._descending`
states, and a solve lists every round's step size before the first
(`_step_sizes`), so neither costs a call per round.
An agent's round is one call of the projection kernel of the solve's
lattice shape (`projection._kernel`, compiled once per shape): it steps
the mixed row along the subgradient, projects each chain and counts the
entries that round up, so the rounded point's number comes with the
projected row.  Mixing computes every correction slot of the whole state
in one array step, from the network's slot table (`_slot_arrays`), built
on a `WeightMatrix`'s first solve and kept read-only for every later
one, and adds them in slot order.  The mixed
rows go through the one row check, `extension.check_rows`, once per
solve: each round's mixed state is written into a buffer kept for the
solve, and the buffer is checked after the last round, or as soon as
anything fails, so that an infeasible row still raises before any
failure that followed it.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
from .lattice import ChainProduct, Oracle, _left_sum, _require_oracle_space
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
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta: must lie in (0,1), got {eta}")
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
        if isinstance(self.iterations, bool) or not isinstance(self.iterations, numbers.Integral):
            raise ValueError(f"iterations: need an integer, got {self.iterations!r}")
        if self.iterations < 1:
            raise ValueError("iterations: ≥ 1 required")
        if isinstance(self.gamma, bool) or not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma: step size must be positive and finite, got {self.gamma}")
        if self.schedule not in ("constant", "diminishing"):
            raise ValueError(f"schedule: unknown step schedule {self.schedule!r}")
        if not 0.0 < self.t_hat < 1.0:
            raise ValueError("t_hat: rounding threshold must be strictly inside (0,1)")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed: need a non-negative integer, got {self.seed!r}")
        # Held as Python floats: a numpy float32 would carry the whole solve into single precision.
        self.gamma = float(self.gamma)
        self.t_hat = float(self.t_hat)


def step_size(k: int, params: SolverParams) -> float:
    """Step length for round k (1-based)."""
    if k < 1:
        raise ValueError("round index starts at 1")
    if params.schedule == "constant":
        return params.gamma
    return params.gamma / math.sqrt(k)


def _step_sizes(params: SolverParams) -> list[float]:
    """`step_size(k, params)` for every round k of a solve, with no call per round.
    numpy's square root is correctly rounded, as `math.sqrt` is, and the division
    stays Python's, so each size is the same number of the same type."""
    gamma, n = params.gamma, params.iterations
    if params.schedule == "constant":
        return [gamma] * n
    return [gamma / root for root in np.sqrt(np.arange(1, n + 1)).tolist()]


class SolveTrace:
    """Per-round diagnostics, recorded for inspection only.

    Row k of `ext_values` holds each agent's extension value where it walked
    in round k + 1; `disagreement[k]` is the largest Euclidean distance
    between two agents' profiles after that round (0 for one agent); and
    `best_rounded[k]` is the lowest total cost of any point an agent has
    rounded to in the rounds up to it.

    Built from the three arrays, it holds them as given.  A solve passes
    a `log` instead of the first two: each agent's f(bottom), the
    (iterations, n_agents, r) buffers of mixed and of projected rows, and
    each agent-round's walk (order, subgradient) in round then agent
    order, with the solve's lattice.  The first read of `ext_values` or
    `disagreement` computes both from it, with `_value` on each mixed row,
    which recovers the walk's f-steps from its subgradient, and
    `_disagreement_trace` on the projected ones, keeps them and drops the
    log.  It passes `best_rounded` unfilled, with `rounds`: each round's
    rounded point numbers and the solve's `price`.  The first read of
    `best_rounded` fills it with the running minimum of the prices in
    round then agent order and drops `rounds`; a non-finite cost met there
    raises, naming its point.  So a solve whose trace is never read prices
    no row after its walks and no point but its final ones, and the logs
    and the solve's value dicts live until the trace is read or dropped.
    """

    def __init__(self, ext_values=None, disagreement=None, best_rounded=None, *, log=None, rounds=None):
        self._ext_values = ext_values
        self._disagreement = disagreement
        self._best_rounded = best_rounded
        self._log = log
        self._rounds = rounds

    def _read(self) -> None:
        if self._log is not None:
            space, bottoms, kept, walks, history = self._log
            rows = kept.reshape(-1, kept.shape[2]).tolist()
            values = [
                _value(bottom, row, order, subgradient, space)
                for bottom, row, (order, subgradient) in zip(itertools.cycle(bottoms), rows, walks)
            ]
            self._ext_values = np.array(values).reshape(kept.shape[:2])
            self._disagreement = _disagreement_trace(history)
            self._log = None

    @property
    def ext_values(self) -> np.ndarray:
        self._read()
        return self._ext_values

    @property
    def disagreement(self) -> np.ndarray:
        self._read()
        return self._disagreement

    @property
    def best_rounded(self) -> np.ndarray:
        if self._rounds is not None:
            rounds, price = self._rounds
            best = math.inf
            for k, numbers in enumerate(rounds):
                for number in numbers:
                    best = min(best, price(number))
                self._best_rounded[k] = best
            self._rounds = None
        return self._best_rounded


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
    corrections, added one at a time in increasing neighbor index: a
    zero-weight term would turn its -0.0 into 0.0.  Slot s holds every
    agent's s-th neighbor, and a row with fewer neighbors takes its own row
    at weight -0.0, which leaves every finite entry as it was, -0.0
    included.  All slots' corrections are computed in one array step and
    added in slot order, each entry through the same operations in the same
    order as one slot at a time.  A solve mixes with its network's slot
    table, which the `WeightMatrix` builds once and keeps.  `state` and
    `weights` may be arrays or nested lists; the result is a new float
    array.
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
    caller's `initial` profiles is checked in turn.  Rounds are synchronous and
    gather-then-update: all mixing reads use the previous round's
    profiles, so execution order within a round cannot matter.  A round
    mixes the whole (n_agents, r) state in numpy, every correction slot in
    one array step (see `mix_profiles`) with the slot table `matrix`
    keeps, into that round's slot of a buffer kept for the solve, and
    turns it into lists once; then each agent in turn walks its extension,
    and steps and projects its own row in one call of the kernel of
    `space`'s shape, fetched once per solve.
    The kernel also returns the number of the point that row rounds
    to at the shared threshold: while it writes each chain it counts what
    `extension.theta` counts, and `space.point` decodes the number.  An agent walks each sort
    order once per solve and keeps the order with its linear piece, the
    subgradient `_walk` returns; every round logs a reference
    to it, fresh or kept, and steps along its subgradient.  The new rows
    become the state array once more, kept per round, and the round logs
    its rounded point numbers, unpriced.  Each agent returns its last
    round's point; the value reported for an agent is the *total* cost of
    that point, priced after the last round.  The trace prices the logged
    rows with `extension._value`, the disagreement and the other rounded
    points when it is first read, not in the rounds.

    Returns (points, values, trace): per-agent rounded lattice points, their
    total-cost values, and the per-round trace.  Every oracle must be
    defined on `space`.

    Each agent's oracle is evaluated at most once per distinct lattice
    point during one solve and its trace, so afterwards its `calls` counts
    distinct evaluations: the walks and the total costs read one dict of
    values per agent.  The solve asks for the walks' points, then the
    final points; a point only an earlier round rounded to is asked for
    when `best_rounded` is first read, where a non-finite cost raises.
    Keeping every round's state costs 8 * iterations * n_agents * r
    bytes, and keeping every round's mixed state as much again.  The
    walks by sort order hold at most one entry per round per agent, each
    a list of r floats and the order's key.  For the trace, the solve
    keeps the two round buffers, each agent's f(bottom), a walk reference
    and a point number per agent and round, and the value dicts, until
    the trace is read or dropped; so the walks those references name live
    as long.

    Every mixed row must pass `extension.check_rows`, the one row check,
    which `Profile.validate` uses too.  It runs once over the buffer after
    the last round, or when anything raises during the rounds (an oracle,
    the walk or the projection); then the first infeasible row, by round
    then agent, raises its error.  A lone agent's mixed row is its previous
    projected row, kept and checked the same way.  So a solve raises the
    same error as one that checked each round's rows before its walks,
    though an oracle may have been asked for more points by then.
    """
    a = matrix.entries
    n_agents = len(oracles)
    if a.shape != (n_agents, n_agents):
        raise ValueError(
            f"matrix shape {a.shape} does not match {n_agents} agents"
        )
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

    def total_cost(number) -> float:
        point = space.point(number)
        costs = []
        for f, memo in zip(oracles, memos):
            if number not in memo:
                memo[number] = f(point)
            costs.append(memo[number])
        # A lone agent's cost as is: a sum from 0.0 would turn its -0.0 into 0.0.
        return _left_sum(costs) if n_agents > 1 else costs[0]

    # Each agent-round's walk and rounded point number, in round then agent order, for the trace.
    log = []
    logged = log.append
    rounds = []
    best_rounded = np.zeros(params.iterations)
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
                # `extension._descending`, written out: the stable descending sort of flat indices.
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
            total = totals[number] = total_cost(number)
        return total

    points = [space.point(number) for number in rounded]
    values = [price(number) for number in rounded]
    trace = SolveTrace(
        best_rounded=best_rounded,
        log=(space, [memo[0] for memo in memos], kept, log, history),
        rounds=(rounds, price),
    )
    return points, values, trace


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
