"""Projected-subgradient minimization via the continuous extension.

Distributed: N agents each hold one term of the total cost and a local
estimate of the shared profile; every synchronous round they mix neighbor
estimates with doubly-stochastic weights, step along their own local
subgradient, and project.  All agents round at the same shared threshold
so they agree whenever the minimizer is unique.  Centralized is the
one-agent case: iterate project(rho - gamma_k * subgrad) and round once at
the end.  A round prices nothing for its trace: `SolveTrace` computes the
extension values, the disagreement, `best_rounded` and the lower bound from
the solve's log, each when first read, so a caller that never reads them, as
a game does not, never pays for them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

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
from .projection import KERNEL_CACHE_SIZE, _function, _kernel

STOCHASTIC_TOL = 1e-9

# A solve is certified when its best total cost UB and its lower bound LB, as
# `SolveTrace` reports them, have UB - LB <= CERTIFY_TOL * max(1, |UB|).  The
# bound is valid only when every agent's cost is submodular, and the walk's
# f(bottom) and its steps sum to f(top) only to about 1e-13, hence the slack.
CERTIFY_TOL = 1e-9

# The most corrections, r * (the number of nonzero off-diagonal weights), that a
# round mixes in a generated mixer; a round with more mixes in numpy, `_mix`.
# Per round, numpy (`_mix`, `tolist` and the write-back of the new rows) against
# the mixer (and its block writes to the one buffer), fastest of 27 runs of 1,000
# rounds on a 2-core x86-64 VM, Python 3.11, numpy 2.4: line of 2 at r 8 (16
# corrections) 4.3 against 1.2 us; line of 3 at r 9 (36) 5.5 against 2.2; line of
# 4 at r 16 (96) 6.9 against 4.9; line of 4 at r 24 (144) 8.1 against 7.0;
# complete 4 at r 16 (192) 7.6 against 7.0; line of 8 at r 32 (448) 14.6 against
# 21.6; complete 8 at r 32 (1,792) 19.8 against 58.5.  So the crossover lies
# between 192 and 448, but no benchmark workload lies between population's and
# fig3's 96 and swarm8's 448, so the benchmark cannot place the threshold.  A
# mixer of 96 corrections compiles in about 1.2 ms.
_MIXER_CORRECTIONS = 128


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
    def _plan(self):
        """`_mixing_plan(entries)`, built on first use and kept for every later solve
        on this network."""
        return _mixing_plan(self.entries)


@cache
def _lone_agent() -> WeightMatrix:
    """The one-agent network of every central solve, checked on the first one and kept,
    its mixing plan with it; built on first use, so an import that solves nothing pays
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


@dataclass(frozen=True, eq=False, repr=False)
class SolveTrace:
    """Per-round diagnostics of one solve, each column computed from the log on its first read.

    The log is the solve's lattice, each agent's f(bottom), the (iterations,
    n_agents, r) buffer of mixed rows, each agent-round's walk (order,
    subgradient) in round then agent order, each round's step size and rounded
    point numbers, and its `price`; the trace holds it as long as it lives.
    `projected` replays each agent-round's kernel call from the log, with the
    solve's bytes: the kernel is pure, and its inputs passed its finiteness test.
    Row k of `ext_values` is `_value` at each agent's mixed row of round k + 1;
    `disagreement[k]` is the largest Euclidean distance between two agents'
    projected rows of that round (0 for one agent); `best_rounded[k]` is the
    lowest total cost of any point an agent rounded to up to it, the running
    minimum of the prices in round then agent order, and `best_point` the first
    point priced at the last one.  A non-finite cost met there raises, naming
    its point, on every read of `best_rounded` or `best_point`.
    `lower_bound[k]` is the running maximum, up to round k + 1, of two bounds on
    the least total cost, each the sum of the agents' f(bottom) plus, per chain,
    the least prefix sum (0 for none) of a vector: the sum G of the round's walk
    subgradients, and the step-weighted mean of G over the rounds so far.  Both
    hold when every agent's cost is submodular, since each walk's subgradient is
    then a subgradient of the agent's convex extension; `certified` says whether
    the last `best_rounded` is within `CERTIFY_TOL` of the last bound.
    """

    space: ChainProduct
    bottoms: list[float]
    mixed: np.ndarray
    walks: list[tuple[tuple[int, ...], list[float]]]
    rounds: list[tuple[float, list[int]]]
    price: Callable[[int], float]

    @cached_property
    def projected(self) -> np.ndarray:
        _, n_agents, r = self.mixed.shape
        project = _kernel(self.space.dims)
        steps = (gamma for gamma, _ in self.rounds for _ in range(n_agents))
        rows = (
            project(row.tolist(), subgradient, gamma, math.inf)[0]
            for row, (_, subgradient), gamma in zip(self.mixed.reshape(-1, r), self.walks, steps)
        )
        return np.fromiter(itertools.chain.from_iterable(rows), float, self.mixed.size).reshape(self.mixed.shape)

    @cached_property
    def ext_values(self) -> np.ndarray:
        rows = (row.tolist() for row in self.mixed.reshape(-1, self.mixed.shape[2]))
        values = (
            _value(bottom, row, order, subgradient, self.space)
            for bottom, row, (order, subgradient) in zip(itertools.cycle(self.bottoms), rows, self.walks)
        )
        return np.fromiter(values, float, len(self.walks)).reshape(self.mixed.shape[:2])

    @cached_property
    def disagreement(self) -> np.ndarray:
        """sqrt is monotone and `np.vecdot` of a float vector with itself gives
        the bytes of BLAS `d.dot(d)`, which `np.linalg.norm` takes too, so each
        entry equals the largest pairwise norm bit for bit.  Rounds go in
        batches of at most `_BATCH_FLOATS` differences."""
        iterations, n_agents, r = self.mixed.shape
        disagreement = np.zeros(iterations)
        first, second = np.triu_indices(n_agents, 1)
        if len(first):
            step = max(1, _BATCH_FLOATS // (len(first) * r))
            for start in range(0, iterations, step):
                rounds = self.projected[start : start + step]
                d = rounds[:, first] - rounds[:, second]
                disagreement[start : start + step] = np.sqrt(np.vecdot(d, d).max(axis=1))
        return disagreement

    @cached_property
    def best_rounded(self) -> np.ndarray:
        best, running = math.inf, []
        for _, rounded in self.rounds:
            for number in rounded:
                best = min(best, self.price(number))
            running.append(best)
        return np.array(running)

    @cached_property
    def best_point(self) -> tuple[int, ...]:
        return self.space.point(min((n for _, rounded in self.rounds for n in rounded), key=self.price))

    @cached_property
    def lower_bound(self) -> np.ndarray:
        iterations, n_agents, r = self.mixed.shape
        sums = np.array([g for _, g in self.walks]).reshape(iterations, n_agents, r).sum(axis=1)
        steps = np.array([gamma for gamma, _ in self.rounds])[:, None]
        vectors = np.stack([sums, np.cumsum(steps * sums, axis=0) / np.cumsum(steps, axis=0)])
        bound = np.full((2, iterations), _left_sum(self.bottoms))
        for a, b in itertools.pairwise(self.space.offsets):
            bound += np.minimum(0.0, np.cumsum(vectors[:, :, a:b], axis=2).min(axis=2))
        return np.maximum.accumulate(bound.max(axis=0))

    @cached_property
    def certified(self) -> bool:
        ub = self.best_rounded[-1].item()
        return ub - self.lower_bound[-1].item() <= CERTIFY_TOL * max(1.0, abs(ub))


def _links(weights: np.ndarray) -> list[list[tuple[int, float]]]:
    """Each agent's (neighbor, weight) pairs, one per nonzero off-diagonal entry of its
    row of `weights`, by increasing index; -0.0 is zero.  The one rule for who is a
    neighbor: the mixing plan and the game's cohesion partners read it."""
    rows = enumerate(weights.tolist())
    return [[(j, w) for j, w in enumerate(row) if w != 0.0 and j != i] for i, row in rows]


def _mixing_plan(weights: np.ndarray):
    """A network's way to mix, from its `_links`: each agent's neighbors and their weights,
    flat in agent then neighbor order, which a generated mixer reads, and the read-only
    slot table `_mix` reads.  Slot s is each agent's s-th link, in an (S, n) neighbor
    array and an (S, n, 1) weight array; an agent with fewer links takes its own row at
    weight -0.0 there, since -0.0 * (x - x) = -0.0 and y + -0.0 = y, even for y = -0.0:
    an exact identity on finite rows."""
    links = _links(weights)
    lists = tuple(tuple(j for j, _ in row) for row in links)
    slots = range(max(map(len, lists), default=0))
    padded = [[row[s] if s < len(row) else (i, -0.0) for i, row in enumerate(links)] for s in slots]
    neighbors = np.array([[j for j, _ in slot] for slot in padded], dtype=np.intp).reshape(len(slots), len(links))
    ws = np.array([[w for _, w in slot] for slot in padded], dtype=float).reshape(len(slots), len(links), 1)
    neighbors.flags.writeable = ws.flags.writeable = False
    return lists, tuple(w for row in links for _, w in row), (neighbors, ws)


def _mix(state: np.ndarray, neighbors: np.ndarray, ws: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`mix_profiles` with a `_mixing_plan`'s slot table, written into `out` and returned:
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
    of `_mixing_plan`, computed in one array step and added in slot order,
    each entry through the same operations in the same order as one
    neighbor at a time.  `state` and `weights` may be arrays or nested
    lists, `state` 2-D and weights of shape (n, n) for n rows; the result is
    a new float array.  A non-finite entry of either raises a ValueError
    naming it: the slot table's -0.0 padding is an identity only on finite
    rows, and a non-finite weight turns a finite row into NaN or inf.
    """
    state, weights = np.asarray(state, dtype=float), np.asarray(weights, dtype=float)
    if state.ndim != 2:
        raise ValueError(f"state: need a 2-D array, one row per agent, got shape {state.shape}")
    n = len(state)
    if weights.shape != (n, n):
        raise ValueError(f"weights: need shape {(n, n)} for {n} rows, got {weights.shape}")
    for name, a, entries in (("state", state, "rows"), ("weights", weights, "weights")):
        if not np.isfinite(a).all():
            index = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
            raise ValueError(f"{name}: entry {index} is {a[index].item()}; {entries} must be finite")
    return _mix(state, *_mixing_plan(weights)[2], np.empty(state.shape))


def _mixer_source(neighbors: tuple[tuple[int, ...], ...], r: int) -> str:
    """The source of `mix(x, w)` for agents whose neighbors, by increasing index, are
    `neighbors`, into which only integers are written: x the agents' rows of r
    floats, w their weights flat in agent then neighbor order.  Entry k of agent i's
    row is x_i + w_1 * (x_j1 - x_i) + w_2 * (x_j2 - x_i) + ..., left to right, where
    `_mix` pads with -0.0 * (x_i - x_i), which adds nothing to a finite entry; an
    agent with no neighbor keeps its row."""
    mixing = [i for i, js in enumerate(neighbors) if js]
    read = sorted({*mixing, *(j for js in neighbors for j in js)})
    slots = "".join(f"w{i}_{s}, " for i in mixing for s in range(len(neighbors[i])))
    lines = [
        "def mix(x, w):",
        f"    {''.join(f'x{i}, ' for i in range(len(neighbors)))}= x",
        *(f"    {''.join(f'x{i}_{k}, ' for k in range(r))}= x{i}" for i in read),
        *([f"    {slots}= w"] if slots else []),
    ]
    rows = [
        "[" + ", ".join(
            f"x{i}_{k}" + "".join(f" + w{i}_{s} * (x{j}_{k} - x{i}_{k})" for s, j in enumerate(js))
            for k in range(r)
        ) + "]" if js else f"x{i}"
        for i, js in enumerate(neighbors)
    ]
    lines.append(f"    return [{', '.join(rows)}]")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _mixer(neighbors: tuple[tuple[int, ...], ...], r: int):
    """`mix(rows, weights) -> rows`, `_mix` on lists byte for byte, its weights as
    `_mixing_plan` lists them; compiled once per (neighbors, r) and kept, like the
    projection kernels, in a cache of at most `KERNEL_CACHE_SIZE`."""
    return _function(_mixer_source(neighbors, r), "mix", f"<solvers mixer {neighbors} r={r}>")


def _fill(buffer: np.ndarray, end: int, rounds: list[list[list[float]]]) -> None:
    """Write `rounds`, each a round's rows as lists, into `buffer` as its rounds up to `end`."""
    block = buffer[end - len(rounds) : end].reshape(-1)
    block[:] = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(rounds)), float, len(block))


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
    profiles, so execution order within a round cannot matter.  A round
    mixes the rows as `mix_profiles` does, byte for byte: with at most
    `_MIXER_CORRECTIONS` corrections (r times the network's nonzero
    off-diagonal weights) in the generated mixer of the network's neighbor
    lists and r, on the lists the kernel returned, and with more in numpy,
    with the network's slot table.  Then each agent walks its extension at
    its mixed row, steps, projects and rounds the row in one call of the
    projection kernel of `space`'s shape.  The extension is linear on each
    sort order's cone, so an agent walks each order once per solve and
    steps along the kept subgradient when it meets the order again.

    Returns (points, values, trace): each agent's point rounded at t_hat in
    the last round, the *total* cost of each, and the per-round
    `SolveTrace`.  Every oracle must be defined on `space`.

    Each agent's oracle is asked for each distinct lattice point at most
    once per solve and its trace, so afterwards its `calls` counts distinct
    evaluations.  The solve asks for the walks' points, then the final
    points; a point only an earlier round rounded to is asked for when
    `best_rounded` is first read, where a non-finite cost raises.

    Memory: one buffer of the mixed rows of every round, 8 * iterations *
    n_agents * r bytes, allocated before the first round (a generated mixer's
    rounds wait for it as lists of at most a quarter of `_BATCH_FLOATS`
    floats); per agent, at most one walk (the order's key and r floats) per
    round; and per agent-round, a reference to its walk and a point number.
    The trace holds these and the value dicts until it is dropped; its
    `projected` rows, another such buffer, exist only once read.

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
    state = np.array([p.values for p in starts], dtype=float)
    lists, weights, (neighbors, ws) = matrix._plan
    r = space.sort_length
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
    # Round k's mixed rows are kept[k - 1], checked once the loop ends however it ends:
    # a walk, oracle or projection failure may follow from a bad row, which outranks it.
    kept = np.empty((params.iterations, n_agents, r))
    flat = range(r)
    # A small round mixes the kernel's own lists in generated code, and its mixed rows reach
    # the buffer in blocks; a larger one mixes in numpy.  A float in a list takes 32 bytes
    # against 8 in an array, so a block holds a quarter of _BATCH_FLOATS floats.
    mix = _mixer(lists, r) if r * len(weights) <= _MIXER_CORRECTIONS else None
    block = max(1, _BATCH_FLOATS // (4 * n_agents * r))
    mixed_rounds = []
    if mix is not None:
        state = state.tolist()

    try:
        for k, gamma_k in enumerate(_step_sizes(params), 1):
            if mix is None:
                mixed = _mix(state, neighbors, ws, kept[k - 1]).tolist()
            else:
                mixed = mix(state, weights)
                mixed_rounds.append(mixed)
            rows, rounded = [], []
            rounds.append((gamma_k, rounded))
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
            if mix is None:
                state[:] = rows
            else:
                state = rows
                if len(mixed_rounds) == block:
                    _fill(kept, k, mixed_rounds)
                    mixed_rounds = []
    finally:
        _fill(kept, len(rounds), mixed_rounds)
        check_rows(kept[: len(rounds)].reshape(-1, r), space)

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
    return points, values, SolveTrace(space, bottoms, kept, log, rounds, price)


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
