"""Chain-product lattices, cost oracles, and exact ground-truth tools.

A chain product is a finite lattice X = X_0 x ... x X_{N-1} where each
X_i = {0, ..., m_i - 1} is totally ordered.  Points are plain tuples of
ints.  Everything here is exhaustive and exact: it is the reference
machinery the fast solvers are tested against.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

BRUTE_FORCE_CAP = 10**6

# Cross-differences this close to zero (from below the strictness side) are
# treated as zero: composed float costs accumulate round-off.
DEFAULT_STRICTNESS_TOL = 1e-9


class CapExceededError(ValueError):
    """Raised when an exhaustive operation would enumerate too many points."""


def _integer(x) -> bool:
    """Whether x is an integer, a numpy one included, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _real(x) -> bool:
    """Whether x is a real number, a numpy one included, and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _holds(value, kind) -> bool:
    """Whether value is a `kind`, or a list, tuple or array that holds one at any depth.

    Each list is walked once: a YAML alias can make a list that holds itself.
    """
    pending, seen = [value], set()
    while pending:
        value = pending.pop()
        if isinstance(value, kind):
            return True
        if isinstance(value, (list, tuple, np.ndarray)) and id(value) not in seen:
            seen.add(id(value))
            pending.extend(value.ravel().tolist() if isinstance(value, np.ndarray) else value)
    return False


def _numbers(value):
    """value unless it is or holds a string, a boolean (numpy's included) or
    None: neither "7" nor true nor null is a number."""
    for kind, name in ((str, "a string"), ((bool, np.bool_), "a boolean"), (type(None), "null")):
        if _holds(value, kind):
            raise ValueError(f"expected a number, got {name}")
    return value


@dataclass(frozen=True)
class ChainProduct:
    """A product of integer chains, given by the size of each chain.

    It fixes the flat profile layout: r = sum(m_i) - N coordinates, chain i's from offsets[i].
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) == 0:
            raise ValueError("empty product: need at least one chain")
        for i, m in enumerate(dims):
            if not _integer(m):
                raise ValueError(f"chain {i} has size {m!r}; chain sizes must be integers")
            if m < 2:
                raise ValueError(f"chain {i} has size {m}; every chain needs at least 2 elements")
        object.__setattr__(self, "dims", tuple(map(operator.index, dims)))

    @property
    def n_chains(self) -> int:
        return len(self.dims)

    @property
    def cardinality(self) -> int:
        return math.prod(self.dims)

    @property
    def sort_length(self) -> int:
        """Number of free profile coordinates: sum(m_i) - N."""
        return self.offsets[-1]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Where each chain's coordinates start in a flat profile, then r."""
        return tuple(itertools.accumulate((m - 1 for m in self.dims), initial=0))

    @cached_property
    def chain_of(self) -> tuple[int, ...]:
        """The chain of each flat profile coordinate."""
        return tuple(i for i, m in enumerate(self.dims) for _ in range(m - 1))

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Row-major place values: point x is number sum(x_i * strides_i) of `points()`."""
        return tuple(itertools.accumulate(reversed(self.dims[1:]), operator.mul, initial=1))[::-1]

    @cached_property
    def in_chain_steps(self) -> tuple[int, ...]:
        """Each flat coordinate k whose successor k + 1 lies on the same chain."""
        return tuple(k for k, (a, b) in enumerate(itertools.pairwise(self.chain_of)) if a == b)

    @property
    def exceeds_cap(self) -> bool:
        return self.cardinality > BRUTE_FORCE_CAP

    def bottom(self) -> tuple[int, ...]:
        return (0,) * self.n_chains

    def top(self) -> tuple[int, ...]:
        return tuple(m - 1 for m in self.dims)

    def contains(self, point: Sequence[int]) -> bool:
        return len(point) == self.n_chains and all(
            0 <= x <= m - 1 for x, m in zip(point, self.dims)
        )

    def check_point(self, point: Sequence[int]) -> tuple[int, ...]:
        """`point` as a tuple of Python ints, refused unless each coordinate is an integer in its chain."""
        point = tuple(point)
        if not all(map(_integer, point)):
            raise ValueError(f"point {point} has a coordinate that is not an integer")
        point = tuple(map(operator.index, point))
        if not self.contains(point):
            raise ValueError(f"point {point} outside lattice with dims {self.dims}")
        return point

    def points(self):
        """Iterate all lattice points in row-major order."""
        return itertools.product(*(range(m) for m in self.dims))

    def point(self, number: int) -> tuple[int, ...]:
        """The lattice point numbered `number` in `points()` order, decoded by `strides`."""
        last = self.cardinality - 1
        if not (_integer(number) and 0 <= number <= last):
            raise ValueError(f"point number {number!r} is not an integer from 0 to {last} for dims {self.dims}")
        return tuple(number // s % m for s, m in zip(self.strides, self.dims))


class Oracle:
    """A cost function over a chain product, with evaluation counting.

    The wrapped callable must be deterministic and finite on every lattice
    point; a NaN or infinite value, or an OverflowError from the callable
    (float `**` and `math.exp` raise one), raises ValueError naming the point.
    `_value_table`'s sweep and the extension's walk (`extension._walk`) call
    `fn` directly, under one rule: they keep `float(fn(point))` only when
    it is finite, and add one to `calls` per point asked for, as this
    wrapper counts; otherwise they ask again through this wrapper (a sweep
    point by point, on any error), so every error and message is this
    wrapper's, and a failing point may reach `fn` twice.  Points are not
    checked against `space`, because the solvers call oracles in their
    inner loop; input from outside goes through `space.check_point` first.
    The call counter is plain (not atomic): guard the oracle if you
    evaluate it from several threads.

    `table` is None until the first exhaustive sweep (`check_submodular`
    or `brute_force_minimize`) completes.  It then holds f at every point,
    shaped like `space.dims` and read-only: 8 bytes per point, at most 8 MB
    at `BRUTE_FORCE_CAP`, for as long as the oracle lives.  Later sweeps
    read it and evaluate nothing, so `fn` must not change after a sweep.
    """

    def __init__(self, fn: Callable[[tuple[int, ...]], float], space: ChainProduct):
        self.fn = fn
        self.space = space
        self.calls = 0
        self.table: np.ndarray | None = None

    def __call__(self, point: Sequence[int]) -> float:
        self.calls += 1
        point = tuple(point)
        try:
            value = float(self.fn(point))
        except OverflowError as exc:
            raise ValueError(f"cost at {point} is not finite: overflow") from exc
        if not math.isfinite(value):
            raise ValueError(f"cost at {point} is not finite: {value}")
        return value


def _left_sum(values) -> float:
    """`values` added left to right from 0.0: the float `sum()` of Python 3.10 and
    3.11, which 3.12 replaced with a compensated sum that can round differently."""
    return reduce(operator.add, values, 0.0)


def _require_oracle_space(f: Oracle, space: ChainProduct) -> None:
    """Refuse a lattice other than f's own; distinct but equal products are the same lattice."""
    if space != f.space:
        raise ValueError(f"space with dims {space.dims} is not the oracle's lattice, dims {f.space.dims}")


@dataclass
class SubmodularityReport:
    """Outcome of the exhaustive cross-difference sweep."""

    is_submodular: bool
    violations: list[tuple[tuple[int, ...], tuple[int, int], float]]
    points_checked: int

    def __bool__(self) -> bool:
        return self.is_submodular


def cross_difference(f: Oracle, point: Sequence[int], i: int, j: int) -> float:
    """Second difference of f at `point` along chains i and j.

    Returns [f(x+e_i+e_j) - f(x+e_j)] - [f(x+e_i) - f(x)].  f is submodular
    on its chain product iff this is <= 0 at every admissible (x, i, j).
    """
    x = f.space.check_point(point)
    n = f.space.n_chains
    if not (_integer(i) and _integer(j) and 0 <= i < n and 0 <= j < n):
        raise ValueError(f"chain indices {i!r}, {j!r}: need two integers from 0 to {n - 1}")
    if i == j:
        raise ValueError("cross difference needs two distinct chains")
    dims = f.space.dims
    if x[i] + 1 > dims[i] - 1 or x[j] + 1 > dims[j] - 1:
        raise ValueError(f"unit shift along chains {i},{j} leaves the lattice at {x}")
    xi = list(x)
    xi[i] += 1
    xj = list(x)
    xj[j] += 1
    xij = list(xi)
    xij[j] += 1
    return (f(tuple(xij)) - f(tuple(xj))) - (f(tuple(xi)) - f(x))


def _value_table(f: Oracle, space: ChainProduct | None, what: str) -> tuple[ChainProduct, np.ndarray]:
    """The lattice of the sweep `what` (f's by default; another one, or one above the
    cap, is refused) and f's read-only value table, built on the first call: f at
    every lattice point, evaluated once each in `space.points()` order.

    The values are read from `f.fn` straight into the array and checked for
    finiteness once.  If that raises or leaves a non-finite value, the sweep is
    run again through `f` point by point, which raises the first point's error
    and counts the calls up to it.  A sweep that raises keeps nothing, so the
    next one raises again."""
    space = space or f.space
    _require_oracle_space(f, space)
    if space.exceeds_cap:
        raise CapExceededError(
            f"{what} refused: {space.cardinality} points exceeds the "
            f"brute-force cap of {BRUTE_FORCE_CAP}"
        )
    if f.table is None:
        n = space.cardinality
        try:
            values = np.fromiter(map(float, map(f.fn, space.points())), dtype=float, count=n)
            clean = bool(np.isfinite(values).all())
        except Exception:  # the per-point sweep below raises it again, naming its point
            clean = False
        if clean:
            f.calls += n
        else:
            values = np.fromiter(map(f, space.points()), dtype=float, count=n)
        values.flags.writeable = False
        f.table = values.reshape(space.dims)
    return space, f.table


def _steps(table: np.ndarray, axis: int) -> np.ndarray:
    """table[x + e_axis] - table[x] for every x that can step up along `axis`."""
    up = [slice(None)] * table.ndim
    down = list(up)
    up[axis], down[axis] = slice(1, None), slice(None, -1)
    return table[tuple(up)] - table[tuple(down)]


def check_submodular(
    f: Oracle,
    space: ChainProduct | None = None,
    tol: float = DEFAULT_STRICTNESS_TOL,
) -> SubmodularityReport:
    """Exhaustively test all unit cross-differences of f.

    Each admissible (point, chain pair) is checked once; the pair order is
    irrelevant because the cross difference is symmetric in (i, j).  A
    difference above `tol` counts as a strict violation.  f is evaluated
    once per lattice point into its value table (`Oracle.table`, 8 bytes
    per point), unless an earlier sweep of f built it.  Each chain i's step
    table, f(x + e_i) - f(x), is taken from it once, and the cross
    differences of a pair (i, j) are that step table's differences along
    chain j: the same two subtractions, in the same order, as
    `cross_difference`, so every value is bit-identical to it.  Violations
    are listed by point, then chain pair.  A `space` other than f's, or a
    `tol` that is not finite, is refused.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol: must be finite, got {tol}")
    space, table = _value_table(f, space, "submodularity check")
    n = space.n_chains
    steps = [_steps(table, i) for i in range(n)]
    violations = []
    checked = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = _steps(steps[i], j)
            checked += d.size
            strict = d > tol
            if strict.any():
                for x, value in zip(np.argwhere(strict).tolist(), d[strict].tolist()):
                    violations.append((tuple(x), (i, j), value))
    violations.sort(key=lambda v: (v[0], v[1]))
    return SubmodularityReport(
        is_submodular=not violations, violations=violations, points_checked=checked
    )


def brute_force_minimize(
    f: Oracle, space: ChainProduct | None = None
) -> tuple[float, set[tuple[int, ...]]]:
    """Exact global minimum of f by full enumeration.

    Returns (minimum value, set of all minimizing points).  It reads f's
    value table (`Oracle.table`, 8 bytes per point), which the first sweep
    of f builds by evaluating f once per lattice point; after
    `check_submodular(f)` it evaluates nothing.  A `space` other than f's
    is refused.
    """
    space, table = _value_table(f, space, "brute-force minimization")
    # The first minimal value in enumeration order (the sign of a zero
    # minimum is that of its first occurrence).
    best = table.flat[int(np.argmin(table))].item()
    return best, {tuple(x) for x in np.argwhere(table == best).tolist()}
