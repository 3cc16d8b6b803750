"""Continuous extension of lattice functions and its subgradient.

A point of the relaxed domain is a *profile*: one non-increasing vector in
[0,1]^{m_i-1} per chain (the tail-cumulative coordinates of a product
probability measure; the leading coordinate is identically 1 and dropped),
held as one flat array in the layout its `ChainProduct` fixes.  The
extension is computed by a single stable descending sort of all profile
entries, walking a monotone chain of lattice points from bottom to top and
charging each unit step with the entry that triggered it.  The subgradient
falls out of the same walk at no extra cost.  `check_rows`, `extend_rows`
and `round_rows` do the same for every row of an (n, r) array of profiles;
`Profile.validate`, `greedy_extension` and `theta` are their one-row cases.
The walk reads oracle values from a dict the caller owns and evaluates
only the points missing there; a solve keeps one dict per agent.

For chains of size 2 this is exactly the classical relaxation of set
functions on the unit hypercube; no separate code path exists for that
case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import ChainProduct, Oracle

FEASIBILITY_TOL = 1e-12


@dataclass
class Profile:
    """A point of the relaxed search space, flat in its chain product's layout.

    `values` holds the r = sum(m_i) - N coordinates, chain by chain at
    `space.offsets`; each chain's vector is non-increasing in [0,1].
    """

    space: ChainProduct
    values: np.ndarray

    @classmethod
    def from_point(cls, space: ChainProduct, point) -> "Profile":
        """Degenerate profile of a lattice point: ones up to the index, then zeros."""
        x = space.check_point(point)
        values = np.zeros(space.sort_length)
        for start, xi in zip(space.offsets, x):
            values[start : start + xi] = 1.0
        return cls(space, values)

    @classmethod
    def zeros(cls, space: ChainProduct) -> "Profile":
        return cls(space, np.zeros(space.sort_length))

    @classmethod
    def ones(cls, space: ChainProduct) -> "Profile":
        return cls(space, np.ones(space.sort_length))

    def chain(self, i: int) -> np.ndarray:
        """A view of chain i's coordinates."""
        offsets = self.space.offsets
        return self.values[offsets[i] : offsets[i + 1]]

    def validate(self, space: ChainProduct, tol: float = FEASIBILITY_TOL) -> None:
        v = self.values
        if self.space.dims != space.dims or v.shape != (space.sort_length,):
            raise ValueError(
                f"profile of shape {v.shape} on dims {self.space.dims} does not "
                f"match dims {space.dims}"
            )
        check_rows(v[None], space, tol)


def check_rows(rows: np.ndarray, space: ChainProduct, tol: float = FEASIBILITY_TOL) -> None:
    """Raise unless every row of an (n, r) array is a feasible profile of `space`.

    The message names the first offending chain of the first infeasible row.
    """
    # Written as "not inside" so that NaN entries count as outside.
    outside = ~((rows >= -tol) & (rows <= 1.0 + tol))
    # A rise from the last entry of one chain to the first of the next is fine.
    rises = (rows[:, 1:] - rows[:, :-1] > tol) & space.same_chain
    if not (outside.any() or rises.any()):
        return
    # Infeasible: find the first offending chain for the message.
    for row in rows:
        for i, (start, end) in enumerate(itertools.pairwise(space.offsets)):
            p = row[start:end]
            if not np.all((p >= -tol) & (p <= 1.0 + tol)):
                raise ValueError(f"profile chain {i} leaves [0,1]: {p}")
            if np.any(np.diff(p) > tol):
                raise ValueError(f"profile chain {i} is not non-increasing: {p}")


def uniform_random_profile(space: ChainProduct, seed) -> Profile:
    """Per chain, m_i - 1 uniform draws sorted descending; deterministic per seed."""
    values = np.random.default_rng(seed).uniform(0.0, 1.0, size=space.sort_length)
    for start, end in itertools.pairwise(space.offsets):
        values[start:end] = np.sort(values[start:end])[::-1]
    return Profile(space, values)


def theta(rho: Profile, t: float):
    """Round a profile to a lattice point at threshold t.

    Per chain, the largest index l with rho_i(l) >= t, where the implicit
    0th coordinate is 1.  The comparison is closed so the map is
    deterministic at entry values.
    """
    return round_rows(rho.values[None], rho.space, t)[0]


def round_rows(rows: np.ndarray, space: ChainProduct, t: float) -> list[tuple[int, ...]]:
    """`theta` of every row of an (n, r) array: per chain, the count of entries >= t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold {t} outside [0,1]")
    levels = np.add.reduceat(rows >= t, space.offsets[:-1], axis=1, dtype=np.intp)
    return list(map(tuple, levels.tolist()))


@dataclass
class ExtensionResult:
    """Value, flat subgradient, and the sorted walk that produced them."""

    value: float
    subgradient: np.ndarray
    points: list[tuple[int, ...]]
    order: list[int]


def _walk(
    f: Oracle, memo: dict, space: ChainProduct, values: list[float], order, top
) -> tuple[float, list[float]]:
    """The extension's value and flat subgradient along an explicit order of flat indices.

    The r + 1 walk points are read from `memo`, keyed by their number in
    `space.points()` order; only a point missing there is evaluated by f
    and stored.
    """
    chain_of, offsets, strides = space.chain_of, space.offsets, space.strides
    x = [0] * space.n_chains
    code = 0
    if code not in memo:
        memo[code] = f(tuple(x))
    prev = value = memo[code]
    subgradient = [0.0] * len(values)
    for k in order:
        i = chain_of[k]
        x[i] += 1
        code += strides[i]
        try:  # a hit, the common case, costs one subscript
            cur = memo[code]
        except KeyError:
            cur = memo[code] = f(tuple(x))
        step = cur - prev
        value += values[k] * step
        # The step belongs to the level chain i just reached: k itself,
        # unless a rise within tolerance put a later entry of the chain first.
        subgradient[offsets[i] + x[i] - 1] = step
        prev = cur
    if tuple(x) != top:
        raise RuntimeError(
            f"extension walk ended at {tuple(x)}, not the lattice top "
            f"{top}; profile entry bookkeeping is inconsistent"
        )
    return value, subgradient


def _descending(values: list[float]) -> list[int]:
    """Flat indices by value descending.

    The sort is stable, so equal values keep flat order, which is (chain,
    in-chain position).  Within a chain the entries are non-increasing, so
    position order keeps the in-chain sequencing.
    """
    return sorted(range(len(values)), key=values.__getitem__, reverse=True)


def extend_rows(
    oracles: list[Oracle], memos: list[dict], rows: np.ndarray, space: ChainProduct
) -> tuple[list[float], list[list[float]]]:
    """The extension of oracles[i] at row i of an (n, r) array of profiles.

    Returns the values and the flat subgradients, one per row.  Agent i's
    walk reads and fills memos[i], keyed by point number (see `_walk`).  The
    rows are not checked: callers pass rows that `check_rows` accepts.
    """
    top = space.top()
    walks = [
        _walk(f, memo, space, values, _descending(values), top)
        for f, memo, values in zip(oracles, memos, rows.tolist())
    ]
    return [value for value, _ in walks], [subgradient for _, subgradient in walks]


def greedy_extension(f: Oracle, rho: Profile, space: ChainProduct | None = None) -> ExtensionResult:
    """Extension value and subgradient of f at the profile rho.

    value = f(bottom) + sum_s t(s) * (f(y_s) - f(y_{s-1})) over the entries
    t(1) >= ... >= t(r) sorted descending, where y_s increments the chain
    the s-th entry belongs to.  Subgradient coordinate k (flat, in rho's
    layout) is the f-step recorded when k's chain first reached k's level.
    Costs exactly r + 1 oracle evaluations, r = sum(m_i) - N.

    Infeasible profiles are rejected, not projected.
    """
    space = space or f.space
    rho.validate(space)
    values = rho.values.tolist()
    order = _descending(values)
    value, subgradient = _walk(f, {}, space, values, order, space.top())
    x = [0] * space.n_chains
    points = [tuple(x)]
    for k in order:
        x[space.chain_of[k]] += 1
        points.append(tuple(x))
    return ExtensionResult(value=value, subgradient=np.array(subgradient), points=points, order=order)
