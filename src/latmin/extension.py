"""Continuous extension of lattice functions and its subgradient.

A point of the relaxed domain is a *profile*: one non-increasing vector in
[0,1]^{m_i-1} per chain (the tail-cumulative coordinates of a product
probability measure; the leading coordinate is identically 1 and dropped),
held as one flat array in the layout its `ChainProduct` fixes.  The
extension is computed by a single stable descending sort of all profile
entries, walking a monotone chain of lattice points from bottom to top and
charging each unit step with the entry that triggered it.  The subgradient
falls out of the same walk at no extra cost.  `check_row` checks one
profile held as a list and `rounding_rule` rounds one to the number of its
lattice point, which `point_of_number` decodes; `Profile.validate` and
`theta` apply them to a `Profile`.  The walk reads oracle values from a
dict the caller owns and evaluates only the points missing there; a solve
keeps one dict per agent.

For chains of size 2 this is exactly the classical relaxation of set
functions on the unit hypercube; no separate code path exists for that
case.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import ChainProduct, Oracle, _require_oracle_space

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
        check_row(v.tolist(), space, tol)


def check_row(values: list[float], space: ChainProduct, tol: float = FEASIBILITY_TOL) -> None:
    """Raise unless `values`, a list in `space`'s flat layout, is a feasible profile.

    The message names the first offending chain.
    """
    lo, hi = -tol, 1.0 + tol
    # Written as "not inside" so that NaN entries count as outside.  A rise
    # from the last entry of one chain to the first of the next is fine.
    if all(lo <= v <= hi for v in values) and not any(
        values[k + 1] - values[k] > tol for k in space.in_chain_steps
    ):
        return
    for i, (start, end) in enumerate(itertools.pairwise(space.offsets)):
        p = np.array(values[start:end])
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
    """Round a profile to a lattice point at threshold t (see `rounding_rule`)."""
    number = rounding_rule(rho.space, t)(rho.values.tolist())
    return point_of_number(rho.space, number)


def rounding_rule(space: ChainProduct, t: float) -> Callable[[list[float]], int]:
    """The one rounding rule: a profile list in `space`'s flat layout to the
    number, in `space.points()` order, of its lattice point at threshold t.

    Per chain the point's level is the chain's count of entries >= t: for
    a non-increasing chain, the largest index l with rho_i(l) >= t, where
    the implicit 0th coordinate is 1.  So each entry >= t adds its chain's
    stride to the number.  The comparison is closed so the map is
    deterministic at entry values.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold {t} outside [0,1]")
    place = [space.strides[i] for i in space.chain_of]
    # operator.le, not t.__le__: a float's own method returns the truthy
    # NotImplemented for a numpy scalar entry.
    at_least_t = functools.partial(operator.le, t)
    return lambda row: sum(itertools.compress(place, map(at_least_t, row)))


def point_of_number(space: ChainProduct, number: int) -> tuple[int, ...]:
    """The lattice point numbered `number` in `space.points()` order."""
    return tuple(number // s % m for s, m in zip(space.strides, space.dims))


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


def greedy_extension(f: Oracle, rho: Profile, space: ChainProduct | None = None) -> ExtensionResult:
    """Extension value and subgradient of f at the profile rho.

    value = f(bottom) + sum_s t(s) * (f(y_s) - f(y_{s-1})) over the entries
    t(1) >= ... >= t(r) sorted descending, where y_s increments the chain
    the s-th entry belongs to.  Subgradient coordinate k (flat, in rho's
    layout) is the f-step recorded when k's chain first reached k's level.
    Costs exactly r + 1 oracle evaluations, r = sum(m_i) - N.

    Infeasible profiles are rejected, not projected, and so is a `space`
    other than f's.
    """
    space = space or f.space
    _require_oracle_space(f, space)
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
