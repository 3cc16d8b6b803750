"""Continuous extension of lattice functions and its subgradient.

A point of the relaxed domain is a *profile*: one non-increasing vector in
[0,1]^{m_i-1} per chain (the tail-cumulative coordinates of a product
probability measure; the leading coordinate is identically 1 and dropped),
held as one flat array in the layout its `ChainProduct` fixes.  The
extension is computed by a single stable descending sort of all profile
entries, walking a monotone chain of lattice points from bottom to top and
charging each unit step with the entry that triggered it.  The subgradient
falls out of the same walk and holds every f-step.  The extension is
linear on each cone of profiles that share one sort order (Lovász 1983),
so the subgradient `_walk` returns is its linear piece there, and `_value`
prices any profile of that cone from it without walking again.
`check_rows` is the one feasibility check, and `theta` the rounding rule.

For chains of size 2 this is exactly the classical relaxation of set
functions on the unit hypercube; no separate code path exists for that
case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import ChainProduct, Oracle, _require_oracle_space

FEASIBILITY_TOL = 1e-12

# The most floats one batch of an array pass over many rows holds, so its
# temporaries stay small next to the rows it reads.
_BATCH_FLOATS = 1 << 12


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

    def validate(self, space: ChainProduct) -> None:
        v = self.values
        if self.space.dims != space.dims or v.shape != (space.sort_length,):
            raise ValueError(
                f"profile of shape {v.shape} on dims {self.space.dims} does not "
                f"match dims {space.dims}"
            )
        check_rows(v[None], space)


def check_rows(rows, space: ChainProduct) -> None:
    """Raise unless every row of `rows`, an (m, r) array in `space`'s flat layout,
    is a feasible profile: every entry inside [0,1] and no chain rising, each
    within `FEASIBILITY_TOL`.

    The message names the first infeasible row's first offending chain; a
    chain that leaves [0,1] is named so even if it also rises.  Rows go in
    batches of at most `_BATCH_FLOATS` entries.  A batch passes on three
    reductions, its least and largest entry and its largest in-chain rise,
    any NaN failing all three; only a batch that fails them is scanned
    row by row and chain by chain, in order.
    """
    rows = np.asarray(rows, dtype=float)
    steps = np.array(space.in_chain_steps, dtype=np.intp)
    batch = max(1, _BATCH_FLOATS // space.sort_length)
    for start in range(0, len(rows), batch):
        block = rows[start : start + batch]
        # Entries inside the bounds are finite, so their rises are too.
        if (
            block.min() >= -FEASIBILITY_TOL
            and block.max() <= 1.0 + FEASIBILITY_TOL
            and (block[:, steps + 1] - block[:, steps]).max(initial=-np.inf) <= FEASIBILITY_TOL
        ):
            continue
        for row in block.tolist():
            for chain, (a, b) in enumerate(itertools.pairwise(space.offsets)):
                p = row[a:b]
                # "Not inside" counts NaN as outside; inside entries and their rises are finite.
                if not all(-FEASIBILITY_TOL <= v <= 1.0 + FEASIBILITY_TOL for v in p):
                    raise ValueError(f"profile chain {chain} leaves [0,1]: {np.array(p)}")
                if any(w - v > FEASIBILITY_TOL for v, w in itertools.pairwise(p)):
                    raise ValueError(f"profile chain {chain} is not non-increasing: {np.array(p)}")


def uniform_random_profile(space: ChainProduct, seed) -> Profile:
    """Per chain, m_i - 1 uniform draws sorted descending; deterministic per seed."""
    draws = np.random.default_rng(seed).uniform(0.0, 1.0, size=space.sort_length).tolist()
    values = [
        v for start, end in itertools.pairwise(space.offsets) for v in sorted(draws[start:end], reverse=True)
    ]
    return Profile(space, np.array(values))


def theta(rho: Profile, t: float) -> tuple[int, ...]:
    """The rounding rule: the lattice point of a profile at threshold t.

    Per chain the point's level is the chain's count of entries >= t: for
    a non-increasing chain, the largest index l with rho_i(l) >= t, where
    the implicit 0th coordinate is 1.  The comparison is closed so the map
    is deterministic at entry values.  On a projected row the projection
    counts the same entries (`projection._kernel`).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold {t} outside [0,1]")
    values = rho.values.tolist()
    return tuple(sum(v >= t for v in values[a:b]) for a, b in itertools.pairwise(rho.space.offsets))


@dataclass
class ExtensionResult:
    """The extension's value and flat subgradient at a profile."""

    value: float
    subgradient: np.ndarray


def _walk(f: Oracle, memo: dict, space: ChainProduct, order) -> list[float]:
    """The linear piece of the extension on the cone of an order of flat indices:
    the flat subgradient, whose entries are the walk's f-steps.

    The r + 1 walk points are read from `memo`, keyed by their number in
    `space.points()` order; only a point missing there is evaluated and
    stored.  A missing point is read from `f.fn` directly and counted in
    `f.calls` as `f` counts it; a value that overflows or is not finite is
    asked for again through `f`, which raises naming the point.  `_value`
    prices any profile with this order from the subgradient.
    """
    chain_of, offsets, strides = space.chain_of, space.offsets, space.strides
    fn = f.fn
    x = [0] * space.n_chains
    code = 0
    if code not in memo:
        memo[code] = f(tuple(x))
    prev = memo[code]
    subgradient = [0.0] * space.sort_length
    misses = 0
    try:
        for k in order:
            i = chain_of[k]
            x[i] += 1
            code += strides[i]
            cur = memo.get(code)
            if cur is None:
                point = tuple(x)
                misses += 1
                try:
                    cur = float(fn(point))
                except OverflowError:  # asked for again below, like a value that is not finite
                    cur = math.nan
                if not math.isfinite(cur):
                    misses -= 1
                    cur = f(point)
                memo[code] = cur
            # The step belongs to the level chain i just reached: k itself,
            # unless a rise within tolerance put a later entry of the chain first.
            subgradient[offsets[i] + x[i] - 1] = cur - prev
            prev = cur
    finally:
        f.calls += misses
    return subgradient


def _value(bottom: float, row: list[float], order, subgradient: list[float], space: ChainProduct) -> float:
    """The extension's value at `row` on `order`'s cone: `bottom`, f at the
    lattice bottom, plus row[k] times its f-step for each k, added in visit
    order.  The step of a visit that lifts chain i to level l is
    subgradient[offsets[i] + l - 1], so the chain levels are replayed along
    `order`."""
    chain_of = space.chain_of
    # Chain i's next level's step is subgradient[slot[i]].
    slot = list(space.offsets)
    value = bottom
    for k in order:
        i = chain_of[k]
        value += row[k] * subgradient[slot[i]]
        slot[i] += 1
    return value


def _descending(values: list[float]) -> list[int]:
    """Flat indices by value descending.

    The sort is stable, so equal values keep flat order, which is (chain,
    in-chain position).  Within a chain the entries are non-increasing, so
    position order keeps the in-chain sequencing.  A solve's round writes
    this sort out in place; the tests that hold a solve byte-equal to one
    sorting through `greedy_extension` keep the two the same.
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
    memo = {}
    subgradient = _walk(f, memo, space, order)
    value = _value(memo[0], values, order, subgradient, space)
    return ExtensionResult(value=value, subgradient=np.array(subgradient))
