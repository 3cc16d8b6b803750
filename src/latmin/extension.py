"""Continuous extension of lattice functions and its subgradient.

A point of the relaxed domain is a *profile*: one non-increasing vector in
[0,1]^{m_i-1} per chain (the tail-cumulative coordinates of a product
probability measure; the leading coordinate is identically 1 and dropped).
The extension is computed by a single descending sort of all profile
entries, walking a monotone chain of lattice points from bottom to top and
charging each unit step with the entry that triggered it.  The subgradient
falls out of the same walk at no extra cost.

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
    """Per-chain non-increasing vectors in [0,1]; the relaxed search space."""

    parts: list[np.ndarray]

    @classmethod
    def from_point(cls, space: ChainProduct, point) -> "Profile":
        """Degenerate profile of a lattice point: ones up to the index, then zeros."""
        x = space.check_point(point)
        parts = []
        for xi, m in zip(x, space.dims):
            v = np.zeros(m - 1)
            v[:xi] = 1.0
            parts.append(v)
        return cls(parts)

    @classmethod
    def zeros(cls, space: ChainProduct) -> "Profile":
        return cls([np.zeros(m - 1) for m in space.dims])

    @classmethod
    def ones(cls, space: ChainProduct) -> "Profile":
        return cls([np.ones(m - 1) for m in space.dims])

    def copy(self) -> "Profile":
        return Profile([p.copy() for p in self.parts])

    def flat(self) -> np.ndarray:
        return np.concatenate(self.parts)

    def matches(self, space: ChainProduct) -> bool:
        return len(self.parts) == space.n_chains and all(
            len(p) == m - 1 for p, m in zip(self.parts, space.dims)
        )

    def validate(self, space: ChainProduct, tol: float = FEASIBILITY_TOL) -> None:
        if not self.matches(space):
            raise ValueError(
                f"profile shape {[len(p) for p in self.parts]} does not match "
                f"dims {space.dims}"
            )
        flat = self.flat()
        # Written as "not inside" so that NaN entries count as outside.
        outside = ~((flat >= -tol) & (flat <= 1.0 + tol))
        rises = np.diff(flat) > tol
        # A rise from the last entry of one chain to the first of the next is fine.
        ends = list(itertools.accumulate(len(p) for p in self.parts))
        rises[[e - 1 for e in ends[:-1]]] = False
        if not (outside.any() or rises.any()):
            return
        # Infeasible: find the first offending chain for the message.
        for i, p in enumerate(self.parts):
            if not np.all((p >= -tol) & (p <= 1.0 + tol)):
                raise ValueError(f"profile chain {i} leaves [0,1]: {p}")
            if np.any(np.diff(p) > tol):
                raise ValueError(f"profile chain {i} is not non-increasing: {p}")


def uniform_random_profile(space: ChainProduct, seed) -> Profile:
    """Per chain, m_i - 1 uniform draws sorted descending; deterministic per seed."""
    rng = np.random.default_rng(seed)
    parts = []
    for m in space.dims:
        v = np.sort(rng.uniform(0.0, 1.0, size=m - 1))[::-1]
        parts.append(np.ascontiguousarray(v))
    return Profile(parts)


def theta(rho: Profile, t: float):
    """Round a profile to a lattice point at threshold t.

    Per chain, the largest index l with rho_i(l) >= t, where the implicit
    0th coordinate is 1.  The comparison is closed so the map is
    deterministic at entry values.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold {t} outside [0,1]")
    return tuple(sum(v >= t for v in p.tolist()) for p in rho.parts)


@dataclass
class ExtensionResult:
    """Value, subgradient, and the sorted walk that produced them."""

    value: float
    subgradient: list[np.ndarray]
    points: list[tuple[int, ...]]
    entries: list[tuple[float, int, int]]


def _sorted_entries(rho: Profile) -> list[tuple[float, int, int]]:
    # Total order: value descending, then chain index, then in-chain position.
    # Within a chain the entries are already non-increasing, so position order
    # preserves the required in-chain sequencing for equal values.
    entries = [
        (v, i, j + 1)
        for i, part in enumerate(rho.parts)
        for j, v in enumerate(part.tolist())
    ]
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return entries


def _walk(f: Oracle, space: ChainProduct, entries) -> ExtensionResult:
    """Evaluate the extension given an explicit entry order (r+1 oracle calls)."""
    n = space.n_chains
    x = [0] * n
    points = [tuple(x)]
    prev = f(points[0])
    value = prev
    subgradient = [np.zeros(m - 1) for m in space.dims]
    for t, i, j in entries:
        x[i] += 1
        y = tuple(x)
        points.append(y)
        cur = f(y)
        step = cur - prev
        value += t * step
        # This entry is what lifted chain i to level x[i]; by in-chain order
        # preservation x[i] == j here.
        subgradient[i][x[i] - 1] = step
        prev = cur
    if points[-1] != space.top():
        raise RuntimeError(
            f"extension walk ended at {points[-1]}, not the lattice top "
            f"{space.top()}; profile entry bookkeeping is inconsistent"
        )
    return ExtensionResult(
        value=float(value), subgradient=subgradient, points=points, entries=list(entries)
    )


def greedy_extension(f: Oracle, rho: Profile, space: ChainProduct | None = None) -> ExtensionResult:
    """Extension value and subgradient of f at the profile rho.

    value = f(bottom) + sum_s t(s) * (f(y_s) - f(y_{s-1})) over the entries
    t(1) >= ... >= t(r) sorted descending, where y_s increments the chain
    the s-th entry belongs to.  Subgradient component (i, j) is the f-step
    recorded when chain i first reached level j.  Costs exactly r + 1
    oracle evaluations, r = sum(m_i) - N.

    Infeasible profiles are rejected, not projected.
    """
    space = space or f.space
    rho.validate(space)
    return _walk(f, space, _sorted_entries(rho))
