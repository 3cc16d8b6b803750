"""Euclidean projection onto the non-increasing box [0,1]^{m}_down.

The feasible set of the relaxed problem is, per chain, the set of
non-increasing vectors with entries in [0,1].  Projection decomposes
chain-wise; each chain is an isotonic regression with a box constraint.
Because every coordinate shares the same bounds, clipping the
unconstrained isotonic fit to [0,1] is exact, so the whole thing is
pool-adjacent-violators plus a clip: O(m), no QP solver.
"""

from __future__ import annotations

import math

import numpy as np

from .extension import Profile

CLAMP_TOL = 1e-12


def _pava_nonincreasing(values: list[float]) -> tuple[list[float], list[int]]:
    """Least-squares non-increasing fit by pooling adjacent violators.

    Returns the pooled block means and the block lengths.
    """
    means: list[float] = []
    counts: list[int] = []
    for x in values:
        means.append(x)
        counts.append(1)
        while len(means) > 1 and means[-2] < means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    return means, counts


def project_monotone_box(v) -> np.ndarray:
    """Closest non-increasing vector with entries in [0,1], in the l2 sense.

    The minimizer is unique; output feasibility is enforced bit-exactly
    (round-off from the pooling averages is clamped away).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("projection input must be a non-empty 1-d vector")
    values = v.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("projection input has non-finite entries")
    out: list[float] = []
    for mean, count in zip(*_pava_nonincreasing(values)):
        # Clip to [0,1], then the running minimum: pooling computes block
        # means in float, so monotonicity is re-imposed exactly.  Each
        # comparison keeps the value np.clip and np.minimum.accumulate
        # would keep, down to the sign of a zero.
        level = 0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean
        if out and out[-1] < level:
            level = out[-1]
        out += [level] * count
    return np.array(out)


def project_product(parts, space=None) -> Profile:
    """Chain-wise projection of profile-shaped vectors onto the feasible set."""
    if space is not None and len(parts) != space.n_chains:
        raise ValueError(
            f"expected {space.n_chains} chain vectors, got {len(parts)}"
        )
    projected = []
    for i, p in enumerate(parts):
        p = np.asarray(p, dtype=float)
        if space is not None and p.size != space.dims[i] - 1:
            raise ValueError(
                f"chain {i}: expected length {space.dims[i] - 1}, got {p.size}"
            )
        projected.append(project_monotone_box(p))
    return Profile(projected)
