"""Euclidean projection onto the non-increasing box [0,1]^{m}_down.

The feasible set of the relaxed problem is, per chain, the set of
non-increasing vectors with entries in [0,1].  Projection decomposes
chain-wise; each chain is an isotonic regression with a box constraint.
Because every coordinate shares the same bounds, clipping the
unconstrained isotonic fit to [0,1] is exact, so the whole thing is
pool-adjacent-violators plus a clip: O(m), no QP solver.  Chains of one
or two coordinates, every chain of a game step, are written out: a clip,
or the mean of a rising pair then a clip.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .extension import Profile
from .lattice import ChainProduct


def _pava_nonincreasing(values: list[float]) -> tuple[list[float], list[int]]:
    """Least-squares non-increasing fit by pooling adjacent violators.

    Returns the pooled block means and the block lengths.
    """
    means: list[float] = []
    counts: list[int] = []
    for x in values:
        count = 1
        # The incoming block absorbs each block before it that it rises above.
        while means and means[-1] < x:
            mean, n = means.pop(), counts.pop()
            x = (mean * n + x * count) / (n + count)
            count += n
        means.append(x)
        counts.append(count)
    return means, counts


def project_monotone_box(v) -> np.ndarray:
    """Closest non-increasing vector with entries in [0,1], in the l2 sense.

    The minimizer is unique; output feasibility is enforced bit-exactly
    (round-off from the pooling averages is clamped away).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("projection input must be a non-empty 1-d vector")
    return project_product(v, ChainProduct([v.size + 1])).values


def project_product(values, space: ChainProduct) -> Profile:
    """Chain-wise projection of a flat vector in `space`'s layout onto the feasible set."""
    values = np.asarray(values, dtype=float)
    if values.shape != (space.sort_length,):
        raise ValueError(
            f"expected a flat vector of length {space.sort_length}, got shape {values.shape}"
        )
    return Profile(space, np.array(project_row(values.tolist(), space)))


def project_row(values: list[float], space: ChainProduct) -> list[float]:
    """`project_product` of a list in `space`'s flat layout, returned as a list."""
    if not all(map(math.isfinite, values)):
        raise ValueError("projection input has non-finite entries")
    row: list[float] = []
    append = row.append
    for start, end in itertools.pairwise(space.offsets):
        size = end - start
        # Each comparison below keeps the value np.clip and
        # np.minimum.accumulate would keep, down to the sign of a zero.
        if size == 2:
            a, b = values[start], values[start + 1]
            if a < b:
                # PAVA pools a rising pair into (a*1 + b*1)/2, the same float.
                a = b = (a + b) / 2
            # The clip is monotone, so the clipped pair is already non-increasing.
            append(0.0 if a < 0.0 else 1.0 if a > 1.0 else a)
            append(0.0 if b < 0.0 else 1.0 if b > 1.0 else b)
        elif size == 1:
            v = values[start]
            append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        else:
            level = 1.0
            for mean, count in zip(*_pava_nonincreasing(values[start:end])):
                # Clip to [0,1], then the running minimum: pooling computes
                # block means in float, so monotonicity is re-imposed exactly.
                clipped = 0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean
                if clipped <= level:
                    level = clipped
                row += [level] * count
    return row
