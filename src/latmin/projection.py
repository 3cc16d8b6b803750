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
    return project_product(v, ChainProduct([v.size + 1])).values


def project_product(values, space: ChainProduct) -> Profile:
    """Chain-wise projection of a flat vector in `space`'s layout onto the feasible set."""
    values = np.asarray(values, dtype=float)
    if values.shape != (space.sort_length,):
        raise ValueError(
            f"expected a flat vector of length {space.sort_length}, got shape {values.shape}"
        )
    return Profile(space, project_rows(values[None], space)[0])


def project_rows(rows: np.ndarray, space: ChainProduct) -> np.ndarray:
    """`project_product` of every row of an (n, r) float array."""
    if not np.isfinite(rows).all():
        raise ValueError("projection input has non-finite entries")
    chains = [(start, end - start) for start, end in itertools.pairwise(space.offsets)]
    out: list[list[float]] = []
    for values in rows.tolist():
        row: list[float] = []
        for start, size in chains:
            # Each comparison below keeps the value np.clip and
            # np.minimum.accumulate would keep, down to the sign of a zero.
            if size == 1:
                v = values[start]
                row.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
            elif size == 2:
                a, b = values[start], values[start + 1]
                if a < b:
                    # PAVA pools a rising pair into (a*1 + b*1)/2, the same float.
                    a = b = (a + b) / 2
                # The clip is monotone, so the clipped pair is already non-increasing.
                row += (
                    0.0 if a < 0.0 else 1.0 if a > 1.0 else a,
                    0.0 if b < 0.0 else 1.0 if b > 1.0 else b,
                )
            else:
                chain: list[float] = []
                for mean, count in zip(*_pava_nonincreasing(values[start : start + size])):
                    # Clip to [0,1], then the running minimum: pooling computes
                    # block means in float, so monotonicity is re-imposed exactly.
                    level = 0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean
                    if chain and chain[-1] < level:
                        level = chain[-1]
                    chain += [level] * count
                row += chain
        out.append(row)
    return np.array(out)
