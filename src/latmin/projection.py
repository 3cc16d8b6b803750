"""Euclidean projection onto the non-increasing box [0,1]^{m}_down.

The feasible set of the relaxed problem is, per chain, the set of
non-increasing vectors with entries in [0,1].  Projection decomposes
chain-wise; each chain is an isotonic regression with a box constraint.
Because every coordinate shares the same bounds, clipping the
unconstrained isotonic fit to [0,1] is exact, so the whole thing is
pool-adjacent-violators plus a clip: O(m), no QP solver.  Chains of one
to four coordinates (every chain of a game step has two) are written
out: each decision of the pooling stack is one comparison, each pooled
mean has the stack's exact arithmetic and operand order, and a clip
follows.  The stack's means never rise and the clip is monotone, so no
running minimum is needed.  Chains of five or more coordinates pool in
the stack loop.  All go in one loop, with no call per chain, over the
(start, end, stride) table `ChainProduct.chain_spans` keeps.  Each
chain's output is non-increasing, so an entry counts toward the rounded
point exactly when it is at least the threshold: the loop that writes a
chain counts what `extension.theta` counts, adding its stride for each
such entry, and a solver reads the rounded point's number off the
projection with no second pass.
That loop, `_project`, is the one projection: `project_product` calls it
with no threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .extension import Profile
from .lattice import ChainProduct


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
    return Profile(space, np.array(_project(values.tolist(), space, math.inf)[0]))


def _project(values: list[float], space: ChainProduct, t: float) -> tuple[list[float], int]:
    """The projection of a list in `space`'s flat layout, as a list, and the number
    of the point it rounds to at threshold t: it counts what `extension.theta`
    counts, and every entry >= t adds its chain's stride.  An infinite t counts
    nothing."""
    if not all(map(math.isfinite, values)):
        raise ValueError("projection input has non-finite entries")
    row: list[float] = []
    append = row.append
    number = 0
    for start, end, stride in space.chain_spans:
        size = end - start
        # Each comparison below keeps the value np.clip and
        # np.minimum.accumulate would keep, down to the sign of a zero.
        if size == 2:
            a, b = values[start], values[start + 1]
            if a < b:
                # PAVA pools a rising pair into (a*1 + b*1)/2, the same float.
                a = b = (a + b) / 2
            # The clip is monotone, so the clipped pair is already non-increasing.
            a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
            b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
            append(a)
            append(b)
            # b <= a, so b >= t means both count.
            if b >= t:
                number += 2 * stride
            elif a >= t:
                number += stride
        elif size == 1:
            v = values[start]
            v = 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
            append(v)
            if v >= t:
                number += stride
        elif size == 3:
            a, b, c = values[start], values[start + 1], values[start + 2]
            # The pooling stack's decisions, each pooled mean in its arithmetic
            # (mean*n + x*count)/(n + count); a factor 1 is dropped, exactly.
            if a < b:
                a = b = (a + b) / 2
                if a < c:
                    a = b = c = (a * 2 + c) / 3
            elif b < c:
                b = c = (b + c) / 2
                if a < b:
                    a = b = c = (a + b * 2) / 3
            # The stack's means do not rise and the clip is monotone: no running minimum.
            a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
            b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
            c = 0.0 if c < 0.0 else 1.0 if c > 1.0 else c
            row += (a, b, c)
            if c >= t:
                number += 3 * stride
            elif b >= t:
                number += 2 * stride
            elif a >= t:
                number += stride
        elif size == 4:
            a, b, c, d = values[start], values[start + 1], values[start + 2], values[start + 3]
            # The first three as above, then d against the blocks they left.
            if a < b:
                a = b = (a + b) / 2
                if a < c:
                    a = b = c = (a * 2 + c) / 3
                    if a < d:
                        a = b = c = d = (a * 3 + d) / 4
                elif c < d:
                    c = d = (c + d) / 2
                    if a < c:
                        a = b = c = d = (a * 2 + c * 2) / 4
            elif b < c:
                b = c = (b + c) / 2
                if a < b:
                    a = b = c = (a + b * 2) / 3
                    if a < d:
                        a = b = c = d = (a * 3 + d) / 4
                elif b < d:
                    b = c = d = (b * 2 + d) / 3
                    if a < b:
                        a = b = c = d = (a + b * 3) / 4
            elif c < d:
                c = d = (c + d) / 2
                if b < c:
                    b = c = d = (b + c * 2) / 3
                    if a < b:
                        a = b = c = d = (a + b * 3) / 4
            a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
            b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
            c = 0.0 if c < 0.0 else 1.0 if c > 1.0 else c
            d = 0.0 if d < 0.0 else 1.0 if d > 1.0 else d
            row += (a, b, c, d)
            if d >= t:
                number += 4 * stride
            elif c >= t:
                number += 3 * stride
            elif b >= t:
                number += 2 * stride
            elif a >= t:
                number += stride
        else:
            # Pool adjacent violators: the incoming entry absorbs each block
            # before it that it rises above, into the least-squares
            # non-increasing fit's block means and lengths.
            means: list[float] = []
            counts: list[int] = []
            for x in values[start:end]:
                count = 1
                while means and means[-1] < x:
                    mean, n = means.pop(), counts.pop()
                    x = (mean * n + x * count) / (n + count)
                    count += n
                means.append(x)
                counts.append(count)
            level = 1.0
            for mean, count in zip(means, counts):
                # Clip to [0,1], then the running minimum: pooling computes
                # block means in float, so monotonicity is re-imposed exactly.
                clipped = 0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean
                if clipped <= level:
                    level = clipped
                row += [level] * count
                if level >= t:
                    number += count * stride
    return row, number
