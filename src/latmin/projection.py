"""Euclidean projection onto the non-increasing box [0,1]^{m}_down.

The feasible set of the relaxed problem is, per chain, the set of
non-increasing vectors with entries in [0,1].  Projection decomposes
chain-wise; each chain is an isotonic regression with a box constraint.
Because every coordinate shares the same bounds, clipping the
unconstrained isotonic fit to [0,1] is exact, so the whole thing is
pool-adjacent-violators plus a clip: O(m), no QP solver.

A lattice's shape never changes within a solve, so the projection is one
straight-line function per chain-product shape, a *kernel*, generated
and compiled once (`_kernel`).  It takes a row, a subgradient and a step
gamma, computes each stepped entry `m - gamma * g` as a local, refuses a
non-finite one before it projects anything, and projects chain by chain.
There is one pooling rule, the stack loop `_pool`; `_pooling` writes out
its tree of tests and pooled means on a chain's names, in its arithmetic
and operand order.  A chain of one or two coordinates is written so into
the kernel, one of three or four calls `_pool3` or `_pool4`, written so
and compiled once at import, and a longer one calls `_pool`.  Each
chain's output is non-increasing, so an entry counts toward the rounded
point exactly when it is at least the threshold t: the kernel counts
what `extension.theta` counts, adding the chain's stride for each such
entry, and returns the rounded point's number with the projected row.
The kernel is the one projection: `project_product` calls it with a zero
step and no threshold.

Kernels are kept in a cache keyed by `dims` and bounded at
`KERNEL_CACHE_SIZE`, least recently used first out: a solve reuses its
shape's kernel, while a process that meets shape after shape (a sweep
over random lattices, a property test) holds at most that many.  The
compile stays per shape: a kernel of one call per chain would need none
but runs slower per round, and writing `_pool3` and `_pool4` into each
kernel would lengthen every compile.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .extension import Profile
from .lattice import ChainProduct

# The most kernels kept at once, each for one lattice shape.
KERNEL_CACHE_SIZE = 256

# The most terms of one sum in the finiteness test.  A sum nests one level
# per term, and on Python 3.11 one of 3000 terms exceeds the compiler's
# recursion limit, so a long row is tested in several sums.
_TERMS_PER_SUM = 32


def _pool(values: list[float], t: float) -> tuple[list[float], int]:
    """A chain of any length projected in the stack loop, and its count of
    entries >= t.

    Pool adjacent violators: the incoming entry absorbs each block before
    it that it rises above, into the least-squares non-increasing fit's
    block means and lengths.  A mean is pushed only onto one that is not
    smaller, so the means never rise, and the clip is monotone: the
    clipped blocks are non-increasing as they stand.
    """
    means: list[float] = []
    counts: list[int] = []
    for x in values:
        count = 1
        while means and means[-1] < x:
            mean, n = means.pop(), counts.pop()
            x = (mean * n + x * count) / (n + count)
            count += n
        means.append(x)
        counts.append(count)
    row: list[float] = []
    above = 0
    for mean, count in zip(means, counts):
        level = 0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean
        row += [level] * count
        if level >= t:
            above += count
    return row, above


def _pooling(names: list[str], blocks=(), indent: str = "    ", keyword: str = "if") -> list[str]:
    """Function-body lines that project `names` in place: `_pool`'s stack run on
    them and written out as a tree, then a clip of each to [0,1].

    In the recursion `blocks` is the stack, the incoming block last, each a
    run of names whose first holds its mean, and `names` are those to come.
    Each `means[-1] < x` is an `if` whose body gives both blocks the pooled
    mean in the stack's arithmetic, (mean*n + x*count)/(n + count) with a
    factor 1 dropped, and tests again; after a failed test the next name
    comes in, its first test an `elif`.  Each comparison keeps the value
    np.clip and np.minimum.accumulate would keep, down to the sign of a zero.
    """
    lines = []
    if len(blocks) > 1:
        *stack, top, x = blocks
        mean = " + ".join(b[0] if len(b) == 1 else f"{b[0]} * {len(b)}" for b in (top, x))
        lines += [
            f"{indent}{keyword} {top[0]} < {x[0]}:",
            f"{indent}    {' = '.join(top + x)} = ({mean}) / {len(top + x)}",
            *_pooling(names, [*stack, top + x], indent + "    "),
        ]
        keyword = "elif"
    if names:
        lines += _pooling(names[1:], [*blocks, names[:1]], indent, keyword)
    if not blocks:
        lines += (f"    {x} = 0.0 if {x} < 0.0 else 1.0 if {x} > 1.0 else {x}" for x in names)
    return lines


def _pool_source(m: int) -> str:
    """The source of `_pool{m}(a, ..., t)`: a chain of m coordinates projected
    by `_pooling`, returned with its count of entries >= t."""
    chain = list("abcd"[:m])
    args = ", ".join(chain)
    # The chain is non-increasing: its last entry >= t means all count.
    above = "".join(f"{k} if {chain[k - 1]} >= t else " for k in range(m, 0, -1))
    return "\n".join([f"def _pool{m}({args}, t):", *_pooling(chain), f"    return {args}, {above}0"]) + "\n"


def _function(source: str, name: str, filename: str, **namespace):
    """The function `name` that `source` defines, compiled with `namespace` as its globals."""
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


_pool3, _pool4 = (_function(_pool_source(m), f"_pool{m}", f"<projection _pool{m}>") for m in (3, 4))


def _source(space: ChainProduct) -> str:
    """The kernel's source for `space`, into which only integers are written: chain i's
    span flat[offsets[i]:offsets[i + 1]], and strides[i], added per entry that rounds up."""
    r = space.sort_length
    names = [f"x{k}" for k in range(r)]
    lines = [
        "def kernel(m, g, gamma, t):",
        f"    {', '.join(f'm{k}' for k in range(r))}, = m",
        f"    {', '.join(f'g{k}' for k in range(r))}, = g",
        *(f"    x{k} = m{k} - gamma * g{k}" for k in range(r)),
        # 0.0 * x is a zero for a finite x and NaN for an infinite or NaN one.
        "    if not ("
        + " and ".join(
            " + ".join(f"0.0 * {x}" for x in names[i : i + _TERMS_PER_SUM]) + " == 0.0"
            for i in range(0, r, _TERMS_PER_SUM)
        )
        + "):",
        '        raise ValueError("projection input has non-finite entries")',
        "    number = 0",
    ]
    row = []
    for start, end, stride in zip(space.offsets, space.offsets[1:], space.strides):
        chain = names[start:end]
        args = ", ".join(chain)
        if len(chain) > 4:
            lines += [f"    p{start}, above = _pool([{args}], t)", f"    number += above * {stride}"]
        elif len(chain) > 2:
            lines += [f"    {args}, above = _pool{len(chain)}({args}, t)", f"    number += above * {stride}"]
        else:
            lines += _pooling(chain)
            # The chain is non-increasing: its last entry >= t means all count.
            for size in range(len(chain), 0, -1):
                keyword = "if" if size == len(chain) else "elif"
                lines += [f"    {keyword} {chain[size - 1]} >= t:", f"        number += {size * stride}"]
        row += [f"*p{start}"] if len(chain) > 4 else chain
    lines.append(f"    return [{', '.join(row)}], number")
    return "\n".join(lines) + "\n"


def _compile(space: ChainProduct):
    """The kernel of `space`'s shape, compiled."""
    pools = {"_pool": _pool, "_pool3": _pool3, "_pool4": _pool4}
    return _function(_source(space), "kernel", f"<projection kernel {space.dims}>", **pools)


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(dims: tuple[int, ...]):
    """The projection of lattices of shape `dims`:
    `kernel(m, g, gamma, t) -> (row, number)`.

    It projects the list of every `m[k] - gamma * g[k]` in the flat layout
    and returns the projection as a list, with the number of the point it
    rounds to at threshold t: it counts what `extension.theta` counts, and
    every entry >= t adds its chain's stride.  An infinite t counts
    nothing.  A non-finite stepped entry raises a ValueError before
    anything is projected.  `m` and `g` are lists of r floats.
    """
    return _compile(ChainProduct(dims))


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
    row, _ = _kernel(space.dims)(values.tolist(), [0.0] * space.sort_length, 0.0, math.inf)
    return Profile(space, np.array(row))
