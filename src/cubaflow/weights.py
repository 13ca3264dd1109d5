"""Weight vectors: validation, generators, block aggregation.

A weight vector is a list of positive reals summing to one.  Its *band*
``(a, b)`` with ``0 < a <= 1 <= b`` constrains every entry to
``a/n <= w_j <= b/n``; the tightest such pair is ``(n*min, n*max)``.
Solvers downstream assume banded weights; aggregation relaxes the lower
bound to zero and repairs it by merging small weights into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightVector",
    "BlockAggregation",
    "validate_weights",
    "block_aggregate",
    "concentrated_weights",
    "random_band_weights",
]

_SUM_TOL = 1e-12
_BAND_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Validated weights, optionally with a declared band."""

    values: np.ndarray
    band_lo: float | None = None
    band_hi: float | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("weights must form a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("weights must be finite")
        if np.any(vals <= 0.0):
            raise ValueError("weights must be strictly positive")
        total = float(np.sum(vals))
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "values", vals)
        if (self.band_lo is None) != (self.band_hi is None):
            raise ValueError("declare both band endpoints or neither")
        if self.band_lo is not None:
            a, b = float(self.band_lo), float(self.band_hi)
            if not (0.0 < a <= 1.0 <= b):
                raise ValueError("band must satisfy 0 < a <= 1 <= b")
            n = vals.size
            slack = _BAND_TOL / n
            if vals.min() < a / n - slack or vals.max() > b / n + slack:
                raise ValueError(
                    f"weights leave declared band [{a}/{n}, {b}/{n}]"
                )
            object.__setattr__(self, "band_lo", a)
            object.__setattr__(self, "band_hi", b)

    @property
    def n(self) -> int:
        return self.values.size

    def fitted_band(self) -> tuple[float, float]:
        """Tightest (a, b) with a/n <= w_j <= b/n for every entry."""
        n = self.values.size
        return n * float(self.values.min()), n * float(self.values.max())


def validate_weights(
    values, band_lo: float | None = None, band_hi: float | None = None
) -> WeightVector:
    """Check positivity, unit sum, and optional band; return the vector."""
    return WeightVector(np.asarray(values, dtype=float), band_lo, band_hi)


@dataclass(frozen=True)
class BlockAggregation:
    """Result of merging sorted weights into contiguous blocks.

    ``block_sums[i]`` is the total weight of block ``i``;
    ``block_of[j]`` is the block receiving original weight ``j``;
    ``order`` is the ascending sort permutation that was applied.
    """

    block_sums: np.ndarray
    block_of: np.ndarray
    order: np.ndarray

    @property
    def m(self) -> int:
        return self.block_sums.size


def block_aggregate(values) -> BlockAggregation:
    """Merge weights into the shortest ascending prefix runs with sum >= 1/n.

    Accepts a WeightVector or a raw nonnegative array summing to 1 (zero
    entries are allowed here, unlike WeightVector).  With b = n max w_j,
    each block satisfies 1/n <= W_i <= (b+1)/n, which forces at least
    n/(b+1) blocks.
    """
    vals = values.values if isinstance(values, WeightVector) else np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("weights must form a nonempty 1-d array")
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        raise ValueError("weights must be finite and nonnegative")
    total = float(np.sum(vals))
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    n = vals.size
    threshold = 1.0 / n

    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]

    # Greedy sweep.  Ascending order guarantees no short tail is left
    # behind: a leftover suffix with sum < 1/n would consist of the
    # largest entries, forcing every entry below 1/n and the total below
    # one.  A tail can appear only through rounding; merge it backwards.
    block_of_sorted = np.empty(n, dtype=np.intp)
    sums: list[float] = []
    acc = 0.0
    start = 0
    for j in range(n):
        acc += sorted_vals[j]
        if acc >= threshold - _SUM_TOL:
            block_of_sorted[start : j + 1] = len(sums)
            sums.append(acc)
            acc = 0.0
            start = j + 1
    if start < n:
        if not sums:
            raise ValueError("weights too small to form a single block")
        block_of_sorted[start:] = len(sums) - 1
        sums[-1] += acc

    block_of = np.empty(n, dtype=np.intp)
    block_of[order] = block_of_sorted
    return BlockAggregation(
        block_sums=np.array(sums), block_of=block_of, order=order
    )


def concentrated_weights(n: int) -> WeightVector:
    """Adversarial family: one dominant weight, the rest tiny and equal.

    w_1 = 1 - 1/(n+1) and w_j = 1/((n+1)(n-1)) for j >= 2.  The dominant
    weight exceeds 1/2, so no configuration can cancel the first-frequency
    residual on the circle; the fitted upper band n*w_1 grows without
    bound, which is the point of the example.
    """
    if n < 2:
        raise ValueError("need at least two weights")
    vals = np.full(n, 1.0 / ((n + 1) * (n - 1)))
    vals[0] = 1.0 - 1.0 / (n + 1)
    return WeightVector(vals)


def random_band_weights(n: int, a: float, b: float, seed: int) -> WeightVector:
    """Draw weights i.i.d. uniform on [a/n, b/n], then restore the unit sum.

    The repair shifts every entry by one common offset and clips into the
    band.  The clipped sum is monotone in the offset and brackets one at
    the band edges, so bisection always lands; feasibility needs only
    0 < a <= 1 <= b.  Deterministic per seed.
    """
    if n < 1:
        raise ValueError("need at least one weight")
    if not (0.0 < a <= 1.0 <= b):
        raise ValueError("band must satisfy 0 < a <= 1 <= b")
    lo, hi = a / n, b / n
    if a == b:
        return WeightVector(np.full(n, 1.0 / n), a, b)
    rng = np.random.default_rng(seed)
    draw = rng.uniform(lo, hi, size=n)
    s_lo, s_hi = lo - float(draw.max()), hi - float(draw.min())
    for _ in range(120):
        mid = 0.5 * (s_lo + s_hi)
        if float(np.sum(np.clip(draw + mid, lo, hi))) < 1.0:
            s_lo = mid
        else:
            s_hi = mid
    vals = np.clip(draw + 0.5 * (s_lo + s_hi), lo, hi)
    # push the rounding remainder into entries with slack on the right side
    gap = 1.0 - float(np.sum(vals))
    free = vals > lo + _BAND_TOL if gap < 0.0 else vals < hi - _BAND_TOL
    if free.any():
        vals[free] += gap / int(free.sum())
    vals = np.clip(vals, lo, hi)
    if vals.min() < lo - _BAND_TOL / n or vals.max() > hi + _BAND_TOL / n:
        raise RuntimeError("band projection failed to converge")
    return WeightVector(vals, a, b)
