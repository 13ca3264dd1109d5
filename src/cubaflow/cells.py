"""Index arithmetic of the nested square cells, and the sphere's chart.

Cells of the two-dimensional kinds are squares of a square chart, indexed
along a Hilbert curve: consecutive squares share an edge, and an aligned
block of 4^e consecutive indices is a square of 2^e by 2^e cells.  The
torus squares its angle chart.  The sphere squares [-1, 1]^2 under the
octahedral equal-area map (Holhos and Rosca, Comput. Math. Appl. 67,
2014; Clarberg, J. Graphics Tools 13, 2008), whose Jacobian is pi
everywhere, so each of the 4^k level-k sphere cells has measure exactly
4^-k.  Sphere cells are not geodesic polygons, so their radii come from
distances to samples along their boundaries, made certain by the map's
largest stretches along an axis and a diagonal.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import _arc


# ---------------------------------------------------------------------------
# Hilbert index arithmetic


def _hilbert_turn(n, i, j, rx, ry):
    """Orient a sub-square of side n as Hilbert quadrant (rx, ry) needs:
    transposed in the lower two, also reversed in the lower right."""
    flip = (rx == 1) & (ry == 0)
    i, j = np.where(flip, n - 1 - i, i), np.where(flip, n - 1 - j, j)
    low = ry == 0
    return np.where(low, j, i), np.where(low, i, j)


def _orient(state, i, j):
    """Bits (i, j) under a sub-square orientation: bit 0 of ``state``
    transposes, bit 1 reverses both axes.  The four orientations (identity,
    transpose, half turn, anti-transpose) compose by xor."""
    swap, flip = state & 1, state >> 1
    return np.where(swap, j, i) ^ flip, np.where(swap, i, j) ^ flip


def _hilbert_tables():
    """Top-down decode tables of 4 Hilbert levels at once, indexed by
    ``state << 8 | digits``: the i bits, the j bits and the next state,
    already shifted to its place in the next key.  The one-level table is
    read off ``_hilbert_turn``: digit d puts its quadrant (rx, ry) under
    the current orientation and turns the orientation by the one that
    carries the bit pairs as the quadrant's turn does."""
    a, b = np.indices((2, 2)).reshape(2, -1)
    turn = []
    for d in range(4):
        rx, ry = d >> 1, (d & 1) ^ (d >> 1)
        want = _hilbert_turn(2, a, b, rx, ry)
        turn.append(next(t for t in range(4) if np.array_equal(_orient(t, a, b), want)))
    turn = np.asarray(turn, dtype=np.int64)
    key = np.arange(4 << 8, dtype=np.int64)
    state, i, j = key >> 8, np.zeros_like(key), np.zeros_like(key)
    for s in range(3, -1, -1):
        d = (key >> 2 * s) & 3
        bi, bj = _orient(state, d >> 1, (d & 1) ^ (d >> 1))
        i, j, state = (i << 1) | bi, (j << 1) | bj, state ^ turn[d]
    return i, j, state << 8


_HILBERT_I, _HILBERT_J, _HILBERT_NEXT = _hilbert_tables()


def _hilbert_decode(h, k: int):
    """Axis indices (i, j) of level-k Hilbert indices h among 2^k by 2^k
    squares.

    The curve runs from square (0, 0) to (2^k - 1, 0), consecutive indices
    are squares sharing an edge, and an aligned block of 4^e indices is a
    2^e by 2^e square.  The decode reads 4 levels at a time from the top:
    padded to 4 ceil(k / 4) levels, h gains leading zero digits, each of
    which transposes, so it starts transposed when their count is odd.
    """
    h = np.asarray(h, dtype=np.int64)
    top = -(-k // 4) * 4
    i, j = np.zeros_like(h), np.zeros_like(h)
    state = np.full_like(h, ((top - k) & 1) << 8)
    for shift in range(2 * top - 8, -1, -8):
        key = (h >> shift) & 255
        key |= state
        i <<= 4
        i |= _HILBERT_I.take(key)
        j <<= 4
        j |= _HILBERT_J.take(key)
        state = _HILBERT_NEXT.take(key)
    return i, j


def _hilbert_encode(i, j, k: int):
    """Hilbert indices of axis indices (i, j); inverts ``_hilbert_decode``."""
    n = np.int64(1) << k
    i, j = np.broadcast_arrays(np.asarray(i, dtype=np.int64) % n, np.asarray(j, dtype=np.int64) % n)
    h = np.zeros_like(i)
    for s in range(k - 1, -1, -1):
        rx, ry = (i >> s) & 1, (j >> s) & 1
        h = h + (((3 * rx) ^ ry) << (2 * s))
        i, j = _hilbert_turn(n, i, j, rx, ry)
    return h


def _aligned_blocks(lo, hi, top: int):
    """Aligned base-4 blocks tiling the cell ranges ``[lo[r], hi[r])``.

    Returns ``(run, start, exp)`` sorted by run and start: block b holds
    cells ``start .. start + 4**exp`` of range ``run``, with ``start`` a
    multiple of ``4**exp`` and ``exp <= top``.  A block is an aligned
    square of 2^exp by 2^exp cells, whose lower-left corner is any of its
    cells' axis indices rounded down to a multiple of 2^exp.
    Each range splits into at most 3 blocks per side and level below
    ``top``, plus its whole ``4**top`` units.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    a, b = lo.copy(), hi.copy()
    runs = np.arange(len(lo))
    out = []

    def emit(first, count, exp):
        rows = np.repeat(runs, count)
        step = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        out.append((rows, (np.repeat(first, count) + step) << (2 * exp),
                    np.full(len(rows), exp)))

    for exp in range(top + 1):
        if exp == top:
            emit(a, b - a, exp)
            break
        left = np.minimum(-a % 4, b - a)
        emit(a, left, exp)
        a = a + left
        right = np.minimum(b % 4, b - a)
        emit(b - right, right, exp)
        # both ends are now multiples of 4 (or meet), so one level up is exact
        a, b = a >> 2, (b - right) >> 2
    run, start, exp = (np.concatenate(x) for x in zip(*out))
    order = np.lexsort((start, run))
    run, start, exp = run[order], start[order], exp[order]
    covered = np.zeros(len(lo), dtype=np.int64)
    np.add.at(covered, run, np.int64(1) << (2 * exp))
    if not np.array_equal(covered, hi - lo):
        raise RuntimeError("aligned blocks do not tile their cell range")
    return run, start, exp


# ---------------------------------------------------------------------------
# The sphere's octahedral equal-area chart


def _octa_forward(u, v) -> np.ndarray:
    """Unit vectors ``(..., 3)`` of chart points (u, v) of the square [-1, 1]^2.

    With d = |u| + |v| and r = 1 - |1 - d|, the point has z = (1 - d)(1 + r)
    (that is, sign(1 - d)(1 - r^2)) and longitude (pi/4)((|v| - |u|)/r + 1)
    in the quadrant of (sign u, sign v): the inner diamond d < 1 is the
    northern hemisphere, the four corners the southern one.  The floor on
    r only keeps the poles, where r = 0, from dividing by zero.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    au, av = np.abs(u), np.abs(v)
    t = 1.0 - (au + av)
    r = 1.0 - np.abs(t)
    phi = (av - au) / np.maximum(r, 1e-300)
    phi += 1.0
    phi *= 0.25 * math.pi
    rho = np.sqrt(2.0 - r * r)
    rho *= r
    out = np.empty(u.shape + (3,))
    np.copysign(rho * np.cos(phi), u, out=out[..., 0])
    np.copysign(rho * np.sin(phi), v, out=out[..., 1])
    np.multiply(t, 1.0 + r, out=out[..., 2])
    return out


def _octa_inverse(xyz) -> tuple[np.ndarray, np.ndarray]:
    """Chart points (u, v) of unit vectors ``(..., 3)``, inverting
    ``_octa_forward``: r = hypot(x, y) / sqrt(1 + |z|), |v| - |u| =
    r (4 phi / pi - 1) and d = r or 2 - r by the sign of z.  The square's
    edges are glued, (u, 1) to (-u, 1) and (1, v) to (1, -v); a point on
    them comes back on the side the signs of x and y pick.
    """
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    r = np.hypot(x, y) / np.sqrt(1.0 + np.abs(z))
    s = r * (np.arctan2(np.abs(y), np.abs(x)) * (4.0 / math.pi) - 1.0)
    d = np.where(z >= 0.0, r, 2.0 - r)
    return np.copysign(0.5 * (d - s), x), np.copysign(0.5 * (d + s), y)


# Largest stretches of the chart, chart length to arc length, along an axis
# and along a diagonal.  On the triangle u, v >= 0, u + v <= 1 put r = u + v:
# the map is Lambert's azimuthal projection, r = sqrt(2) sin(theta / 2) for
# colatitude theta, with longitude phi = (pi / 2) v / r.  With c = cos(theta / 2),
# c^2 in [1/2, 1], the Jacobian's rows in the (theta, phi) frame are
# sqrt(2) / c (1, 1) and pi c / (sqrt(2) r) (-v, u), its determinant pi.  So
# |J e_u|^2 = 2 / c^2 + (pi^2 c^2 / 2) v^2 / r^2 <= 2 / c^2 + pi^2 c^2 / 2, convex
# in c^2 and largest at c^2 = 1: 2 + pi^2 / 2, and likewise |J e_v|.  And
# |J (1, 1)|^2 <= 8 / c^2 + pi^2 c^2 / 2 peaks at c^2 = 1/2 at 16 + pi^2 / 4,
# while |J (1, -1)|^2 = pi^2 c^2 / 2.  Sign flips of u and v and the fold
# (u, v) -> (1 - v, 1 - u) carry the other seven triangles isometrically onto
# this one, permuting the axes and the diagonals up to sign, and the map is
# continuous.  So, for a chart box about a centre c:
# - each point of it at offsets |x|, |y| <= m from c lies within _DIAG m of
#   the image of c, as |J (x, y)| is convex in (x, y), largest at a corner;
# - the ball about the image of c of radius (pi / _AXIS) times its smaller
#   half side lies in its image: a path leaving it must travel that far
#   along one axis, which costs at least det J / |J e| >= pi / _AXIS per unit
#   of chart length;
# - each boundary point lies within _AXIS s / 2 of a sample at spacing s.
_AXIS = math.sqrt(2.0 + 0.5 * math.pi**2)
_DIAG = math.sqrt(16.0 + 0.25 * math.pi**2)

# Samples per edge of a chart box.  Sampled distances are certified up to a
# slack of _AXIS side / (2 (n - 1)); the smallest inner radius of a box of
# side h is pi h / (2 _AXIS), so with 33 samples the slack stays under
# _AXIS^2 / (32 pi) < 0.07 of it.
_EDGE_SAMPLES = 33
# chart boxes whose boundary samples are held at once
_BOX_BATCH = 256


def _grid_points(level: int, pos) -> np.ndarray:
    """Unit vectors ``(..., 3)`` of chart positions ``(..., 2)`` given in
    level-cell widths from the corner (-1, -1) of the chart square."""
    uv = -1.0 + np.asarray(pos, dtype=float) * 2.0 ** (1 - level)
    return _octa_forward(uv[..., 0], uv[..., 1])


def _box_boundary(level: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors ``(k, 4 (_EDGE_SAMPLES - 1), 3)`` sampled around the
    boundaries of chart boxes from corner ``lo`` to ``hi``, ``(k, 2)`` in
    level-cell widths, and each box's slack: no boundary point is farther
    than that from its nearest sample."""
    lo, hi = (np.asarray(x, dtype=float)[:, None, :] for x in (lo, hi))
    u, v = (hi - lo) * [[1.0, 0.0]], (hi - lo) * [[0.0, 1.0]]
    s = np.arange(_EDGE_SAMPLES - 1)[:, None] / (_EDGE_SAMPLES - 1)
    # counter-clockwise from lo, each corner once
    pos = np.concatenate([lo + s * u, lo + u + s * v, hi - s * u, hi - u - s * v], axis=1)
    slack = _AXIS * 2.0 ** (1 - level) * np.max(hi - lo, axis=2)[:, 0] / (2.0 * (_EDGE_SAMPLES - 1))
    return _grid_points(level, pos), slack


def _box_reach(level: int, z, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Certified (nearest, farthest) distances from unit vectors ``z``
    ``(k, 3)`` to the boundaries of chart boxes from corner ``lo`` to
    ``hi`` ``(k, 2)`` in level-cell widths: the extreme samples less and
    plus the slack, and pi as the farthest where the box holds -z.  A
    box's image is the disk its boundary's image encloses, and the
    distance from z peaks nowhere but at -z."""
    if len(z) > _BOX_BATCH:
        return tuple(np.concatenate(x) for x in zip(*(
            _box_reach(level, *(a[b:b + _BOX_BATCH] for a in (z, lo, hi)))
            for b in range(0, len(z), _BOX_BATCH))))
    pts, slack = _box_boundary(level, lo, hi)
    d = _arc(z[:, None, :], pts)
    anti = (np.column_stack(_octa_inverse(-z)) + 1.0) * 2.0 ** (level - 1)
    holds = np.all((lo < anti) & (anti < hi), axis=1)
    return d.min(axis=1) - slack, np.where(holds, math.pi, d.max(axis=1) + slack)


# Levels whose cell radii are measured; trees deeper than that take the
# derived bounds, which hold at every level and dominate every measured
# one: the inner radius of a cell of side 2 * 2^-k is at least
# pi / _AXIS 2^-k, its outer at most _DIAG 2^-k, each certified to a slack
# of _AXIS / (_EDGE_SAMPLES - 1) 2^-k.
_MEASURED_LEVELS = 5
_RADII_BOUNDS = (math.pi / _AXIS - _AXIS / (_EDGE_SAMPLES - 1), _DIAG + _AXIS / (_EDGE_SAMPLES - 1))


@lru_cache(maxsize=None)
def _level_radii(level: int) -> tuple[float, float]:
    """(smallest inner, largest outer) certified radius of the level's
    cells, in units of 2^-level."""
    lo = np.indices((1 << level,) * 2).reshape(2, -1).T.astype(float)
    inner, outer = _box_reach(level, _grid_points(level, lo + 0.5), lo, lo + 1.0)
    return float(inner.min()) * 2**level, float(outer.max()) * 2**level
