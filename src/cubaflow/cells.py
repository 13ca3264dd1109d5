"""Index arithmetic and closed-form cells of the nested cell families.

Torus cells are indexed in Morton order: bit p of the first axis index
goes to bit 2p, of the second to bit 2p + 1, so an aligned block of 4^e
consecutive indices is a square of 2^e by 2^e cells.  Sphere cells are
octahedral triangles quartered through normalised edge midpoints, the
children of triangle t at indices 4t..4t+3, so an aligned block of 4^e
indices is one triangle e levels coarser.  As in the Hierarchical
Triangular Mesh, a cell's index names its root octant and one base-4
digit per level, and ``_sphere_tris`` descends them to its vertices;
nothing is stored per level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# Morton index arithmetic for the torus grid


# bit masks of the five spread steps: step s moves bits by 2^s
_BITS = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
         0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)


def _spread(v):
    """Move bit p of v (p < 32) to bit 2p."""
    for s in range(4, -1, -1):
        v = (v | (v << (1 << s))) & _BITS[s]
    return v


def _compact(v):
    """Move bit 2p of v to bit p, dropping odd bits; inverts ``_spread``."""
    v = v & _BITS[0]
    for s in range(5):
        v = (v | (v >> (1 << s))) & _BITS[s + 1]
    return v


def _morton_decode(m, k: int):
    m = np.asarray(m, dtype=np.int64) & ((1 << 2 * k) - 1)
    return _compact(m), _compact(m >> 1)


def _morton_encode(i, j, k: int):
    mask = (1 << k) - 1
    i = _spread(np.asarray(i, dtype=np.int64) & mask)
    return i | (_spread(np.asarray(j, dtype=np.int64) & mask) << 1)


def _aligned_blocks(lo, hi, top: int):
    """Aligned base-4 blocks tiling the cell ranges ``[lo[r], hi[r])``.

    Returns ``(run, start, exp)`` sorted by run and start: block b holds
    cells ``start .. start + 4**exp`` of range ``run``, with ``start`` a
    multiple of ``4**exp`` and ``exp <= top``.  A Morton block is an
    aligned square of torus cells, a sphere block one coarser triangle.
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
# Spherical triangle helpers (ambient unit vectors throughout)


def _arc(u, v):
    """Stable geodesic arc length between unit vectors (vectorized): the
    angle of ``|u x v|`` and ``u . v``, summed in np.cross and np.sum order."""
    u0, u1, u2, v0, v1, v2 = u[..., 0], u[..., 1], u[..., 2], v[..., 0], v[..., 1], v[..., 2]
    c0, c1, c2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    return np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), u0 * v0 + u1 * v1 + u2 * v2)


def _tri_area_raw(A, B, C):
    """Spherical excess of triangles via the half-side tangent formula."""
    a = _arc(B, C)
    b = _arc(C, A)
    c = _arc(A, B)
    s = 0.5 * (a + b + c)
    t = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))


def _slerp(B, C, t):
    theta = float(_arc(B, C))
    if theta < 1e-15:
        return B
    w = (math.sin((1.0 - t) * theta) * B + math.sin(t * theta) * C) / math.sin(
        theta
    )
    return w / np.linalg.norm(w)


def _tri_centers(A, B, C):
    z = A + B + C
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _tri_inner_outer(A, B, C):
    """Inscribed and circumscribed geodesic radii about the centroid."""
    z = _tri_centers(A, B, C)
    outer = np.maximum(_arc(z, A), np.maximum(_arc(z, B), _arc(z, C)))
    inner = np.full(outer.shape, np.inf)
    for U, V in ((A, B), (B, C), (C, A)):
        n = np.cross(U, V)
        nn = np.linalg.norm(n, axis=-1)
        sin_d = np.abs(np.sum(z * n, axis=-1)) / np.maximum(nn, 1e-300)
        inner = np.minimum(inner, np.arcsin(np.clip(sin_d, 0.0, 1.0)))
    return inner, outer


def _sphere_area(V: np.ndarray) -> np.ndarray:
    """Measures of spherical triangles V ``(k, 3, 3)``, a fraction of 4pi."""
    return _tri_area_raw(V[:, 0], V[:, 1], V[:, 2]) / (4.0 * math.pi)


def _sweep_pieces(V: np.ndarray, t0, t1) -> np.ndarray:
    """Sweep pieces [t0, t1] of triangles V ``(k, 3, 3)``, as triangles: the
    first corner and the points at t0 and t1 along the opposite edge."""
    t0, t1 = (np.clip(np.broadcast_to(t, len(V)), 0.0, 1.0) for t in (t0, t1))
    return np.array([[A, _slerp(B, C, a), _slerp(B, C, b)]
                     for (A, B, C), a, b in zip(V, t0, t1)]).reshape(-1, 3, 3)


# the 8 level-1 triangles, octant 4 sx + 2 sy + sz for coordinate signs (-1)^s,
# each ordered counter-clockwise seen from outside
_ROOTS = np.array([(B, A, C) if np.dot(np.cross(A, B), C) < 0.0 else (A, B, C) for A, B, C in
                   (np.diag([1.0 - 2.0 * (s >> k & 1) for k in (2, 1, 0)]) for s in range(8))])
# children of (a, b, c) as rows of (a, b, c, ab, bc, ca), ab the normalised
# midpoint of edge ab
_KIDS = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


def _sphere_children(V: np.ndarray) -> np.ndarray:
    """The four children ``(k, 4, 3, 3)`` of triangles V ``(k, 3, 3)``."""
    m = V + V[:, [1, 2, 0]]
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    return np.concatenate([V, m], axis=1)[:, _KIDS]


def _sphere_tris(level, idx) -> np.ndarray:
    """Vertices ``(k, 3, 3)`` of sphere cells ``idx`` of ``level`` (one level
    or one per cell): the root octant ``idx >> 2 (level - 1)``, then one
    base-4 digit per level picks the child."""
    idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
    level = np.broadcast_to(np.asarray(level, dtype=np.int64), idx.shape)
    V, rows = _ROOTS[idx >> 2 * (level - 1)], np.arange(len(idx))
    for depth in range(2, int(level.max(initial=1)) + 1):
        kids = _sphere_children(V)[rows, idx >> 2 * np.maximum(level - depth, 0) & 3]
        V = np.where((level >= depth)[:, None, None], kids, V)
    return V


def _sphere_cells(level: int, lo, hi) -> np.ndarray:
    """Vertices ``(n, 3, 3)`` of the level cells in ranges ``[lo[r], hi[r])``,
    in order: each aligned block's triangle is quartered down to the level."""
    _, start, exp = _aligned_blocks(lo, hi, level - 1)
    size = np.int64(1) << 2 * exp
    first = np.cumsum(size) - size
    out = np.empty((int(size.sum()), 3, 3))
    for e in np.unique(exp):
        mine = exp == e
        V = _sphere_tris(level - e, start[mine] >> 2 * e)
        for _ in range(e):
            V = _sphere_children(V).reshape(-1, 3, 3)
        out[(first[mine][:, None] + np.arange(1 << 2 * e)).ravel()] = V
    return out


@lru_cache(maxsize=4096)
def _sphere_range_measure(level: int, start: int, stop: int) -> float:
    """Measure of the level cells ``start .. stop``, one aligned block at a
    time; cached, as the material sweep measures most runs several times."""
    _, first, exp = _aligned_blocks([start], [stop], level - 1)
    return math.fsum(_sphere_area(_sphere_tris(level - exp, first >> 2 * exp)).tolist())


def _sphere_seek(level: int, start: int, stop: int, target: float) -> int:
    """The cell of ``start .. stop`` in which the running measure passes
    ``target``, or its last cell: the aligned block passing it is quartered
    until it is one cell."""
    _, first, exp = _aligned_blocks([start], [stop], level - 1)
    idx, V, acc = first >> 2 * exp, _sphere_tris(level - exp, first >> 2 * exp), 0.0
    while True:
        areas, j = _sphere_area(V).tolist(), 0
        while j + 1 < len(areas) and acc + areas[j] <= target:
            acc, j = acc + areas[j], j + 1
        if exp[j] == 0:
            return int(idx[j])
        idx, exp = 4 * idx[j] + np.arange(4), np.full(4, exp[j] - 1)
        V = _sphere_children(V[j:j + 1])[0]


@lru_cache(maxsize=16)
def _sphere_level_stats(level: int) -> tuple[float, float, float, float]:
    """(smallest, largest) cell measure and (smallest inner, largest outer)
    cell radius of one level.  Coordinate sign flips map the octants onto
    each other exactly, so the cells of octant 0 give them."""
    V = _sphere_cells(level, [0], [4 ** (level - 1)])
    area = _sphere_area(V)
    inner, outer = _tri_inner_outer(V[:, 0], V[:, 1], V[:, 2])
    return float(area.min()), float(area.max()), float(inner.min()), float(outer.max())


@lru_cache(maxsize=16)
def _sphere_neighbors(level: int) -> np.ndarray:
    """Edge-sharing neighbor triples per triangle, sorted per row; shared
    vertices are bit-identical wherever they are computed."""
    V = _sphere_cells(level, [0], [8 << 2 * (level - 1)])
    tris = np.unique(V.reshape(-1, 3), axis=0, return_inverse=True)[1].reshape(-1, 3)
    T = len(tris)
    e = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    if not np.all(np.unique(e, axis=0, return_counts=True)[1] == 2):
        raise RuntimeError("triangulation is not edge-to-edge")
    # the two occurrences of each edge belong to each other's neighbours
    pair = np.lexsort((e[:, 1], e[:, 0])).reshape(-1, 2)
    nbr = np.empty(3 * T, dtype=np.int64)
    nbr[pair[:, 0]], nbr[pair[:, 1]] = pair[:, 1] % T, pair[:, 0] % T
    return np.sort(nbr.reshape(3, T).T, axis=1)


def _edge_sides(V: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Smallest signed edge-circle distances ``(k, m)`` of points p ``(k, 3)``
    to triangles V ``(k or 1, m, 3, 3)``; >= 0 means inside."""
    n = np.cross(V, np.roll(V, -1, axis=-2))
    nn = np.maximum(np.linalg.norm(n, axis=-1), 1e-300)
    return np.min(np.sum(n * p[:, None, None, :], axis=-1) / nn, axis=-1)
