"""Index arithmetic and triangle tables of the nested cell families.

Torus cells are indexed in Morton order: bit p of the first axis index
goes to bit 2p, of the second to bit 2p + 1, so an aligned block of 4^e
consecutive indices is a square of 2^e by 2^e cells.  Sphere cells are
octahedral triangles quartered through edge midpoints, the children of
triangle t at indices 4t..4t+3, so an aligned block of 4^e indices is one
triangle e levels coarser.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import _neumaier_cumsum


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
    """Stable geodesic arc length between unit vectors (vectorized)."""
    cr = np.cross(u, v)
    return np.arctan2(np.linalg.norm(cr, axis=-1), np.sum(u * v, axis=-1))


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


def _subdivide(verts: np.ndarray, tris: np.ndarray):
    """Quarter every triangle through deduplicated edge midpoints."""
    T = len(tris)
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    uniq, inv = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True)
    mids = verts[uniq[:, 0]] + verts[uniq[:, 1]]
    mids /= np.linalg.norm(mids, axis=1, keepdims=True)
    mid_id = len(verts) + np.arange(len(uniq), dtype=np.int64)
    verts = np.vstack([verts, mids])
    mab = mid_id[inv[:T]]
    mbc = mid_id[inv[T : 2 * T]]
    mca = mid_id[inv[2 * T :]]
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    children = np.empty((4 * T, 3), dtype=np.int64)
    children[0::4] = np.column_stack([a, mab, mca])
    children[1::4] = np.column_stack([mab, b, mbc])
    children[2::4] = np.column_stack([mca, mbc, c])
    children[3::4] = np.column_stack([mab, mbc, mca])
    return verts, children


def _sphere_level_entry(verts: np.ndarray, tris: np.ndarray) -> dict:
    A, B, C = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    raw = _tri_area_raw(A, B, C)
    scale = 1.0 / math.fsum(raw.tolist())
    areas = raw * scale
    inner, outer = _tri_inner_outer(A, B, C)
    return {
        "verts": verts,
        "tris": tris,
        "areas": areas,
        "prefix": _neumaier_cumsum(np.concatenate([[0.0], areas])),
        "scale": scale,
        "centers": _tri_centers(A, B, C),
        "inner": inner,
        "outer": outer,
    }


@lru_cache(maxsize=16)
def _sphere_levels(depth: int) -> dict:
    """Octahedral triangle hierarchy, levels 1..depth.

    Children of triangle t sit at indices 4t..4t+3, so descendant index
    ranges stay contiguous.  Areas are normalized per level to sum to
    one exactly; cuts reuse the same per-level scale factor so partial
    pieces stay additive to the whole-cell values.
    """
    if depth == 1:
        verts = np.array(
            [
                [1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
            ]
        )
        tris = []
        for sx in (0, 1):
            for sy in (0, 1):
                for sz in (0, 1):
                    tri = [0 + sx, 2 + sy, 4 + sz]
                    A, B, C = verts[tri]
                    if np.dot(np.cross(A, B), C) < 0.0:
                        tri = [tri[1], tri[0], tri[2]]
                    tris.append(tri)
        tris = np.asarray(tris, dtype=np.int64)
        return {1: _sphere_level_entry(verts, tris)}
    levels = dict(_sphere_levels(depth - 1))
    last = levels[depth - 1]
    verts, tris = _subdivide(last["verts"], last["tris"])
    levels[depth] = _sphere_level_entry(verts, tris)
    return levels


@lru_cache(maxsize=16)
def _sphere_neighbors(level: int) -> np.ndarray:
    """Edge-sharing neighbor triples per triangle, sorted per row."""
    lev = _sphere_levels(level)[level]
    tris = lev["tris"]
    T = len(tris)
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    uniq, inv = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True)
    owner = np.tile(np.arange(T, dtype=np.int64), 3)
    order = np.argsort(inv, kind="stable")
    inv_s, owner_s = inv[order], owner[order]
    if not (len(uniq) * 2 == len(inv_s) and np.all(inv_s[0::2] == inv_s[1::2])):
        raise RuntimeError("triangulation is not edge-to-edge")
    pair = owner_s.reshape(-1, 2)
    other = np.empty((len(uniq), 2), dtype=np.int64)
    other[:, 0], other[:, 1] = pair[:, 1], pair[:, 0]
    nbr = np.empty((T, 3), dtype=np.int64)
    slot = np.zeros(T, dtype=np.int64)
    for eid in range(len(uniq)):
        for s in range(2):
            t = pair[eid, s]
            nbr[t, slot[t]] = other[eid, s]
            slot[t] += 1
    if not np.all(slot == 3):
        raise RuntimeError("triangle with wrong neighbor count")
    return np.sort(nbr, axis=1)


def _edge_sides(V: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Smallest signed edge-circle distances ``(k, m)`` of points p ``(k, 3)``
    to triangles V ``(k or 1, m, 3, 3)``; >= 0 means inside."""
    n = np.cross(V, np.roll(V, -1, axis=-2))
    nn = np.maximum(np.linalg.norm(n, axis=-1), 1e-300)
    return np.min(np.sum(n * p[:, None, None, :], axis=-1) / nn, axis=-1)
