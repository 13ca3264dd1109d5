"""Representatives and certified radii of partition regions, and an
independent check of their outer balls.

A region is a list of runs of fine cells (see ``partition.Region``): whole
cells plus cut pieces.  Its representative is the whole cell nearest its
measure centroid, the lowest-index one among those within 1e-9 cell widths
of the nearest, or its largest piece when it has no whole cell; its outer
radius reaches the farthest whole cell or piece.  Whole cells are taken as
blocks: arcs on the circle and the ellipse, and on the torus and the
sphere aligned squares, whose corners come from the Hilbert axes of their
first cell.  Flat regions work in cell widths from cell indices: a
block's centroid sums are in closed form and both searches look at a few
candidate cells per block, so they cost O(blocks).  Sphere regions quarter
their blocks until the few cells that can be nearest or farthest remain.
Verification splits the blocks and pieces of every kind as boxes in one
loop, until each lies in its outer ball or is found outside, from
distances and box radii alone, not from how the radii were computed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .cells import (
    _BOX_BATCH,
    _DIAG,
    _aligned_blocks,
    _arc,
    _box_reach,
    _grid_points,
)
from .geometry import (
    TWO_PI,
    _circle_dist,
    charts_to_ambient,
    pairwise_distance,
)

if TYPE_CHECKING:
    from .partition import CellTree

# regions whose block arrays region geometry and verification hold at once
_REGION_BATCH = 128
# corners of the unit square, first axis fastest: offsets of a chart box's
# corners in its sides, of its quarters' corners in its half sides; the first
# 2^d rows of the first d columns are the corners of the unit d-cube
_QUARTERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
# boxes the outer-ball check splits down to this side, in cells
_SMALLEST_BOX = 2.0**-10


def _split_runs(runs) -> tuple[list, list]:
    """Whole-cell (start, stop) ranges and partial (cell, t0, t1) pieces."""
    whole, partials = [], []
    for s, e, tf, tl in runs:
        lo = s if tf <= 1e-12 else s + 1
        hi = e if tl >= 1.0 - 1e-12 else e - 1
        if hi > lo:
            whole.append((lo, hi))
        if lo > s:
            partials.append((s, tf, tl if e == s + 1 else 1.0))
        if hi < e and e - 1 >= lo:
            partials.append((e - 1, 0.0 if e - 1 > s else tf, tl))
    return whole, partials


def _whole_ranges(wholes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner, start and stop of every whole-cell range of the regions."""
    return np.array([(r, s, e) for r, ranges in enumerate(wholes) for s, e in ranges],
                    dtype=np.int64).reshape(-1, 3).T


def _cell_blocks(tree: CellTree, level: int, own, lo, hi) -> tuple[np.ndarray, list]:
    """Owner and per-axis cell ranges ``[a, b)`` of the blocks tiling the
    whole-cell ranges ``own`` owns: the ranges themselves on one axis, the
    aligned squares of ``cells._aligned_blocks`` on two."""
    if tree.manifold.dim == 1:
        return own, [(lo, hi)]
    run, start, exp = _aligned_blocks(lo, hi, level)
    side = np.int64(1) << exp
    return own[run], [(a, a + side) for a in [(x >> exp) << exp for x in tree._axes(level, start)]]


def _flat_centroids(level: int, owner, box, nreg: int) -> np.ndarray:
    """Measure centroids ``(nreg, d)`` of flat regions in cell widths per
    axis, from the blocks ``owner`` owns with per-axis cell ranges ``box``;
    NaN rows where a circular mean degenerates.

    Every cell has the same measure and cell i sits at i + 1/2 widths on
    each axis (the ellipse's cells are equal in arc length), so an arc
    [a, a + m) sums in closed form: the sum of e^{i theta (i + 1/2)} is
    e^{i theta (a + m/2)} sin(m theta / 2) / sin(theta / 2), theta =
    2 pi / 2^level.  A torus square adds its side times its arc's sum on
    each axis.
    """
    theta = TWO_PI / 2**level
    side = [b - a for a, b in box]
    size = np.prod(side, axis=0)
    count = np.bincount(owner, weights=size, minlength=nreg)
    goal = np.empty((nreg, len(box)))
    for k, (a, _) in enumerate(box):
        amp = (size // side[k]) * np.sin(0.5 * theta * side[k]) / math.sin(0.5 * theta)
        phase = theta * (a + 0.5 * side[k])
        c = np.bincount(owner, weights=amp * np.cos(phase), minlength=nreg)
        s = np.bincount(owner, weights=amp * np.sin(phase), minlength=nreg)
        goal[:, k] = np.where(np.hypot(c, s) < 1e-9 * count, np.nan,
                              (np.arctan2(s, c) % TWO_PI) / theta)
    goal[np.isnan(goal).any(axis=1)] = np.nan
    return goal


def _axis_candidates(lo, hi, around, origin, n: int, farthest: bool):
    """The two cells of each arc ``[lo, hi)`` nearest to ``origin`` (or
    farthest from it), as ``(k, 2)`` cells, mask and distances, all in
    cell widths on an axis of ``n`` cells.

    The best cell is an arc end or one of the three cells about
    ``around`` (``origin`` itself, or its antipode), since cell i sits at
    i + 1/2; the runner-up is the best of the rest.  Any third cell lies a
    whole width farther than the best.
    """
    k = np.floor(around).astype(np.int64)
    cells = np.column_stack([lo, hi - 1, (k - 1) % n, k % n, (k + 1) % n])
    ok = (cells >= lo[:, None]) & (cells < hi[:, None])
    for c in range(1, cells.shape[1]):
        ok[:, c] &= ~np.any(cells[:, :c] == cells[:, c:c + 1], axis=1)
    d = _circle_dist(origin[:, None], cells + 0.5, n)
    two = np.argsort(np.where(ok, -d if farthest else d, np.inf), axis=1, kind="stable")[:, :2]
    return tuple(np.take_along_axis(x, two, axis=1) for x in (cells, ok, d))


def _flat_extremes(level: int, box, origin, farthest: bool) -> tuple[list, np.ndarray]:
    """Per-axis candidate cells ``(k, 2)`` of each block nearest to (or
    farthest from) its row of ``origin`` ``(k, d)``, and their distances
    ``(k, 2^d)`` in cell widths, infinite where masked: the torus pairs its
    axes' candidates, its distance a ``hypot`` of two monotone ones."""
    n = 2**level
    around = (origin + 0.5 * n) % n if farthest else origin
    axes = [_axis_candidates(a, b, around[:, k], origin[:, k], n, farthest)
            for k, (a, b) in enumerate(box)]
    _, ok, d = axes[0]
    if len(axes) == 2:
        _, ok1, d1 = axes[1]
        ok = (ok[:, :, None] & ok1[:, None, :]).reshape(-1, 4)
        d = np.hypot(d[:, :, None], d1[:, None, :]).reshape(-1, 4)
    return [c for c, _, _ in axes], np.where(ok, d, -np.inf if farthest else np.inf)


def _flat_nearest(tree: CellTree, level: int, owner, box, goal, nreg: int) -> np.ndarray:
    """Per owner, the lowest-index cell among those within 1e-9 cell widths
    of the cell nearest its ``goal`` row, over the blocks it owns."""
    cells, dist = _flat_extremes(level, box, goal[owner], False)
    best = np.full(nreg, np.inf)
    np.minimum.at(best, owner, dist.min(axis=1))
    row, col = np.nonzero(dist <= best[owner, None] + 1e-9)
    per_axis = np.unravel_index(col, (2,) * len(cells))
    axes = [c[row, i] for c, i in zip(cells, per_axis)]
    pick = np.full(nreg, np.iinfo(np.int64).max)
    np.minimum.at(pick, owner[row], axes[0] if len(axes) == 1 else tree._index(level, *axes))
    return pick


def _flat_whole_geometry(tree: CellTree, level: int, wholes) -> tuple:
    """Representative cell and outer radius of each flat region's whole
    cells, -1 and NaN for regions with none.

    All is taken in cell widths from cell indices, per block (a range on
    the circle and the ellipse, an aligned square on the torus), and
    scaled by the width at the end, without the arc chart.  The
    representative is the lowest-index cell within
    1e-9 cell widths of the nearest to the closed-form measure centroid
    (``_flat_centroids``), or the lowest-index cell where it degenerates;
    the outer radius the farthest cell's distance plus the cell radius.
    Both searches take two candidate cells per axis and block.
    """
    nreg = len(wholes)
    own, lo, hi = _whole_ranges(wholes)
    owner, box = _cell_blocks(tree, level, own, lo, hi)
    goal = _flat_centroids(level, owner, box, nreg)
    live = ~np.isnan(goal[owner, 0])
    pick = _flat_nearest(tree, level, owner[live], [(a[live], b[live]) for a, b in box], goal, nreg)
    dead = np.isnan(goal[own, 0])
    np.minimum.at(pick, own[dead], lo[dead])
    has = np.bincount(own, minlength=nreg) > 0

    # farthest cell from the representative: arc ends and cells near its antipode
    origin = np.column_stack(tree._axes(level, np.where(has, pick, 0))) + 0.5
    far = np.full(nreg, -np.inf)
    np.maximum.at(far, owner, _flat_extremes(level, box, origin[owner], True)[1].max(axis=1))
    outer = far * tree._arc_width(level) + float(tree.cell_radii(level, 0)[1][0])
    return np.where(has, pick, -1), np.where(has, outer, np.nan)


# Gauss-Legendre nodes and weights of order 4 on [-1, 1]
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)
# chart side down to which centroid squares on the chart's kinks are
# quartered, where cells are larger; it keeps centroids within 1e-3 cell
# widths of a per-cell quadrature
_KINKED_SIDE = 2.0**-8


def _sphere_extremes(tree: CellTree, level: int, owner, corner, side, z, margin: float,
                     farthest: bool):
    """(owner, cell) of the cells whose centres lie within ``margin`` of the
    centre nearest to (or farthest from) their owner's unit vector, among
    chart squares ``owner`` owns with lower-left ``corner`` ``(k, 2)`` and
    ``side`` in level-cell widths.  A square is quartered while one of its
    cell centres may lie that close: they lie within ``_DIAG`` (side - 1) w / 2
    of its centre, and one within ``_DIAG`` w / 2, which bounds the owner's
    best distance."""
    w = 2.0 ** (1 - level)
    sign = -1.0 if farthest else 1.0
    reach = _DIAG * w / 2.0 + 1e-12
    best = np.full(len(z), np.inf)
    found = [(owner, corner, np.zeros(0))] if not len(side) else []
    while len(side):
        key = sign * _arc(z[owner], _grid_points(level, corner + 0.5 * side[:, None]))
        leaf = side == 1.0
        np.minimum.at(best, owner, np.where(leaf, key, key + reach))
        near = key - (side - 1.0) * reach <= best[owner] + margin
        found.append((owner[leaf & near], corner[leaf & near], key[leaf & near]))
        split = near & ~leaf
        half = 0.5 * side[split]
        corner = (corner[split][:, None, :] + _QUARTERS * half[:, None, None]).reshape(-1, 2)
        side = np.repeat(half, 4)
        owner = np.repeat(owner[split], 4)
    owner, corner, key = (np.concatenate(x) for x in zip(*found))
    keep = key <= best[owner] + margin
    return owner[keep], tree._index(level, *corner[keep].astype(np.int64).T)


def _sphere_centroids(level: int, owner, corner, side, n: int):
    """Directions ``(n, 3)`` of the measure centroids of the chart squares
    each owner owns, or the north pole where one degenerates: the chart's
    Jacobian is constant, so a centroid is the chart integral of the unit
    vector, taken by a 4 x 4 Gauss rule per square.  The map is smooth on
    each of the eight triangles the axes and the fold |u| + |v| = 1 cut the
    chart into, but only there, and its derivatives grow without bound at
    the poles, so squares crossing a cut or touching a pole are quartered
    first, down to a cell or chart side ``_KINKED_SIDE``, the smaller."""
    w = 2.0 ** (1 - level)
    finest = min(w, _KINKED_SIDE)
    smooth = []
    while len(side):
        uv = -1.0 + (corner[:, None, :] + _QUARTERS * side[:, None, None]) * w
        fold = np.abs(uv).sum(axis=2, keepdims=True) - 1.0
        cuts = np.concatenate([uv, fold], axis=2)
        split = np.any(cuts.min(axis=1) * cuts.max(axis=1) < 0.0, axis=1)
        split = (split | np.any(np.abs(fold[..., 0]) == 1.0, axis=1)) & (side * w > finest)
        smooth.append((owner[~split], corner[~split], side[~split]))
        half = 0.5 * side[split]
        corner = (corner[split][:, None, :] + _QUARTERS * half[:, None, None]).reshape(-1, 2)
        side, owner = np.repeat(half, 4), np.repeat(owner[split], 4)
    owner, corner, side = (np.concatenate(x) for x in zip(*smooth))
    total, mass = np.zeros((n, 3)), np.zeros(n)
    # the rule's points are held for ``_BOX_BATCH`` squares at a time
    for b in range(0, len(side), _BOX_BATCH):
        box, s = corner[b:b + _BOX_BATCH], side[b:b + _BOX_BATCH]
        u, v = (box[:, k, None] + 0.5 * s[:, None] * (1.0 + _GAUSS_X) for k in (0, 1))
        grid = np.stack(np.broadcast_arrays(u[:, :, None], v[:, None, :]), axis=-1)
        np.add.at(total, owner[b:b + _BOX_BATCH], np.einsum(
            "kabc,a,b,k->kc", _grid_points(level, grid), _GAUSS_W, _GAUSS_W, s**2))
    np.add.at(mass, owner, 4.0 * side**2)
    norm = np.linalg.norm(total, axis=1)
    flat = norm <= 1e-9 * mass
    return np.where(flat[:, None], (0.0, 0.0, 1.0), total / np.where(flat, 1.0, norm)[:, None])


def _sphere_whole_geometry(tree: CellTree, level: int, wholes) -> tuple:
    """Representative cell and outer radius of each sphere region's whole
    cells, -1 and NaN for regions with none.

    The representative is the lowest-index cell among those within 1e-9
    cell widths (the side of a square of a cell's area) of the nearest to
    the measure centroid, so distances equal up to rounding never split a
    tie.  The outer radius is the farthest ``cells._box_reach`` of
    the cells within ``(u2 - u1) 2^-level`` of the farthest centre: the
    farthest cell reaches at least its inner radius past its centre, no
    cell more than its outer radius, so no other can reach farther.  Both
    searches quarter the regions' aligned blocks, so they visit few cells.
    """
    nreg = len(wholes)
    own, lo, hi = _whole_ranges(wholes)
    run, start, exp = _aligned_blocks(lo, hi, level)
    owner, side = own[run], np.ldexp(1.0, exp)
    corner = np.column_stack([(a >> exp) << exp for a in tree._axes(level, start)]).astype(float)
    goal = _sphere_centroids(level, owner, corner, side, nreg)
    tol = 1e-9 * math.sqrt(4.0 * math.pi / tree.ncells(level))
    pick = np.full(nreg, np.iinfo(np.int64).max)
    np.minimum.at(pick, *_sphere_extremes(tree, level, owner, corner, side, goal, tol, False))
    has = np.zeros(nreg, dtype=bool)
    has[own] = True
    reps, outer = np.zeros((nreg, 2)), np.full(nreg, -np.inf)
    reps[has] = tree.centers_chart(level, pick[has])
    z = charts_to_ambient(tree.manifold, reps)
    margin = (tree.u2 - tree.u1) * 2.0**-level + 1e-12
    far_own, far = _sphere_extremes(tree, level, owner, corner, side, z, margin, True)
    boxes = tree._piece_boxes(level, far, 0.0, 1.0)
    np.maximum.at(outer, far_own, _box_reach(level, z[far_own], *boxes)[1])
    return np.where(has, pick, -1), np.where(has, outer, np.nan)


def _regions_geometry(tree: CellTree, level: int, region_runs) -> list[tuple]:
    """Representative, certified inner and outer radii of every region.

    A region with whole cells is represented by the whole cell nearest its
    measure centroid, otherwise by its largest cut piece (the first of
    equal ones).  The outer radius covers every whole cell and piece: on
    the flat kinds their centre's distance plus their outer radius, on the
    sphere their ``cells._box_reach``.
    """
    nreg = len(region_runs)
    split = [_split_runs(runs) for runs in region_runs]
    wholes = [w for w, _ in split]
    whole_geometry = _sphere_whole_geometry if tree.manifold.kind == "sphere2" else _flat_whole_geometry
    # block arrays are built for a bounded number of regions at a time
    pick, outer = (np.concatenate(x) for x in zip(*(
        whole_geometry(tree, level, wholes[a:a + _REGION_BATCH]) for a in range(0, nreg, _REGION_BATCH))))
    owner, cells, t0, t1 = np.array(
        [(r, *piece) for r, (_, parts) in enumerate(split) for piece in parts],
        dtype=float).reshape(-1, 4).T
    owner, cells = owner.astype(np.int64), cells.astype(np.int64)
    # representatives are whole cells, pieces [0, 1] of them: one call
    # takes the chart and radii of both
    has = pick >= 0
    nrep = int(has.sum())
    centers, p_in, p_out = tree.piece_geometry(
        level, np.concatenate([pick[has], cells]),
        np.concatenate([np.zeros(nrep), t0]), np.concatenate([np.ones(nrep), t1]))
    reps, inner = np.full((nreg, tree.manifold.dim), np.nan), np.full(nreg, np.nan)
    reps[has], inner[has] = centers[:nrep], p_in[:nrep]
    centers, p_in, p_out = centers[nrep:], p_in[nrep:], p_out[nrep:]
    for r in np.flatnonzero(np.isnan(outer) & (np.bincount(owner, minlength=nreg) > 0)):
        mine = np.where(owner == r)[0]
        best = mine[int(np.argmax(t1[mine] - t0[mine]))]
        reps[r], inner[r], outer[r] = centers[best], p_in[best], 0.0
    if len(owner):
        if tree.manifold.kind == "sphere2":
            z = charts_to_ambient(tree.manifold, reps[owner])
            reach = _box_reach(level, z, *tree._piece_boxes(level, cells, t0, t1))[1]
        else:
            reach = pairwise_distance(tree.manifold, reps[owner], centers) + p_out
        np.maximum.at(outer, owner, reach)
    return [(tuple(float(x) for x in reps[r]), float(inner[r]), float(outer[r]))
            for r in range(nreg)]


def _outer_ball_misses(tree: CellTree, level: int, regions) -> np.ndarray:
    """Which of the regions reach outside their stored outer ball B(rep, R).

    The boxes, in level-cell widths, are the whole-cell ranges on the
    curves, ``cells._aligned_blocks`` squares on the torus and the sphere,
    and the cut pieces' ``CellTree._piece_boxes``.  A box lies in the ball
    if its centre's distance plus a bound on its radius does not pass R;
    otherwise it splits into 2^d boxes of half its side, and misses once
    its centre lies outside the ball or its side falls below
    ``_SMALLEST_BOX`` undecided.  A ball of radius at least the diameter
    holds everything.  Only the two bounds are per kind: on the flat kinds
    the ``hypot`` of periodic per-axis distances to the representative's
    position and the half-diagonal, times the arc width; on the sphere
    ``cells._arc`` to the centre's image and ``_DIAG`` times the larger
    half side, the chart's derived stretch, not the boundary samples that
    certified the radii.
    """
    if len(regions) > _REGION_BATCH:
        return np.concatenate([_outer_ball_misses(tree, level, regions[a:a + _REGION_BATCH])
                               for a in range(0, len(regions), _REGION_BATCH)])
    m = tree.manifold
    reps = np.array([r.representative for r in regions])
    reach = np.array([r.outer_radius for r in regions]) + 1e-9
    split = [_split_runs(r.runs) for r in regions]
    q_own, q_cell, t0, t1 = np.array(
        [(k, *piece) for k, (_, parts) in enumerate(split) for piece in parts],
        dtype=float).reshape(-1, 4).T
    q_own, q_cell = q_own.astype(np.int64), q_cell.astype(np.int64)
    b_own, box = _cell_blocks(tree, level, *_whole_ranges([whole for whole, _ in split]))
    q_lo, q_hi = tree._piece_boxes(level, q_cell, t0, t1)
    own = np.concatenate([b_own, q_own])
    lo = np.concatenate([np.column_stack([a for a, _ in box]), q_lo]).astype(float)
    hi = np.concatenate([np.column_stack([b for _, b in box]), q_hi])

    if m.kind == "sphere2":
        z, w = charts_to_ambient(m, reps), 2.0 ** (1 - level)

        def bounds(own, mid, half):
            return _arc(z[own], _grid_points(level, mid)), _DIAG * half.max(axis=1) * w
    else:
        origin, n, w = np.column_stack(tree._positions(level, reps)), 2**level, tree._arc_width(level)

        def bounds(own, mid, half):
            d = _circle_dist(origin[own], mid, n)
            return np.hypot.reduce(d, axis=1) * w, np.hypot.reduce(half, axis=1) * w

    offsets = _QUARTERS[: 2**m.dim, : m.dim]
    miss = np.zeros(len(regions), dtype=bool)
    live = reach[own] < m.diameter
    own, lo, hi = own[live], lo[live], hi[live]
    while len(own):
        half = 0.5 * (hi - lo)
        d, radius = bounds(own, lo + half, half)
        far = d + radius > reach[own]
        own, lo, half, d = own[far], lo[far], half[far], d[far]
        miss[own[(d > reach[own]) | (half.max(axis=1) < 0.5 * _SMALLEST_BOX)]] = True
        again = ~miss[own]
        lo = (lo[again][:, None, :] + offsets * half[again][:, None, :]).reshape(-1, m.dim)
        hi = lo + np.repeat(half[again], len(offsets), axis=0)
        own = np.repeat(own[again], len(offsets))
    return miss
