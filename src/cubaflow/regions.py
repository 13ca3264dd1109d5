"""Representatives and certified radii of partition regions, and an
independent check of their outer balls.

A region is a list of runs of fine cells (see ``partition.Region``): whole
cells plus cut pieces.  Its representative is the whole cell nearest its
measure centroid, the lowest-index one among those within 1e-9 cell widths
of the nearest, or its largest piece when it has no whole cell; its outer
radius reaches the farthest whole cell or piece.  Whole cells are taken as
blocks (``_cell_blocks``): arcs on the circle and the ellipse, aligned
squares on the torus and the sphere, all boxes in level-cell widths.  One
box metric (``_box_metric``) gives a box's centre distance and a bound on
how far its points lie from that centre: periodic per-axis distances on
the flat kinds, arcs to the chart image on the sphere.  One search
(``_cell_extremes``) finds the cells nearest to or farthest from a point:
it measures every block, keeps those that may hold a cell close enough,
and splits them, sphere squares into quarters and flat blocks straight
into a few candidate cells per axis.  Flat centroid sums are in closed
form, so flat regions cost O(blocks); a sphere block takes one 4 x 4
rule, or one on each of two triangles where the chart's fold or a pole
meets it.  On the sphere, boundary samples certify the outer radius only
for far cells and pieces whose bound can pass the radius found so far.
Verification splits the blocks and pieces of every kind as boxes in one
loop on the same metric, until each lies in its outer ball or is found
outside, from distances and box radii alone, not from how the radii were
computed.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .cells import (
    _AXIS,
    _BOX_BATCH,
    _DIAG,
    _EDGE_SAMPLES,
    _aligned_blocks,
    _box_reach,
    _grid_points,
)
from .geometry import (
    TWO_PI,
    _arc,
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


def _run_parts(region_runs) -> tuple:
    """Whole-cell ranges ``(owner, start, stop)`` and cut pieces ``(owner,
    cell, t0, t1)`` of regions' runs, in run order, each run's first piece
    before its last.  A run (s, e, tf, tl) spans cells s .. e - 1 from
    t = tf in the first to t = tl in the last; a cell cut within 1e-12 of
    its ends is whole."""
    r, s, e, tf, tl = np.array([(k, *run) for k, runs in enumerate(region_runs) for run in runs],
                               dtype=float).reshape(-1, 5).T
    lo = np.where(tf <= 1e-12, s, s + 1.0)
    hi = np.where(tl >= 1.0 - 1e-12, e, e - 1.0)
    whole = hi > lo
    take = np.column_stack([lo > s, (hi < e) & (e - 1.0 >= lo)]).ravel()
    cell = np.column_stack([s, e - 1.0]).ravel()[take]
    t0 = np.column_stack([tf, np.where(e - 1.0 > s, 0.0, tf)]).ravel()[take]
    t1 = np.column_stack([np.where(e == s + 1.0, tl, 1.0), tl]).ravel()[take]
    own = r.astype(np.int64)
    return ((own[whole], lo[whole].astype(np.int64), hi[whole].astype(np.int64)),
            (np.repeat(own, 2)[take], cell.astype(np.int64), t0, t1))


def _cell_blocks(tree: CellTree, level: int, own, lo, hi) -> tuple:
    """Owner and corners ``(k, d)``, in level-cell widths, of the blocks
    tiling the whole-cell ranges ``own`` owns: the ranges themselves on one
    axis, the aligned squares of ``cells._aligned_blocks`` on two."""
    if tree.manifold.dim == 1:
        return own, lo[:, None].astype(float), hi[:, None].astype(float)
    run, start, exp = _aligned_blocks(lo, hi, level)
    corner = np.column_stack([(a >> exp) << exp for a in tree._axes(level, start)])
    return own[run], corner.astype(float), (corner + (np.int64(1) << exp)[:, None]).astype(float)


def _children(owner, lo, half) -> tuple:
    """Owner and corners of the 2^d boxes of sides ``half`` tiling boxes
    from corner ``lo``."""
    d = lo.shape[1]
    lo = (lo[:, None, :] + _QUARTERS[: 2**d, :d] * half[:, None, :]).reshape(-1, d)
    return np.repeat(owner, 2**d), lo, lo + np.repeat(half, 2**d, axis=0)


def _box_metric(tree: CellTree, level: int, origin) -> tuple:
    """``(dist, spread)`` of boxes in level-cell widths: ``dist(own, mid)``
    is the distance from row ``own`` of ``origin`` to box centres ``mid``
    ``(k, d)``, and ``spread(h)`` bounds how far a point at per-axis offsets
    at most ``h`` ``(k, d)`` lies from its box centre.

    On the flat kinds ``origin`` holds positions in cell widths, the
    distance is the ``hypot`` of periodic per-axis ones and the bound the
    half-diagonal, both times the arc width.  On the sphere it holds unit
    vectors, the distance is ``geometry._arc`` to the centre's image and the
    bound ``_DIAG`` times the larger offset, the chart's derived stretch.
    """
    if tree.manifold.kind == "sphere2":
        w = 2.0 ** (1 - level)
        return (lambda own, mid: _arc(origin[own], _grid_points(level, mid)),
                lambda h: _DIAG * reduce(np.maximum, h.T) * w)
    n, w = 2**level, tree._arc_width(level)
    return (lambda own, mid: reduce(np.hypot, _circle_dist(origin[own], mid, n).T) * w,
            lambda h: reduce(np.hypot, h.T) * w)


def _flat_centroids(level: int, owner, lo, hi, nreg: int) -> np.ndarray:
    """Measure centroids ``(nreg, d)`` of flat regions in cell widths per
    axis, from the blocks ``owner`` owns from corner ``lo`` to ``hi``; NaN
    rows where a circular mean degenerates.

    Every cell has the same measure and cell i sits at i + 1/2 widths on
    each axis (the ellipse's cells are equal in arc length), so an arc
    [a, a + m) sums in closed form: the sum of e^{i theta (i + 1/2)} is
    e^{i theta (a + m/2)} sin(m theta / 2) / sin(theta / 2), theta =
    2 pi / 2^level.  A torus square adds its side times its arc's sum on
    each axis.
    """
    theta = TWO_PI / 2**level
    side = hi - lo
    size = reduce(np.multiply, side.T)
    count = np.bincount(owner, weights=size, minlength=nreg)
    goal = np.empty((nreg, lo.shape[1]))
    for k in range(lo.shape[1]):
        amp = (size // side[:, k]) * np.sin(0.5 * theta * side[:, k]) / math.sin(0.5 * theta)
        phase = theta * (lo[:, k] + 0.5 * side[:, k])
        c = np.bincount(owner, weights=amp * np.cos(phase), minlength=nreg)
        s = np.bincount(owner, weights=amp * np.sin(phase), minlength=nreg)
        goal[:, k] = np.where(np.hypot(c, s) < 1e-9 * count, np.nan,
                              (np.arctan2(s, c) % TWO_PI) / theta)
    goal[np.isnan(goal).any(axis=1)] = np.nan
    return goal


# Gauss-Legendre nodes and weights of order 4 on [-1, 1]
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)
# the rule's nodes on [0, 1] from a triangle's collapsed vertex, and its
# weights there with the collapse's Jacobian factor
_DUFFY_X = 0.5 * (1.0 + _GAUSS_X)
_DUFFY_W = _GAUSS_W * _DUFFY_X
# a split square's two triangles, as corner rows (collapsed vertex, then the
# far edge) of ``_QUARTERS``: a fold square (its corners 0 and 3, or 1 and 2,
# on the fold) cut along that diagonal and collapsed at the corners off it,
# or a square with a pole at corner 0, 1, 2 or 3 cut along the diagonal
# through it and collapsed there
_TRIANGLES = np.array([((1, 0, 3), (2, 0, 3)), ((0, 1, 2), (3, 1, 2)),
                       ((0, 1, 3), (0, 2, 3)), ((1, 0, 2), (1, 3, 2)),
                       ((2, 0, 1), (2, 3, 1)), ((3, 1, 0), (3, 2, 0))])


def _rule_sums(level: int, pos, wa, s2):
    """Rule sums ``(k, 3)`` of the unit vector over chart points ``pos``
    ``(k, 4, 4, 2)`` in level-cell widths, weighted ``wa`` and
    ``_GAUSS_W`` along the rule's two axes and ``s2`` per box."""
    return np.einsum("kabc,a,b,k->kc", _grid_points(level, pos), wa, _GAUSS_W, s2)


def _sphere_centroids(level: int, owner, lo, hi, n: int):
    """Directions ``(n, 3)`` of the measure centroids of the chart squares
    each owner owns from corner ``lo`` to ``hi``, or the north pole where
    one degenerates: the chart's Jacobian is constant, so a centroid is the
    chart integral of the unit vector; each square adds four times its
    part by a 4 x 4 Gauss rule.

    The map is smooth on each of the eight triangles the axes and the fold
    |u| + |v| = 1 cut the chart into, but only there, and its derivatives
    grow without bound at the poles (the centre and the corners), so the
    squares that cross a kink or touch a pole are split into smooth
    triangles first.  Only the whole chart (the one square of level 0)
    crosses the axes; it becomes its quadrants.  An aligned dyadic square
    inside a quadrant crosses the fold only along a diagonal, with its
    centre on the fold: its corners' sums |u| + |v| are multiples of its
    side, as 1 is.  Such a square is cut along that diagonal, and a square
    with a pole corner along the diagonal through it.  Each triangle takes
    the 4 x 4 rule collapsed at a vertex (Duffy, SIAM J. Numer. Anal. 19,
    1982), the pole where it has one, where the map is smooth in the
    collapsed coordinates: about a pole the longitude depends on the
    angle alone.  Smooth squares come first, in input order, and triangles
    follow; points are held for ``_BOX_BATCH`` boxes at a time.
    """
    w = 2.0 ** (1 - level)
    side = hi[:, 0] - lo[:, 0]
    whole = side * w == 2.0
    if whole.any():
        half = 0.5 * side[whole]
        quads = (lo[whole][:, None, :] + _QUARTERS * half[:, None, None]).reshape(-1, 2)
        owner = np.concatenate([owner[~whole], np.repeat(owner[whole], 4)])
        lo, side = np.concatenate([lo[~whole], quads]), np.concatenate([side[~whole], np.repeat(half, 4)])
    # |u| + |v| at each corner, one column per corner: numpy reduces short
    # last axes far slower
    f = [np.abs(-1.0 + (lo[:, 0] + q[0] * side) * w) + np.abs(-1.0 + (lo[:, 1] + q[1] * side) * w)
         for q in _QUARTERS]
    cut = np.select([(f[0] == 1.0) & (f[3] == 1.0), (f[1] == 1.0) & (f[2] == 1.0)]
                    + [(g == 0.0) | (g == 2.0) for g in f], range(6), -1)
    total, mass = np.zeros((n, 3)), np.zeros(n)
    own, corner, s = owner[cut < 0], lo[cut < 0], side[cut < 0]
    for b in range(0, len(s), _BOX_BATCH):
        box, t = corner[b:b + _BOX_BATCH], s[b:b + _BOX_BATCH]
        u, v = (box[:, k, None] + 0.5 * t[:, None] * (1.0 + _GAUSS_X) for k in (0, 1))
        grid = np.stack(np.broadcast_arrays(u[:, :, None], v[:, None, :]), axis=-1)
        np.add.at(total, own[b:b + _BOX_BATCH], _rule_sums(level, grid, _GAUSS_W, t**2))
    # triangles (a, b, c) of the split squares: a + x (b - a + y (c - b))
    # for rule nodes x, y in [0, 1], of Jacobian s^2 x
    split = np.repeat(np.flatnonzero(cut >= 0), 2)
    tri = _TRIANGLES[cut[split[::2]]].reshape(-1, 3)
    vert = lo[split, None, :] + _QUARTERS[tri] * side[split, None, None]
    for b in range(0, len(split), _BOX_BATCH):
        k = split[b:b + _BOX_BATCH]
        a, p, q = (vert[b:b + _BOX_BATCH, i, None, None, :] for i in range(3))
        pos = a + _DUFFY_X[:, None, None] * (p - a + _DUFFY_X[:, None] * (q - p))
        np.add.at(total, owner[k], _rule_sums(level, pos, _DUFFY_W, side[k]**2))
    np.add.at(mass, owner, 4.0 * side**2)
    norm = np.linalg.norm(total, axis=1)
    flat = norm <= 1e-9 * mass
    return np.where(flat[:, None], (0.0, 0.0, 1.0), total / np.where(flat, 1.0, norm)[:, None])


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
    # in the arc, and no repeat of an earlier candidate
    ok = (cells >= lo[:, None]) & (cells < hi[:, None])
    for c in range(1, cells.shape[1]):
        for j in range(c):
            ok[:, c] &= cells[:, j] != cells[:, c]
    d = _circle_dist(origin[:, None], cells + 0.5, n)
    two = np.argsort(np.where(ok, -d if farthest else d, np.inf), axis=1, kind="stable")[:, :2]
    row = np.arange(len(two))[:, None]
    return cells[row, two], ok[row, two], d[row, two]


def _candidate_cells(level: int, origin, owner, lo, hi, farthest: bool) -> tuple:
    """Owner and corners of the cells of flat blocks that may be nearest to
    (or farthest from) their owner's ``origin``: every choice of one of the
    two ``_axis_candidates`` per axis, as the distance is monotone in each
    axis's."""
    n, d = 2**level, lo.shape[1]
    o = origin[owner]
    around = (o + 0.5 * n) % n if farthest else o
    axes = [_axis_candidates(lo[:, k], hi[:, k], around[:, k], o[:, k], n, farthest)[:2]
            for k in range(d)]
    choice = np.indices((2,) * d).reshape(d, -1)
    cells = np.stack([c[:, i] for (c, _), i in zip(axes, choice)], axis=-1).reshape(-1, d)
    ok = np.logical_and.reduce([m[:, i] for (_, m), i in zip(axes, choice)]).ravel()
    return np.repeat(owner, 2**d)[ok], cells[ok], cells[ok] + 1.0


def _cell_extremes(tree: CellTree, level: int, origin, owner, lo, hi, margin: float,
                   farthest: bool) -> tuple:
    """(owner, cell, distance) of the cells whose centres lie within
    ``margin`` of the centre nearest to (or farthest from) their owner's
    row of ``origin`` (see ``_box_metric``), among the whole-cell boxes
    ``owner`` owns from corner ``lo`` to ``hi`` ``(k, d)``.

    Each box is measured at its centre: its cells' centres lie within
    ``spread(h - 1/2)`` of it, h its half sides, and one within
    ``spread(1/2)``, which bounds its owner's best.  The boxes that may
    hold a cell that close are split, sphere squares into quarters and flat
    blocks straight into their ``_candidate_cells``, until only cells are
    left.  Pruning is certified, so the cells found do not depend on it.
    """
    dist, spread = _box_metric(tree, level, origin)
    sign = -1.0 if farthest else 1.0
    slack = 1e-12 * tree.manifold.diameter  # rounding of the distances
    one = spread(np.full((1, lo.shape[1]), 0.5))[0] + slack
    best = np.full(len(origin), np.inf)
    found = []
    while True:
        half = 0.5 * (hi - lo)
        key = sign * dist(owner, lo + half)
        off = spread(half - 0.5)
        leaf = off == 0.0
        np.minimum.at(best, owner, np.where(leaf, key, key + one))
        found.append((owner[leaf], lo[leaf], key[leaf]))
        split = ~leaf & (key - off <= best[owner] + (margin + slack))
        if not split.any():
            break
        if tree.manifold.kind == "sphere2":
            owner, lo, hi = _children(owner[split], lo[split], half[split])
        else:
            owner, lo, hi = _candidate_cells(level, origin, owner[split], lo[split], hi[split], farthest)
    owner, lo, key = (np.concatenate(x) for x in zip(*found))
    keep = key <= best[owner] + margin
    return owner[keep], tree._index(level, *lo[keep].astype(np.int64).T), sign * key[keep]


def _sphere_reach(level: int, z, own, lo, hi, outer) -> None:
    """Raise each ``outer[own]`` to the farthest ``cells._box_reach`` from
    row ``own`` of unit vectors ``z`` to chart boxes from corner ``lo`` to
    ``hi`` ``(k, 2)`` in level-cell widths, sampling only boxes that can
    beat it.

    Every point of a box lies within ``_DIAG`` times its larger half side
    of its centre's image (see ``_box_metric``), -z too where the box holds
    it, so that arc past the centre's, plus the sampling slack and a
    rounding margin, bounds the box's reach.  Each owner's box of the
    largest bound is sampled first, then every other box whose bound
    passes ``outer``, so each max is the one sampling every box gives, bit
    for bit.
    """
    w = 2.0 ** (1 - level)
    half = 0.5 * (hi - lo)
    bound = (_arc(z[own], _grid_points(level, lo + half)) + 1e-12 * math.pi
             + np.maximum(half[:, 0], half[:, 1]) * w * (_DIAG + _AXIS / (_EDGE_SAMPLES - 1)))
    order = np.lexsort((-bound, own))
    lead = np.ones(len(order), dtype=bool)
    lead[1:] = own[order[1:]] != own[order[:-1]]
    for take in (order[lead], order[~lead]):
        take = take[bound[take] > outer[own[take]]]
        np.maximum.at(outer, own[take], _box_reach(level, z[own[take]], lo[take], hi[take])[1])


def _whole_geometry(tree: CellTree, level: int, own, first, stop, nreg: int) -> tuple:
    """Representative cell and outer radius of each of ``nreg`` regions'
    whole cells, given as ranges ``[first, stop)`` that ``own`` owns, -1
    and NaN for regions with none.

    The representative is the lowest-index cell among those within 1e-9
    cell widths (on the sphere the side of a square of a cell's area) of
    the nearest to the measure centroid, so distances equal up to rounding
    never split a tie, or the region's lowest-index cell where a flat
    centroid degenerates.  On the flat kinds the outer radius is the
    farthest centre's distance plus the cell radius.  On the sphere it is
    the farthest ``cells._box_reach`` (by ``_sphere_reach``) of the cells
    within ``(u2 - u1) 2^-level`` of the farthest centre: the farthest cell
    reaches at least its inner radius past its centre, no cell more than
    its outer radius, so no other can reach farther.
    """
    owner, lo, hi = _cell_blocks(tree, level, own, first, stop)
    sphere = tree.manifold.kind == "sphere2"
    width = math.sqrt(4.0 * math.pi / tree.ncells(level)) if sphere else tree._arc_width(level)
    goal = (_sphere_centroids if sphere else _flat_centroids)(level, owner, lo, hi, nreg)
    live = ~np.isnan(goal[owner, 0])
    near_own, near, _ = _cell_extremes(tree, level, goal, owner[live], lo[live], hi[live],
                                       1e-9 * width, False)
    pick = np.full(nreg, np.iinfo(np.int64).max)
    np.minimum.at(pick, near_own, near)
    dead = np.isnan(goal[own, 0])
    np.minimum.at(pick, own[dead], first[dead])
    has = np.bincount(own, minlength=nreg) > 0
    pick = np.where(has, pick, 0)
    origin = (charts_to_ambient(tree.manifold, tree.centers_chart(level, pick)) if sphere
              else np.column_stack(tree._axes(level, pick)) + 0.5)
    margin = (tree.u2 - tree.u1) * 2.0**-level + 1e-12 if sphere else 0.0
    far_own, far, dist = _cell_extremes(tree, level, origin, owner, lo, hi, margin, True)
    outer = np.full(nreg, -np.inf)
    if sphere:
        _sphere_reach(level, origin, far_own, *tree._piece_boxes(level, far, 0.0, 1.0), outer)
    else:
        np.maximum.at(outer, far_own, dist + float(tree.cell_radii(level, 0)[1][0]))
    return np.where(has, pick, -1), np.where(has, outer, np.nan)


def _regions_geometry(tree: CellTree, level: int, region_runs) -> list[tuple]:
    """Representative, certified inner and outer radii of every region,
    taken for ``_REGION_BATCH`` regions at a time.

    A region with whole cells is represented by the whole cell nearest its
    measure centroid, otherwise by its largest cut piece (the first of
    equal ones).  The outer radius covers every whole cell and piece: on
    the flat kinds their centre's distance plus their outer radius, on the
    sphere their ``cells._box_reach``.
    """
    nreg = len(region_runs)
    if nreg > _REGION_BATCH:
        return [g for a in range(0, nreg, _REGION_BATCH)
                for g in _regions_geometry(tree, level, region_runs[a:a + _REGION_BATCH])]
    (own, first, stop), (owner, cells, t0, t1) = _run_parts(region_runs)
    pick, outer = _whole_geometry(tree, level, own, first, stop, nreg)
    has = pick >= 0
    sphere = tree.manifold.kind == "sphere2"
    # representatives are whole cells, pieces [0, 1] of them: one call
    # takes the chart and radii of both; on the sphere only the pieces of
    # regions with no whole cell need theirs
    mine = ~has[owner] if sphere else np.ones(len(owner), dtype=bool)
    nrep = int(has.sum())
    centers, p_in, p_out = tree.piece_geometry(
        level, np.concatenate([pick[has], cells[mine]]),
        np.concatenate([np.zeros(nrep), t0[mine]]), np.concatenate([np.ones(nrep), t1[mine]]))
    reps, inner = np.full((nreg, tree.manifold.dim), np.nan), np.full(nreg, np.nan)
    reps[has], inner[has] = centers[:nrep], p_in[:nrep]
    centers, p_in, p_out = centers[nrep:], p_in[nrep:], p_out[nrep:]
    span, p_own = (t1 - t0)[mine], owner[mine]
    for r in np.flatnonzero(np.isnan(outer) & (np.bincount(owner, minlength=nreg) > 0)):
        best = np.flatnonzero(p_own == r)
        best = best[int(np.argmax(span[best]))]
        reps[r], inner[r], outer[r] = centers[best], p_in[best], 0.0
    if len(owner):
        if sphere:
            z = charts_to_ambient(tree.manifold, reps)
            _sphere_reach(level, z, owner, *tree._piece_boxes(level, cells, t0, t1), outer)
        else:
            np.maximum.at(outer, owner, pairwise_distance(tree.manifold, reps[owner], centers) + p_out)
    return list(zip(map(tuple, reps.tolist()), inner.tolist(), outer.tolist()))


def _outer_ball_misses(tree: CellTree, level: int, regions) -> np.ndarray:
    """Which of the regions reach outside their stored outer ball B(rep, R).

    The boxes, in level-cell widths, are the whole-cell blocks of
    ``_cell_blocks`` and the cut pieces' ``CellTree._piece_boxes``.  A box
    lies in the ball if its centre's distance plus the ``_box_metric``
    bound on its spread does not pass R; otherwise it splits into 2^d
    boxes of half its side, and misses once its centre lies outside the
    ball or its side falls below ``_SMALLEST_BOX`` undecided.  A ball of
    radius at least the diameter holds everything, and one whose radius or
    centre is not finite misses.  The metric is the chart's derived
    stretch on the sphere, not the boundary samples that certified the
    radii.
    """
    if len(regions) > _REGION_BATCH:
        return np.concatenate([_outer_ball_misses(tree, level, regions[a:a + _REGION_BATCH])
                               for a in range(0, len(regions), _REGION_BATCH)])
    m = tree.manifold
    reps = np.array([r.representative for r in regions])
    reach = np.array([r.outer_radius for r in regions]) + 1e-9
    wholes, (q_own, q_cell, t0, t1) = _run_parts([r.runs for r in regions])
    b_own, b_lo, b_hi = _cell_blocks(tree, level, *wholes)
    q_lo, q_hi = tree._piece_boxes(level, q_cell, t0, t1)
    own = np.concatenate([b_own, q_own])
    lo, hi = np.concatenate([b_lo, q_lo]), np.concatenate([b_hi, q_hi])
    origin = charts_to_ambient(m, reps) if m.kind == "sphere2" else np.column_stack(tree._positions(level, reps))
    dist, spread = _box_metric(tree, level, origin)

    miss = ~(np.isfinite(reach) & np.isfinite(reps).all(axis=1))
    live = ~miss[own] & (reach[own] < m.diameter)
    own, lo, hi = own[live], lo[live], hi[live]
    while len(own):
        half = 0.5 * (hi - lo)
        d = dist(own, lo + half)
        far = d + spread(half) > reach[own]
        own, lo, half, d = own[far], lo[far], half[far], d[far]
        miss[own[(d > reach[own]) | (reduce(np.maximum, half.T) < 0.5 * _SMALLEST_BOX)]] = True
        again = ~miss[own]
        own, lo, hi = _children(own[again], lo[again], half[again])
    return miss
