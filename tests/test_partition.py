"""Cell hierarchies and measure-exact weighted partitions."""

import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubaflow.cells import (
    _AXIS,
    _BOX_BATCH,
    _DIAG,
    _MEASURED_LEVELS,
    _RADII_BOUNDS,
    _aligned_blocks,
    _arc,
    _box_reach,
    _grid_points,
    _hilbert_decode,
    _hilbert_encode,
    _level_radii,
    _octa_forward,
    _octa_inverse,
)
from cubaflow.geometry import (
    TWO_PI,
    Manifold,
    _circle_dist,
    arc_chart,
    charts_to_ambient,
    move_points,
    pairwise_distance,
    sphere_chart_from_ambient,
    sphere_tangent_frame,
)
from cubaflow.partition import (
    SCHEMA_VERSION,
    _affordable,
    _ball_samples,
    _json_text,
    _plan,
    _sweep,
    _tree_cached,
    build_cell_tree,
    partition_from_json,
    partition_to_json,
    spanning_tree,
    verify_partition,
    weighted_partition,
)
from cubaflow.regions import (
    _DUFFY_W,
    _DUFFY_X,
    _GAUSS_W,
    _GAUSS_X,
    _QUARTERS,
    _REACH_TOL,
    _REGION_BATCH,
    _axis_candidates,
    _cell_blocks,
    _cell_extremes,
    _flat_centroids,
    _outer_ball_misses,
    _regions_geometry,
    _run_parts,
    _sphere_centroids,
)
from cubaflow.weights import WeightVector, random_band_weights


def make(kind):
    return Manifold("ellipse", 2.0, 1.0) if kind == "ellipse" else Manifold(kind)


def _hilbert_loop(h, k):
    """Textbook Hilbert index to (i, j), one index at a time."""
    out = []
    for t in np.ravel(h).tolist():
        x = y = 0
        s = 1
        while s < 2**k:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            if ry == 0:
                if rx == 1:
                    x, y = s - 1 - x, s - 1 - y
                x, y = y, x
            x, y = x + s * rx, y + s * ry
            t //= 4
            s *= 2
        out.append((x, y))
    i, j = np.array(out, dtype=np.int64).reshape(-1, 2).T
    return i.reshape(np.shape(h)), j.reshape(np.shape(h))


def _cell_centers(tree, level, cells):
    """Centre charts of whole cells, as ``piece_geometry`` gives them,
    without the sphere's boundary samples."""
    pos = np.column_stack(tree._axes(level, np.asarray(cells, dtype=np.int64))) + 0.5
    if tree.manifold.kind == "sphere2":
        return sphere_chart_from_ambient(_grid_points(level, pos))
    return np.column_stack([tree._chart.inverse(x * tree._arc_width(level)) for x in pos.T])


def _sphere_box_radii(tree, level, idx, t0, t1):
    """(inner, outer) ``cells._box_reach`` radii of sphere sweep pieces
    about the image of their chart box's midpoint."""
    lo, hi = tree._piece_boxes(level, idx, t0, t1)
    return _box_reach(level, _grid_points(level, 0.5 * (lo + hi)), lo, hi)


# ---------------------------------------------------------------------------
# cell trees


@pytest.mark.parametrize("kind,depth", [("circle", 8), ("torus2", 5), ("sphere2", 4), ("ellipse", 7)])
def test_level_measures_tile_one(kind, depth):
    tree = build_cell_tree(make(kind), depth=depth)
    for level in range(depth + 1):
        assert math.fsum(tree.measures(level)) == pytest.approx(1.0, abs=5e-15)


def test_children_sum_to_parent_sphere():
    tree = build_cell_tree(make("sphere2"), depth=4)
    for level in range(1, 4):
        parent = tree.measures(level)
        child = tree.measures(level + 1)
        sums = child.reshape(-1, 4).sum(axis=1)
        assert np.max(np.abs(sums - parent)) < 1e-15


def test_arc_matches_cross_product_form():
    """The explicit arc formula rounds exactly as np.cross and np.sum do."""
    rng = np.random.default_rng(4)
    u, v = (x / np.linalg.norm(x, axis=-1, keepdims=True) for x in rng.standard_normal((2, 5000, 3)))
    for w in (v, u + 1e-9 * v, -u):
        want = np.arctan2(np.linalg.norm(np.cross(u, w), axis=-1), np.sum(u * w, axis=-1))
        assert np.array_equal(_arc(u, w), want)


# ---------------------------------------------------------------------------
# the sphere's octahedral equal-area chart


def _chart_jacobian(u, v, h=1e-7):
    """Central-difference columns ``(k, 3, 2)`` of the chart map."""
    du = (_octa_forward(u + h, v) - _octa_forward(u - h, v)) / (2.0 * h)
    dv = (_octa_forward(u, v + h) - _octa_forward(u, v - h)) / (2.0 * h)
    return np.stack([du, dv], axis=-1)


def _axis_and_diagonal_stretch(u, v):
    """Largest of |J e_u|, |J e_v| and of |J (1, 1)|, |J (1, -1)|."""
    ju, jv = np.moveaxis(_chart_jacobian(u, v), -1, 0)
    norm = lambda x: np.linalg.norm(x, axis=-1)
    return np.maximum(norm(ju), norm(jv)), np.maximum(norm(ju + jv), norm(ju - jv))


def test_octa_chart_has_jacobian_pi_and_bounded_stretch():
    rng = np.random.default_rng(6)
    u, v = rng.uniform(-1.0, 1.0, (2, 20_000))
    # away from the axes and the fold, where the map is smooth
    ok = np.min(np.abs([u, v, np.abs(u) + np.abs(v) - 1.0]), axis=0) > 1e-5
    sv = np.linalg.svd(_chart_jacobian(u[ok], v[ok]), compute_uv=False)
    assert np.allclose(sv[:, 0] * sv[:, 1], math.pi, rtol=1e-7, atol=0.0)
    axis, diag = _axis_and_diagonal_stretch(u[ok], v[ok])
    assert axis.max() <= _AXIS * (1.0 + 1e-7) and diag.max() <= _DIAG * (1.0 + 1e-7)
    # the axis stretch peaks at the poles along an axis, the diagonal one
    # on the axes at the equator
    t = np.linspace(1e-4, 1e-3, 10)
    assert _axis_and_diagonal_stretch(1e-3 * t, t)[0].max() == pytest.approx(_AXIS, rel=1e-3)
    assert _axis_and_diagonal_stretch(1.0 - 2.0 * t, t)[1].max() == pytest.approx(_DIAG, rel=1e-3)


def test_octa_chart_round_trip():
    rng = np.random.default_rng(7)
    t = rng.uniform(-1.0, 1.0, 4000)
    side = np.where(rng.uniform(size=4000) < 0.5, -1.0, 1.0)
    poles = (np.array([0.0, 0.0, 1.0, -1.0]), np.array([0.0, -0.0, 1.0, -1.0]))
    # random points, the fold |u| + |v| = 1, the axes and the north pole
    for u, v in (rng.uniform(-1.0, 1.0, (2, 20_000)), (t, side * (1.0 - np.abs(t))),
                 (t, 0.0 * t), (0.0 * t, t), ([0.0, -0.0], [0.0, 0.0])):
        back = _octa_inverse(_octa_forward(u, v))
        assert np.max(np.abs(np.subtract(back, (u, v)))) <= 1e-15
    # the square's edges are glued and its corners are all the south pole, so
    # there the round trip is taken on the sphere
    one = np.ones_like(t)
    for u, v in ((t, one), (t, -one), (one, t), (-one, t), poles):
        p = _octa_forward(u, v)
        assert np.max(np.abs(_octa_forward(*_octa_inverse(p)) - p)) <= 1e-15
    assert np.array_equal(_octa_forward(*poles), [[0.0, 0.0, 1.0]] * 2 + [[0.0, 0.0, -1.0]] * 2)


@pytest.mark.parametrize("level", range(1, 7))
def test_sphere_radii_bound_dense_boundary(level):
    """Every cell and random pieces keep 1025 samples per boundary edge, and
    a grid inside, between their certified inner and outer radii; cell radii
    lie within the level bounds u1 2^-level and u2 2^-level."""
    tree = build_cell_tree(make("sphere2"), depth=level)
    rng = np.random.default_rng(level)
    cells = np.arange(tree.ncells(level))
    some = rng.integers(0, len(cells), 200)
    ends = np.sort(rng.uniform(0.0, 1.0, (2, 200)), axis=0)
    w = 2.0 / 2**level
    s = np.linspace(0.0, 1.0, 1025)
    grid = np.linspace(0.0, 1.0, 17)
    bu = np.concatenate([s, np.ones_like(s), s, np.zeros_like(s), *[np.full(17, g) for g in grid]])
    bv = np.concatenate([np.zeros_like(s), s, np.ones_like(s), s, *[grid] * 17])
    for idx, t0, t1 in ((cells, 0.0 * cells, 1.0 + 0.0 * cells), (some, *ends)):
        c, inner = tree.piece_geometry(level, idx, t0, t1)
        box_inner, outer = _sphere_box_radii(tree, level, idx, t0, t1)
        assert np.array_equal(inner, np.maximum(box_inner, 0.0))
        whole = t1 - t0 == 1.0
        assert np.all(inner[whole] >= tree.u1 * 2.0**-level) and np.all(inner >= 0.0)
        assert np.all(outer <= tree.u2 * 2.0**-level)
        i, j = _hilbert_loop(idx, level)
        for a in range(0, len(idx), 64):
            k = slice(a, a + 64)
            u = -1.0 + (i[k, None] + t0[k, None] + bu * (t1 - t0)[k, None]) * w
            v = -1.0 + (j[k, None] + bv) * w
            d = _arc(charts_to_ambient(tree.manifold, c[k])[:, None, :], _octa_forward(u, v))
            assert np.all(d[:, :4 * 1025].min(axis=1) >= inner[k])
            assert np.all(d.max(axis=1) <= outer[k])


def test_level_radii_are_the_extremes_of_every_cell():
    """The measured levels' extremes are those of every cell's
    ``cells._box_reach`` radii, and the derived bounds, which deeper trees
    take, dominate them."""
    tree = build_cell_tree(make("sphere2"), depth=_MEASURED_LEVELS)
    for level in range(1, _MEASURED_LEVELS + 1):
        inner, outer = _sphere_box_radii(tree, level, np.arange(tree.ncells(level)), 0.0, 1.0)
        assert _level_radii(level) == (inner.min() * 2**level, outer.max() * 2**level)
        assert _RADII_BOUNDS[0] <= _level_radii(level)[0] < _level_radii(level)[1] <= _RADII_BOUNDS[1]
    u = [_level_radii(k) for k in range(1, _MEASURED_LEVELS + 1)]
    assert (tree.u1, tree.u2) == (min(a for a, _ in u), max(b for _, b in u))
    deep = build_cell_tree(make("sphere2"), depth=_MEASURED_LEVELS + 1)
    assert (deep.u1, deep.u2) == _RADII_BOUNDS
    assert build_cell_tree(make("sphere2"), depth=1).u2 == _level_radii(1)[1]


def test_deep_sphere_tree_measures_no_level():
    """A tree deeper than the measured levels takes the derived bounds
    without measuring a cell."""
    _tree_cached.cache_clear()
    _level_radii.cache_clear()
    tree = build_cell_tree(make("sphere2"), depth=9)
    assert _level_radii.cache_info().currsize == 0
    assert (tree.u1, tree.u2) == _RADII_BOUNDS


def test_sphere_locate_inverts_centers():
    tree = build_cell_tree(make("sphere2"), depth=9)
    for level in range(10):
        idx = np.arange(tree.ncells(level))
        assert np.array_equal(tree.locate(level, _cell_centers(tree, level, idx)), idx)


def test_flat_cell_measures_exact():
    tree = build_cell_tree(make("torus2"), depth=4)
    assert np.all(tree.measures(3) == 0.25**3)
    ctree = build_cell_tree(make("circle"), depth=5)
    assert np.all(ctree.measures(5) == 2.0**-5)


def test_build_rejects_bad_input():
    doc = json.loads(partition_to_json(weighted_partition(make("circle"), np.full(4, 0.25))))
    assert doc["delta"] == 0.5
    doc["delta"] = 0.3
    with pytest.raises(ValueError, match="halving ratio"):
        partition_from_json(json.dumps(doc))
    with pytest.raises(ValueError):
        build_cell_tree(make("circle"), depth=0)
    with pytest.raises(ValueError):
        build_cell_tree(make("sphere2"), depth=15)
    for kind in ("torus2", "sphere2"):
        for depth in (1.5, 2.0, "3", None):
            with pytest.raises(ValueError, match="depth must be an integer"):
                build_cell_tree(make(kind), depth)
    assert build_cell_tree(make("torus2"), np.int64(3)) == build_cell_tree(make("torus2"), 3)


def test_locate_finds_cell_centers():
    for kind in ("circle", "torus2", "sphere2", "ellipse"):
        tree = build_cell_tree(make(kind), depth=3)
        level = 3
        centers, _ = tree.piece_geometry(level, np.arange(tree.ncells(level)), 0.0, 1.0)
        assert np.array_equal(centers, _cell_centers(tree, level, np.arange(tree.ncells(level))))
        for idx in range(tree.ncells(level)):
            assert tree.locate(level, centers[idx]) == idx


def test_hilbert_matches_loop_and_walks_edge_to_edge():
    rng = np.random.default_rng(8)
    for k in (*range(10), 14, 20):
        h = np.arange(4**k) if k <= 7 else rng.integers(0, 4**k, 20_000)
        i, j = _hilbert_decode(h, k)
        assert all(np.array_equal(a, b) for a, b in zip((i, j), _hilbert_loop(h, k)))
        assert np.array_equal(_hilbert_encode(i, j, k), h)
        if k > 7:
            continue
        # it starts at (0, 0), ends at (2^k - 1, 0) and steps to a neighbour
        assert (i[0], j[0], i[-1], j[-1]) == (0, 0, 2**k - 1, 0)
        assert np.all(np.abs(np.diff(i)) + np.abs(np.diff(j)) == 1)
        # aligned blocks of 4^e indices are aligned squares of side 2^e
        for e in range(k + 1):
            for axis in (i.reshape(-1, 4**e), j.reshape(-1, 4**e)):
                assert np.all(axis.min(axis=1) % 2**e == 0)
                assert np.all(axis.max(axis=1) - axis.min(axis=1) == 2**e - 1)


def test_aligned_blocks_tile_cell_range():
    rng = np.random.default_rng(12)
    for level in range(1, 13):
        n = 4**level
        ends = np.sort(rng.integers(0, n + 1, (40, 2)), axis=1)
        lo = np.concatenate([ends[:, 0], [0, 0, n - 1]])
        hi = np.concatenate([ends[:, 1] + (ends[:, 0] == ends[:, 1]), [n, 1, n]])
        hi = np.minimum(hi, n)
        lo = np.minimum(lo, hi - 1)
        run, start, exp = _aligned_blocks(lo, hi, level)
        size = 4**exp
        assert np.all(start % size == 0)
        # each range's blocks, in the order returned, run contiguously from
        # lo to hi
        for r in range(len(lo)):
            mine = run == r
            first, ends = start[mine], start[mine] + size[mine]
            assert first[0] == lo[r] and ends[-1] == hi[r]
            assert np.array_equal(first[1:], ends[:-1])
            assert mine.sum() <= 6 * level
        # every block is an aligned square of side 2^exp in the Hilbert grid
        for a, e in zip(start[:60], exp[:60]):
            i, j = _hilbert_decode(np.arange(a, a + 4**e), level)
            for axis in (i, j):
                assert axis.min() % 2**e == 0
                assert axis.max() - axis.min() + 1 == 2**e
        assert len(_aligned_blocks([0], [n], level)[0]) == 1


def _nearest_cell(tree, level, origin, lo, hi):
    """The cell the representative search picks from ``origin`` (a
    position in cell widths, a unit vector on the sphere) among whole-cell
    boxes from ``lo`` to ``hi`` of one region: the lowest index within 1e-9
    cell widths of the nearest."""
    sphere = tree.manifold.kind == "sphere2"
    width = math.sqrt(4.0 * math.pi / tree.ncells(level)) if sphere else tree._arc_width(level)
    lo, hi = np.atleast_2d(lo).astype(float), np.atleast_2d(hi).astype(float)
    owner, cells, _ = _cell_extremes(tree, level, np.atleast_2d(origin), np.zeros(len(lo), dtype=np.int64),
                                     lo, hi, 1e-9 * width)
    assert np.all(owner == 0)
    return int(cells.min())


def test_axis_candidates_keep_ties():
    """A cell tying the nearest one stays a candidate, and the nearest
    search takes the lowest index among the cells within 1e-9 cell widths
    of the nearest, whichever way the centroid rounds."""
    tree = build_cell_tree(make("circle"), depth=4)
    lo, hi = np.array([0]), np.array([16])
    for origin in (4.0, np.nextafter(4.0, 0.0), np.nextafter(4.0, 5.0), 4.0 + 4e-10):
        o = np.array([origin])
        cells, ok, _ = _axis_candidates(lo, hi, o, 16)
        assert sorted(cells[0][ok[0]]) == [3, 4]
        assert _nearest_cell(tree, 4, o, lo, hi) == 3
    # past 1e-9 cell widths the nearer cell wins
    for origin, want in ((4.0 + 2e-9, 4), (4.5, 4), (3.5, 3)):
        assert _nearest_cell(tree, 4, [origin], lo, hi) == want
    # on the torus the four cells about a grid corner tie
    torus = build_cell_tree(make("torus2"), depth=2)
    pick = _nearest_cell(torus, 2, [2.0, 2.0], [0, 0], [4, 4])
    assert pick == min(_hilbert_encode(np.array([i]), np.array([j]), 2)[0]
                       for i in (1, 2) for j in (1, 2))
    # on the sphere the four level-3 cells about the north pole, the chart's
    # centre, lie equally far from it, and stay tied within 1e-9 cell widths
    sphere = build_cell_tree(make("sphere2"), depth=3)
    tied = min(_hilbert_encode(np.array([i]), np.array([j]), 3)[0] for i in (3, 4) for j in (3, 4))
    for tilt, want in ((0.0, tied), (1e-13, tied), (1e-8, _hilbert_encode(4, 4, 3))):
        pole = np.array([tilt, tilt, 1.0]) / math.hypot(math.hypot(tilt, tilt), 1.0)
        assert _nearest_cell(sphere, 3, pole, [0, 0], [8, 8]) == want
        assert _nearest_cell(sphere, 3, pole, [[0, 0], [4, 0], [0, 4], [4, 4]],
                             [[4, 4], [8, 4], [4, 8], [8, 8]]) == want


def _random_charts(manifold, n, seed):
    rng = np.random.default_rng(seed)
    if manifold.kind == "sphere2":
        v = rng.standard_normal((n, 3))
        return sphere_chart_from_ambient(v / np.linalg.norm(v, axis=1, keepdims=True))
    return rng.uniform(0.0, 2.0 * math.pi, (n, manifold.dim))


@pytest.mark.parametrize("kind,level", [("circle", 4), ("torus2", 3), ("sphere2", 4), ("ellipse", 4)])
def test_locate_batch_matches_brute_force(kind, level):
    m = make(kind)
    tree = build_cell_tree(m, depth=level)
    charts = _random_charts(m, 500, seed=level)
    cells = tree.locate(level, charts)
    assert cells.shape == (500,)
    assert np.array_equal(cells, [tree.locate(level, c) for c in charts])
    if kind == "sphere2":
        # the chart point of each row lies in its cell's square
        amb = charts_to_ambient(m, charts)
        u, v = _octa_inverse(amb)
        w = 2.0 / 2**level
        i, j = _hilbert_loop(cells, level)
        for x, k in ((u, i), (v, j)):
            assert np.all((-1.0 + k * w <= x + 1e-15) & (x <= -1.0 + (k + 1) * w + 1e-15))
    else:
        chart = arc_chart(m)
        w = chart.total / 2**level
        axes = [np.array([math.floor(chart.forward(float(x)) / w) for x in col]) for col in charts.T]
        assert np.array_equal((cells,) if m.dim == 1 else _hilbert_loop(cells, level), axes)
    t = tree.sweep_parameter(level, cells, charts)
    assert t.shape == (500,)
    assert np.all((t >= -1e-12) & (t <= 1.0 + 1e-12))
    if kind == "sphere2":
        # t places the row along its cell's first chart axis
        assert np.max(np.abs(_octa_forward(-1.0 + (i + t) * w, v) - amb)) < 1e-14
    single = [tree.sweep_parameter(level, int(c), x) for c, x in zip(cells, charts)]
    assert np.array_equal(t, single)


def test_locate_caps_last_arc():
    # on the 3:1 ellipse the arc length just below 2pi rounds up to the total
    tree = build_cell_tree(Manifold("ellipse", 3.0, 1.0), depth=10)
    end = np.full((2, 1), np.nextafter(2.0 * math.pi, 0.0))
    for level in (3, 10):
        assert tree.locate(level, end[0]) == tree.ncells(level) - 1
        assert np.array_equal(tree.locate(level, end), [tree.ncells(level) - 1] * 2)


def test_sweep_parameter_checks_level():
    tree = build_cell_tree(make("torus2"), depth=3)
    chart = np.array([0.1, 0.2])
    assert 0.0 <= tree.sweep_parameter(3, tree.locate(3, chart), chart) <= 1.0
    for level in (-1, 4):
        with pytest.raises(ValueError):
            tree.sweep_parameter(level, 0, chart)


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_cell_tree_refuses_malformed_input(kind):
    """Rows of the wrong width or not finite and cells outside the level
    raise, where they used to give a cell, a sweep coordinate or a centre
    anyway."""
    m = make(kind)
    tree = build_cell_tree(m, depth=3)
    n = tree.ncells(3)
    good = _random_charts(m, 4, seed=0)
    cells = tree.locate(3, good)
    for rows in (np.zeros((4, m.dim + 1)), np.zeros(m.dim + 1), np.where(np.arange(4)[:, None] == 2, math.inf, good),
                 np.full(m.dim, math.nan)):
        with pytest.raises(ValueError, match="finite numbers"):
            tree.locate(3, rows)
        with pytest.raises(ValueError, match="finite numbers"):
            tree.sweep_parameter(3, cells[0] if rows.ndim == 1 else cells, rows)
    for idx in (-1, n, 10**6, [0, n]):
        with pytest.raises(ValueError, match="cell indices outside"):
            tree.sweep_parameter(3, idx, good[0] if np.ndim(idx) == 0 else good[:2])
        with pytest.raises(ValueError, match="cell indices outside"):
            tree.piece_geometry(3, idx, 0.0, 1.0)


def test_radii_bracket_cells():
    # inner radius ball inside the cell, the level's outer bound containing it
    tree = build_cell_tree(make("torus2"), depth=3)
    _, inner = tree.piece_geometry(3, np.arange(tree.ncells(3)), 0.0, 1.0)
    side = 2.0 * math.pi * 0.125
    assert np.allclose(inner, side / 2.0)
    assert np.allclose((tree.u1 * 0.125, tree.u2 * 0.125), (side / 2.0, side * math.sqrt(2.0) / 2.0))
    assert np.all(inner <= tree.u2 * 0.125)


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_piece_geometry_consistent(kind):
    tree = build_cell_tree(make(kind), depth=3)
    level = 3
    for idx in np.linspace(0, tree.ncells(level) - 1, 5).astype(int):
        idx = int(idx)
        c, inner = tree.piece_geometry(level, idx, 0.0, 1.0)
        assert np.array_equal(c, _cell_centers(tree, level, [idx])[0])
        if kind != "sphere2":
            assert inner == tree.u1 * 2.0**-level
        for t0, t1 in ((0.0, 0.25), (0.2, 0.7), (0.6, 1.0), (0.0, 1.0)):
            c, inner = tree.piece_geometry(level, idx, t0, t1)
            assert tree.locate(level, c) == idx
            t = tree.sweep_parameter(level, idx, c)
            assert t0 - 1e-12 <= t <= t1 + 1e-12
            assert 0.0 < inner
    # one batched call agrees with the single pieces; the ellipse's arc
    # chart may round a batched centre differently in the last bit
    pieces = [(int(i), t0, t1) for i in np.linspace(0, tree.ncells(level) - 1, 5).astype(int)
              for t0, t1 in ((0.0, 0.25), (0.2, 0.7), (0.6, 1.0), (0.0, 1.0))]
    centers, inner = tree.piece_geometry(level, *(np.array(x) for x in zip(*pieces)))
    single = [tree.piece_geometry(level, *piece) for piece in pieces]
    assert np.allclose(centers, [c for c, _ in single], rtol=0.0, atol=1e-15)
    assert np.array_equal(inner, [x for _, x in single])


def test_u_constants_flats():
    circle = build_cell_tree(make("circle"), depth=4)
    assert circle.u1 == pytest.approx(math.pi)
    assert circle.u2 == pytest.approx(math.pi)
    torus = build_cell_tree(make("torus2"), depth=4)
    assert torus.u1 == pytest.approx(math.pi)
    assert torus.u2 == pytest.approx(math.pi * math.sqrt(2.0))
    sphere = build_cell_tree(make("sphere2"), depth=4)
    assert 0.0 < sphere.u1 < sphere.u2 < math.inf


# ---------------------------------------------------------------------------
# spanning trees


@pytest.mark.parametrize(
    "kind,level,ncells",
    [("circle", 3, 8), ("torus2", 2, 16), ("sphere2", 1, 4), ("ellipse", 3, 8)],
)
def test_spanning_tree_counts(kind, level, ncells):
    """Every kind's tree is the path of its cells in index order, rooted at
    the last cell, and consecutive cells share an edge: across the chart's
    wrap on the flat kinds, inside the chart square on the sphere."""
    tree = build_cell_tree(make(kind), depth=level + 3)
    assert tree.ncells(level) == ncells
    for lev in range(level, level + 4):
        n = tree.ncells(lev)
        st_ = spanning_tree(tree, lev)
        assert (st_.nodes, st_.edges) == (n, n - 1)
        assert st_.root == st_.order[0] == n - 1
        assert st_.parent == tuple(range(1, n)) + (-1,)
        for node in st_.order[1:]:
            assert node in st_.children[st_.parent[node]]
        step = np.abs(np.diff(np.array(tree._axes(lev, np.arange(n))), axis=1))
        if kind != "sphere2":
            step = np.minimum(step, 2**lev - step)
        assert np.all(step.sum(axis=0) == 1)


def test_sphere_spanning_tree_is_the_hilbert_path():
    """The sphere's tree is the Hilbert path of its octahedral cells, and
    consecutive cells share an edge of the chart square."""
    tree = build_cell_tree(make("sphere2"), depth=4)
    for level in (1, 2, 4):
        n = tree.ncells(level)
        st_ = spanning_tree(tree, level)
        assert st_.parent == tuple(range(1, n)) + (-1,)
        step = np.abs(np.diff(np.array(tree._axes(level, np.arange(n))), axis=1))
        assert np.all(step.sum(axis=0) == 1)


_COLD_RUN = """
import sys
from cubaflow import FlowConfig, Manifold, random_band_weights, solve, weighted_partition
for args, band, n in ((("circle",), 4.0, 16), (("torus2",), 2.0, 24), (("sphere2",), 1.5, 16),
                      (("ellipse", 2.0, 1.0), 3.0, 9)):
    w = random_band_weights(n, 0.5, 2.0, 0)
    weighted_partition(Manifold(*args), w)
    solve(Manifold(*args), "diffusion", band, w, FlowConfig(seed=0))
print(sorted(m for m in sys.modules if m in ("scipy", "numpy.ma") or m.startswith(("scipy.", "numpy.ma."))))
"""


def test_import_leaves_scipy_optimize_out():
    """Cuts are closed forms and the ellipse's arc chart is numpy only, so
    a partition and a solve on every kind load no ``scipy`` module at all,
    and no ``numpy.ma`` (which ``np.unique`` would import)."""
    src = pathlib.Path(__import__("cubaflow").__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _COLD_RUN], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split("\n")[0] == "[]"


# ---------------------------------------------------------------------------
# weighted partitions: hand-traced anchors


def _affordable_full_scan(unused, vals, room):
    chosen, still, acc = [], [], 0.0
    for j in unused:
        if acc + vals[j] <= room:
            chosen.append(j)
            acc += vals[j]
        else:
            still.append(j)
    return chosen, still


def test_affordable_matches_full_scan():
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        vals = rng.uniform(0.5, 2.0, n) / n
        unused = list(rng.permutation(n))
        room = float(rng.uniform(0.0, 1.2) * vals.sum())
        assert _affordable(unused, vals, room, float(vals.min())) == \
            _affordable_full_scan(unused, vals, room)


def test_circle_two_weights_boundary():
    p = weighted_partition(make("circle"), np.array([0.3, 0.7]))
    assert p.n == 2
    assert p.regions[0].measure == pytest.approx(0.3, abs=1e-15)
    assert p.regions[1].measure == pytest.approx(0.7, abs=1e-15)
    # first region is the arc [0, 0.6 pi)
    cut = p.regions[0].closing_cut
    assert cut is not None
    level = p.regions[0].level
    tree = build_cell_tree(make("circle"), depth=level)
    cell, t = cut
    boundary = (cell + t) * 2.0 * math.pi / tree.ncells(level)
    assert boundary == pytest.approx(0.6 * math.pi, abs=1e-12)


def test_torus_four_equal_quadrants():
    p = weighted_partition(make("torus2"), np.full(4, 0.25))
    assert p.branch == "direct"
    for reg in p.regions:
        assert reg.measure == pytest.approx(0.25, abs=1e-15)
        assert reg.closing_cut is None  # whole cells, no new cut needed
    reps = p.representatives()
    d = pairwise_distance(make("torus2"), reps, np.roll(reps, 1, axis=0))
    assert np.all(d > 1.0)  # quadrant centers are well separated


def test_torus_half_quarter_quarter():
    p = weighted_partition(make("torus2"), np.array([0.5, 0.25, 0.25]))
    assert [r.measure for r in p.regions] == pytest.approx([0.5, 0.25, 0.25], abs=1e-15)
    blocks = [_split_runs(r.runs)[0] for r in p.regions]
    # level-1 quadrants: big region takes two, the others one each
    sizes = [sum(stop - start for start, stop in b) for b in blocks]
    assert sizes == [2, 1, 1]


def test_circle_eight_equal_exact():
    p = weighted_partition(make("circle"), np.full(8, 0.125))
    for reg in p.regions:
        assert reg.measure == 0.125  # dyadic, no rounding at all
    rep = verify_partition(p)
    assert rep.passed
    assert rep.max_measure_error == 0.0


# ---------------------------------------------------------------------------
# weighted partitions: generic properties


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_partition_measures_match_weights(n, seed):
    w = random_band_weights(n, 0.5, 2.0, seed)
    p = weighted_partition(make("circle"), w)
    errs = [abs(reg.measure - w.values[reg.weight_index]) for reg in p.regions]
    assert max(errs) < 1e-12
    assert math.fsum(r.measure for r in p.regions) == pytest.approx(1.0, abs=1e-12)


VERIFY_INPUTS = {"circle": (17, 3), "torus2": (30, 4), "ellipse": (9, 5), "sphere2": (12, 6)}


@pytest.mark.parametrize("kind,n,seed", [(k, *v) for k, v in VERIFY_INPUTS.items()])
def test_partition_verifies(kind, n, seed):
    w = random_band_weights(n, 0.5, 2.0, seed)
    p = weighted_partition(make(kind), w)
    rep = verify_partition(p)
    assert rep.passed, rep.notes
    assert rep.max_measure_error < 1e-12
    assert rep.c3 > 0.0
    assert rep.c4 < math.inf


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_ball_samples_lie_at_fractions_of_the_radius(kind, rng):
    """Each ball's rows lie at 0.35, 0.7 and 0.95 of its radius from its
    centre: ahead, then behind, on the curves; along the eight directions
    0.3 + k pi / 4 of the chart or tangent frame on the others; the centre
    last."""
    m = make(kind)
    k = 64
    if kind == "sphere2":
        centers = np.column_stack([np.arccos(rng.uniform(-1.0, 1.0, k)), rng.uniform(0.0, TWO_PI, k)])
        centers[:2] = [[0.0, 0.0], [math.pi, 0.0]]
    else:
        centers = rng.uniform(0.0, TWO_PI, (k, m.dim))
    radii = rng.uniform(0.05, 0.5, k)
    fracs = [0.35, 0.7, 0.95]
    want = np.array(fracs * 2 + [0.0] if m.dim == 1 else fracs * 8 + [0.0])
    per = len(want)
    pts = _ball_samples(m, centers, radii)
    assert pts.shape == (k * per, m.dim)
    rows = np.repeat(centers, per, axis=0)
    d = pairwise_distance(m, rows, pts).reshape(k, per)
    assert np.all(np.abs(d[:, :-1] / (want[:-1] * radii[:, None]) - 1.0) <= 1e-12)
    # the sphere's centre comes back through the ambient chart
    assert np.all(d[:, -1] <= 4e-15)
    if m.dim == 1:
        chart = arc_chart(m)
        step = chart.forward(pts[:, 0]) - chart.forward(rows[:, 0])
        ahead = np.mod(step + 0.5 * chart.total, chart.total) > 0.5 * chart.total
        assert np.array_equal(ahead.reshape(k, per)[:, :-1], np.tile([True] * 3 + [False] * 3, (k, 1)))
        return
    if kind == "torus2":
        off = np.mod(pts - rows + math.pi, TWO_PI) - math.pi
        angle = np.arctan2(off[:, 1], off[:, 0])
    else:
        e1, e2 = sphere_tangent_frame(rows)
        x = charts_to_ambient(m, pts)
        angle = np.arctan2(np.sum(x * e2, axis=1), np.sum(x * e1, axis=1))
    angle = angle.reshape(k, per)[:, :-1]
    expect = np.repeat(TWO_PI * np.arange(8) / 8.0 + 0.3, 3)
    assert np.all(np.abs(np.mod(angle - expect + math.pi, TWO_PI) - math.pi) <= 1e-12)


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_verify_catches_leaking_inner_ball(kind):
    n, seed = VERIFY_INPUTS[kind]
    p = weighted_partition(make(kind), random_band_weights(n, 0.5, 2.0, seed))
    regions = list(p.regions)
    regions[2] = dataclasses.replace(regions[2], inner_radius=2.0 * regions[2].outer_radius)
    rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
    assert not rep.inner_ok
    assert rep.notes == ("inner ball of region 2 leaks",)
    assert rep.measures_ok and rep.cover_ok


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_verify_catches_short_outer_ball(kind):
    n, seed = VERIFY_INPUTS[kind]
    p = weighted_partition(make(kind), random_band_weights(n, 0.5, 2.0, seed))
    regions = list(p.regions)
    regions[2] = dataclasses.replace(regions[2], outer_radius=0.5 * regions[2].outer_radius)
    rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
    assert not rep.outer_ok
    assert rep.notes == ("outer ball of region 2 too small",)
    assert rep.measures_ok and rep.cover_ok and rep.inner_ok


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_non_finite_radii_and_representatives_are_refused(kind):
    """A stored outer radius of NaN or infinity is a miss of the outer-ball
    check, not a ball that holds everything, and an inner radius of NaN or
    infinity a leak of the inner ball, as a NaN step moves no point to a
    finite one; ``partition_from_json`` refuses radii that are negative or
    not finite and representatives that are not ``dim`` finite numbers."""
    p = weighted_partition(make(kind), random_band_weights(12, 0.5, 2.0, 1))
    assert verify_partition(p).passed
    for bad in (math.nan, math.inf):
        regions = list(p.regions)
        regions[5] = dataclasses.replace(regions[5], outer_radius=bad)
        rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
        assert not rep.outer_ok and not rep.passed
        assert rep.notes == ("outer ball of region 5 too small",)
        regions[5] = dataclasses.replace(p.regions[5], inner_radius=bad)
        with np.errstate(invalid="ignore"):
            rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
        assert not rep.inner_ok and not rep.passed
        assert rep.notes == ("inner ball of region 5 leaks",)
    reps = p.representatives()
    step = np.full((len(reps), 3 if kind == "sphere2" else p.manifold.dim), math.nan)
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(move_points(p.manifold, reps, step)).all(axis=1).any()
    text = partition_to_json(p)
    dim = p.manifold.dim
    bad_fields = [("outer_radius", math.nan), ("outer_radius", math.inf), ("outer_radius", -1e-3),
                  ("inner_radius", math.nan), ("inner_radius", -math.inf), ("inner_radius", -1e-3),
                  ("representative", [0.5] * (dim - 1)), ("representative", [0.5] * (dim + 1)),
                  ("representative", [0.5] * (dim - 1) + [math.nan]), ("representative", [math.inf] * dim),
                  ("representative", ["0.5"] * dim), ("representative", 0.5)]
    for key, value in bad_fields:
        doc = json.loads(text)
        doc["regions"][5][key] = value
        with pytest.raises(ValueError, match="representative|radius"):
            partition_from_json(json.dumps(doc))
    assert partition_to_json(partition_from_json(text)) == text


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_verify_names_first_leak_past_a_region_batch(kind):
    """The inner-ball check runs in batches of regions: leaks planted in the
    second and third batches are caught, and the note names the first."""
    n = 2 * _REGION_BATCH + 44
    p = weighted_partition(make(kind), random_band_weights(n, 0.5, 2.0, 3))
    assert verify_partition(p).passed
    regions = list(p.regions)
    for r in (_REGION_BATCH + 3, n - 1):
        regions[r] = dataclasses.replace(regions[r], inner_radius=2.0 * regions[r].outer_radius)
    rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
    assert not rep.inner_ok
    assert rep.notes == (f"inner ball of region {_REGION_BATCH + 3} leaks",)
    assert rep.measures_ok and rep.cover_ok and rep.outer_ok


@pytest.mark.parametrize("kind,weights", [
    ("circle", [0.3, 0.7]),
    ("ellipse", [0.55, 0.45]),
    ("torus2", [0.5, 0.25, 0.25]),
    ("sphere2", [0.6, 0.4]),
])
def test_verify_checks_outer_ball_of_large_regions(kind, weights):
    """The outer balls of regions as large as half the manifold are
    checked: a ball 0.9 times too small is caught on every region."""
    p = weighted_partition(make(kind), np.array(weights))
    assert verify_partition(p).passed
    for r in range(p.n):
        regions = list(p.regions)
        regions[r] = dataclasses.replace(regions[r], outer_radius=0.9 * regions[r].outer_radius)
        rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
        assert rep.notes == (f"outer ball of region {r} too small",)


def test_outer_radius_stops_at_the_farthest_point_and_the_diameter():
    """On the torus direct branch with weights [0.5, 0.25, 0.25], region 0
    is cells 0-1 of level 1 about (pi/2, pi/2): its outer radius is its
    farthest point's distance hypot(pi, pi/2), to within ``_REACH_TOL``
    of a cell width, where a farthest centre plus a half-diagonal gave
    5.363, past the diameter.  No stored radius passes the diameter, and
    partition files whose radii do (as that one did) are still read."""
    torus = make("torus2")
    p = weighted_partition(torus, np.array([0.5, 0.25, 0.25]))
    assert p.branch == "direct" and p.fine_level == 1
    assert p.regions[0].runs == ((0, 2, 0.0, 1.0),)
    far = math.hypot(math.pi, 0.5 * math.pi)
    assert far <= p.regions[0].outer_radius <= far + _REACH_TOL * math.pi
    assert 4.96 < p.c4 < 4.98
    for kind, n in (("circle", 3), ("ellipse", 2), ("torus2", 5), ("sphere2", 2), ("sphere2", 16)):
        q = weighted_partition(make(kind), random_band_weights(n, 0.5, 2.0, 0))
        assert all(r.outer_radius <= q.manifold.diameter for r in q.regions)
    doc = json.loads(partition_to_json(p))
    doc["regions"][0]["outer_radius"] = 5.363
    old = partition_from_json(json.dumps(doc))
    assert old.regions[0].outer_radius == 5.363 > torus.diameter
    assert verify_partition(old).passed


def _torus_farthest(p, r):
    """Farthest distance from region ``r``'s representative to a point of
    its cells and pieces: per axis, the farthest offset within an arc is at
    an end, or half the period where the arc holds the antipode, and the
    torus distance is the hypot of the two."""
    w = TWO_PI / 2**p.fine_level
    rep = np.array(p.regions[r].representative)
    far = 0.0
    for s, e, tf, tl in p.regions[r].runs:
        for cell in range(s, e):
            i, j = (int(x[0]) for x in _hilbert_decode(np.array([cell]), p.fine_level))
            t0 = tf if cell == s else 0.0
            t1 = tl if cell == e - 1 else 1.0
            offsets = []
            for o, a, b in ((rep[0], (i + t0) * w, (i + t1) * w), (rep[1], j * w, (j + 1) * w)):
                if (o + math.pi - a) % TWO_PI <= b - a:
                    offsets.append(math.pi)
                else:
                    offsets.append(max(float(_circle_dist(o, a)), float(_circle_dist(o, b))))
            far = max(far, math.hypot(*offsets))
    return far


@pytest.mark.parametrize("kind", ["circle", "ellipse", "torus2", "sphere2"])
def test_outer_check_is_independent_and_tight(kind, monkeypatch):
    """The outer-ball check takes no boundary samples, and catches a radius
    a tenth of a fine-cell width short of the region's farthest point, less
    than the sphere's sampling slack.  On the curves the stored radius is
    that point; on the torus it is found from the cells' arcs; on the
    sphere the stored radius stands in for it.  Stored radii are that
    tight: each of them times 1 - 1e-3 is caught on every region of three
    tree-branch partitions."""
    m = make(kind)
    p = weighted_partition(m, random_band_weights(16, 0.5, 2.0, 7))
    tight = [weighted_partition(m, random_band_weights(n, 0.5, 2.0, seed))
             for n, seed in ((16, 7), (40, 1), (128, 8))]
    assert p.branch == "tree"

    def no_samples(*args):
        raise AssertionError("verification sampled a box boundary")

    monkeypatch.setattr("cubaflow.partition._box_reach", no_samples)
    assert verify_partition(p).passed
    # in arc length; on the sphere 2^-level, under a third of a cell's side
    width = (1.0 if kind == "sphere2" else arc_chart(m).total) / 2**p.fine_level
    for r in (0, 7, 15):
        far = _torus_farthest(p, r) if kind == "torus2" else p.regions[r].outer_radius
        regions = list(p.regions)
        regions[r] = dataclasses.replace(regions[r], outer_radius=far - 0.1 * width)
        rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
        assert rep.notes == (f"outer ball of region {r} too small",)
    for q in tight:
        assert q.branch == "tree" and verify_partition(q).passed
        short = [dataclasses.replace(r, outer_radius=(1.0 - 1e-3) * r.outer_radius) for r in q.regions]
        tree = build_cell_tree(m, depth=q.fine_level)
        assert np.all(_outer_ball_misses(tree, q.fine_level, short)), q.n


@lru_cache(maxsize=None)
def _band_partition(kind, n, seed):
    m = Manifold("ellipse", 3.0, 1.0) if kind == "ellipse3" else make(kind)
    return weighted_partition(m, random_band_weights(n, 0.5, 2.0, seed))


# tree-branch inputs of every kind, among them the benchmark's partition cases
SWEEP_INPUTS = [("circle", 128), ("circle", 1024), ("ellipse3", 128), ("torus2", 100),
                ("torus2", 256), ("sphere2", 16), ("sphere2", 40)]


@pytest.mark.parametrize("kind,n", SWEEP_INPUTS)
def test_region_runs_join_end_to_end(kind, n):
    """The tree sweeps the cells in index order, so each region's runs join
    end to end: run r ends at the fine-level position where run r + 1
    starts."""
    for seed in (7, 8, 9):
        p = _band_partition(kind, n, seed)
        assert p.branch == "tree"
        for reg in p.regions:
            for (_, stop, _, t_last), (start, _, t_first, _) in zip(reg.runs, reg.runs[1:]):
                assert stop - 1 + t_last == start + t_first


# ---------------------------------------------------------------------------
# the position sweep against the run-queue cursor it replaced


def _cursor_run_measure(n, run):
    s, e, tf, tl = run
    if e <= s:
        return 0.0
    if e == s + 1:
        return (tl - tf) / n
    return (1.0 - tf) / n + ((e - 1) - (s + 1)) / n + (tl - 0.0) / n


def _cursor_cut(n, target, start=0.0):
    """Sweep coordinate closing a piece of measure ``target`` from ``start``."""
    if target <= 1e-16:
        return start
    if target >= (1.0 - start) / n - 1e-16:
        return 1.0
    return start + target * n


class _CursorOracle:
    """The material cursor the position sweep replaced: a queue of runs of
    a level of n cells, consumed front to back and cut where a weight ends."""

    def __init__(self, n, runs):
        self.n = n
        self.runs = [list(r) for r in runs if _cursor_run_measure(n, r) > 1e-16]

    def take(self, need):
        out = []
        while need > 1e-15 and self.runs:
            m = _cursor_run_measure(self.n, self.runs[0])
            if m <= 1e-16:
                self.runs.pop(0)
            elif m <= need + 1e-15:
                out.append(tuple(self.runs.pop(0)))
                need -= m
            else:
                piece, self.runs[0] = self._split(self.runs[0], need)
                out.append(piece)
                need = 0.0
        assert need <= 1e-11
        return out

    def _split(self, run, need):
        n, tol = self.n, 0.5e-12
        s, e, tf, tl = run
        first_hi = tl if e == s + 1 else 1.0
        m0 = (first_hi - tf) / n
        if need <= m0 - tol:
            t = _cursor_cut(n, need, tf)
            return (s, s + 1, tf, t), [s, e, t, tl]
        if abs(need - m0) <= tol or e == s + 1:
            return (s, s + 1, tf, first_hi), [s + 1, e, 0.0, tl]
        rem = need - m0
        whole = ((e - 1) - (s + 1)) / n
        if rem < whole - tol:
            c = min(max(s + 1 + int(rem * n), s + 1), e - 2)
            rem_in = rem - (c - (s + 1)) / n
            while rem_in < -1e-15 and c > s + 1:
                c -= 1
                rem_in = rem - (c - (s + 1)) / n
            t = _cursor_cut(n, max(rem_in, 0.0))
            if t <= 1e-15:
                return (s, c, tf, 1.0), [c, e, 0.0, tl]
            if t >= 1.0 - 1e-15:
                return (s, c + 1, tf, 1.0), [c + 1, e, 0.0, tl]
            return (s, c + 1, tf, t), [c, e, t, tl]
        if abs(rem - whole) <= tol:
            return (s, e - 1, tf, 1.0), [e - 1, e, 0.0, tl]
        t = _cursor_cut(n, rem - whole)
        return (s, e, tf, t), [e - 1, e, t, tl]


def _cursor_sweep(tree, level, nodes, vals):
    """Region runs of the cursor sweep: each node's cursor holds the runs
    its predecessor left plus its own block."""
    n = tree.ncells(level)
    per = n // nodes
    unused, rest, out = list(range(len(vals))), [], {}
    for node in range(nodes):
        cursor = _CursorOracle(n, rest + [(node * per, (node + 1) * per, 0.0, 1.0)])
        root = node == nodes - 1
        if root:
            chosen, unused = unused, []
        else:
            mu = math.fsum(_cursor_run_measure(n, r) for r in cursor.runs)
            chosen, unused = _affordable(unused, vals, mu + 1e-13, float(vals.min()))
        for pos, j in enumerate(chosen):
            if root and pos == len(chosen) - 1:
                out[j], cursor.runs = [tuple(r) for r in cursor.runs], []
            else:
                out[j] = cursor.take(vals[j])
        rest = cursor.runs
    return [tuple(out[j]) for j in range(len(vals))]


# the benchmark's partition cases at weights seeds 7-16, and the MZ sweep's
# circle partitions at N 8 .. 1024, weights seeds N + 0-9
SWEEP_CASES = [(kind, n, range(7, 17)) for kind, n in (
    ("torus2", 128), ("torus2", 256), ("circle", 1024), ("ellipse3", 128), ("sphere2", 16))]
SWEEP_CASES += [("circle", n, range(n, n + 10)) for n in (8 * 2**k for k in range(8))]


@lru_cache(maxsize=None)
def _sweeps(kind, n, seed):
    """(fine cells, sweep runs, cursor runs) of one input, without region geometry."""
    m = Manifold("ellipse", 3.0, 1.0) if kind == "ellipse3" else make(kind)
    w = random_band_weights(n, 0.5, 2.0, seed)
    _, _, fine, nodes, _ = _plan(m, w)
    tree = build_cell_tree(m, depth=max(fine, 1))
    runs = _sweep(tree, fine, nodes, w.values, w.fitted_band()[1] / n)[0]
    return tree.ncells(fine), runs, _cursor_sweep(tree, fine, nodes, w.values)


def _cell_ranges(runs, n):
    """(start, stop) cells of runs, leaving out end pieces narrower than
    1e-15 of measure."""
    out = []
    for s, e, tf, tl in runs:
        if e == s + 1 and (tl - tf) / n < 1e-15:
            continue
        if e > s + 1:
            s, e = s + ((1.0 - tf) / n < 1e-15), e - (tl / n < 1e-15)
        out.append((s, e))
    return out


def _slivers(region_runs, n):
    """Run endpoints strictly within 1e-15 of measure of a cell boundary."""
    return [t for runs in region_runs for run in runs for t in run[2:]
            if 0.0 < min(t, 1.0 - t) / n < 1e-15]


@pytest.mark.parametrize("kind,n,seeds", SWEEP_CASES)
def test_sweep_matches_cursor_oracle(kind, n, seeds):
    """Regions start and end where the cursor's do, to 1e-15 of measure,
    and cover the same cells but for the cursor's slivers."""
    for seed in seeds:
        cells, got, want = _sweeps(kind, n, seed)
        for runs, old in zip(got, want):
            for (c, t), (c_old, t_old) in (((runs[0][0], runs[0][2]), (old[0][0], old[0][2])),
                                           ((runs[-1][1] - 1, runs[-1][3]),
                                            (old[-1][1] - 1, old[-1][3]))):
                assert abs((c + t) / cells - (c_old + t_old) / cells) <= 1e-15
            assert [r[:2] for r in runs] == _cell_ranges(old, cells), (seed, runs, old)


@pytest.mark.parametrize("kind,n,seeds", SWEEP_CASES)
def test_sweep_leaves_no_slivers(kind, n, seeds):
    """Cuts within 1e-15 of measure of a cell boundary go onto it.  The
    cursor left a 1.9e-12-cell sliver between regions 126 and 127 at N128,
    weights seed 136, so region 127 lacked that whole cell."""
    for seed in seeds:
        cells, got, want = _sweeps(kind, n, seed)
        assert not _slivers(got, cells), seed
        if (n, seed) == (128, 136):
            assert _slivers(want, cells)


# the benchmark's partition cases, weights seeds 7-9: (largest c4, smallest c3)
# frozen from their values with headroom
C4_BOUNDS_C3_FLOORS = {("torus2", 128): (9.0, 0.17), ("torus2", 256): (9.0, 0.12),
                       ("circle", 1024): (4.0, 0.16), ("ellipse3", 128): (9.0, 0.33),
                       ("sphere2", 16): (6.0, 0.02)}


@pytest.mark.parametrize("kind,n", list(C4_BOUNDS_C3_FLOORS))
def test_tree_partition_radius_constants(kind, n):
    """Regions stay inside outer balls of radius about N^(-1/d): c4 is
    bounded on every kind, and c3 keeps its floor."""
    bound, floor = C4_BOUNDS_C3_FLOORS[kind, n]
    for seed in (7, 8, 9):
        p = _band_partition(kind, n, seed)
        assert p.c4 <= bound and p.c3 >= floor, (seed, p.c3, p.c4)


def _three_at(n, top):
    """n weights: three of ``top``, the others equal."""
    return np.array([top] * 3 + [(1.0 - 3.0 * top) / (n - 3)] * (n - 3))


def test_branches_by_size():
    """The tree branch needs level-1 cells, of measure 1/cells, strictly
    larger than 2b/N: a largest weight of exactly 1/(2 cells) stays direct,
    one 1e-7 or 1e-5 relative below it takes the tree."""
    assert weighted_partition(make("circle"), np.full(64, 1.0 / 64)).branch == "tree"
    assert weighted_partition(make("torus2"), np.full(64, 1.0 / 64)).branch == "tree"
    for kind, cells in (("circle", 2), ("torus2", 4), ("sphere2", 4)):
        m, edge = make(kind), 0.5 / cells
        assert weighted_partition(m, np.full(2 * cells, edge)).branch == "direct"
        for top, branch in ((edge, "direct"), (edge * (1 - 1e-7), "tree"), (edge * (1 - 1e-5), "tree")):
            for n in (2 * cells + 1, 4 * cells):
                p = weighted_partition(m, _three_at(n, top))
                assert p.branch == branch and verify_partition(p).passed, (kind, top, n)
                assert p.coarse_level == (1 if branch == "tree" else p.fine_level)


def test_representatives_inside_own_region():
    w = random_band_weights(24, 0.5, 2.0, 9)
    p = weighted_partition(make("torus2"), w)
    tree = build_cell_tree(make("torus2"), depth=p.fine_level)
    for reg in p.regions:
        cell = tree.locate(reg.level, np.asarray(reg.representative))
        inside = any(start <= cell < stop for start, stop, _, _ in
                     [(r[0], r[1], r[2], r[3]) for r in reg.runs])
        assert inside


# the sphere partitions the benchmark fingerprints: its N16 partition case
# (weight seeds shifted by 7) and the N40 and N150 tree-branch partitions
FINGERPRINT_SPHERES = [(16, seed + 7) for seed in range(10)] + [(n, seed) for n in (40, 150)
                                                                 for seed in range(3)]


def _representatives_hold_under_one_ulp(manifold, n, seed) -> int:
    """Moving a region's centroid by one ulp along any coordinate moves no
    representative: searched from the centroid and from each move, every
    region with whole cells picks its stored representative.  Returns the
    number of regions checked."""
    p = weighted_partition(manifold, random_band_weights(n, 0.5, 2.0, seed))
    level = p.fine_level
    tree = build_cell_tree(manifold, depth=level)
    sphere = manifold.kind == "sphere2"
    owner, lo, hi = _cell_blocks(tree, level, *_run_parts([reg.runs for reg in p.regions])[0])
    goal = (_sphere_centroids if sphere else _flat_centroids)(level, owner, lo, hi, p.n)
    live = ~np.isnan(goal[owner, 0])
    owner, lo, hi = owner[live], lo[live], hi[live]
    # the centroid, then each coordinate one ulp down and up
    dim = goal.shape[1]
    goals = [goal] + [np.where(np.arange(dim) == k, np.nextafter(goal, to), goal)
                      for k in range(dim) for to in (-np.inf, np.inf)]
    width = math.sqrt(4.0 * math.pi / tree.ncells(level)) if sphere else tree._arc_width(level)
    found, cells, _ = _cell_extremes(tree, level, np.concatenate(goals),
                                     np.concatenate([owner + t * p.n for t in range(len(goals))]),
                                     np.tile(lo, (len(goals), 1)), np.tile(hi, (len(goals), 1)),
                                     1e-9 * width)
    picks = np.full(len(goals) * p.n, np.iinfo(np.int64).max)
    np.minimum.at(picks, found, cells)
    picks = picks.reshape(len(goals), p.n)
    rows = np.unique(owner)
    assert np.all(picks[:, rows] == picks[0, rows]), seed
    want = np.array([p.regions[r].representative for r in rows])
    assert np.array_equal(tree.piece_geometry(level, picks[0, rows], 0.0, 1.0)[0], want)
    return len(rows)


@pytest.mark.parametrize("n,seed", FINGERPRINT_SPHERES)
def test_sphere_representatives_hold_under_one_ulp(n, seed):
    assert _representatives_hold_under_one_ulp(make("sphere2"), n, seed) > 0


def _sphere_centroids_one_shot(level, owner, corner, side, n):
    """``regions._sphere_centroids`` without its batches of boxes: the
    Gauss rule on every smooth square at once, then the collapsed rule on
    every triangle of the split squares at once.  A square is split, square
    by square, along its diagonal on the fold |u| + |v| = 1 (two corners
    on it) and collapsed at the corners off it, or else along the diagonal
    through a pole corner and collapsed there."""
    w = 2.0 ** (1 - level)
    smooth, tris = [], []
    for k, (c, s) in enumerate(zip(corner, side)):
        f = [abs(-1.0 + (c[0] + q[0] * s) * w) + abs(-1.0 + (c[1] + q[1] * s) * w) for q in _QUARTERS]
        if f[0] == f[3] == 1.0:
            tris += [(k, (1, 0, 3)), (k, (2, 0, 3))]
        elif f[1] == f[2] == 1.0:
            tris += [(k, (0, 1, 2)), (k, (3, 1, 2))]
        elif any(g in (0.0, 2.0) for g in f):
            p = next(q for q in range(4) if f[q] in (0.0, 2.0))
            off = [q for q in range(4) if q not in (p, 3 - p)]
            tris += [(k, (p, off[0], 3 - p)), (k, (p, off[1], 3 - p))]
        else:
            smooth.append(k)
    total, mass = np.zeros((n, 3)), np.zeros(n)
    c, s = corner[smooth], side[smooth]
    u, v = (c[:, k, None] + 0.5 * s[:, None] * (1.0 + _GAUSS_X) for k in (0, 1))
    grid = np.stack(np.broadcast_arrays(u[:, :, None], v[:, None, :]), axis=-1)
    np.add.at(total, owner[smooth], np.einsum("kabc,a,b,k->kc", _grid_points(level, grid),
                                              _GAUSS_W, _GAUSS_W, s**2))
    if tris:
        k = np.array([t[0] for t in tris])
        vert = corner[k, None, :] + _QUARTERS[[t[1] for t in tris]] * side[k, None, None]
        a, p, q = (vert[:, i, None, None, :] for i in range(3))
        pos = a + _DUFFY_X[:, None, None] * (p - a + _DUFFY_X[:, None] * (q - p))
        np.add.at(total, owner[k], np.einsum("kabc,a,b,k->kc", _grid_points(level, pos),
                                             _DUFFY_W, _GAUSS_W, side[k]**2))
    np.add.at(mass, owner, 4.0 * side**2)
    norm = np.linalg.norm(total, axis=1)
    flat = norm <= 1e-9 * mass
    return np.where(flat[:, None], (0.0, 0.0, 1.0), total / np.where(flat, 1.0, norm)[:, None])


@pytest.mark.parametrize("extra", [0, 1, _BOX_BATCH - 1])
def test_sphere_centroids_match_one_shot_rule(extra):
    """Taking the rules in batches of boxes leaves every centroid
    bit-identical: every level-6 cell, interleaved among 13 owners, plus
    level-3 squares of side 8 and ``extra`` cells that change how the last
    batch is filled, so that hundreds of fold and pole squares are split;
    a degenerate owner gets the north pole either way."""
    level, n = 6, 14
    cells = np.indices((64, 64)).reshape(2, -1).T
    blocks = 8 * np.indices((8, 8)).reshape(2, -1).T
    corner = np.concatenate([cells, blocks, cells[:extra]]).astype(float)
    side = np.concatenate([np.ones(len(cells)), np.full(len(blocks), 8.0), np.ones(extra)])
    owner = (7 * np.arange(len(side))) % 13
    # owner 13 holds the four cells about each pole, whose centroid degenerates
    poles = [[31.0, 31.0], [32.0, 31.0], [31.0, 32.0], [32.0, 32.0],
             [0.0, 0.0], [63.0, 0.0], [0.0, 63.0], [63.0, 63.0]]
    corner = np.concatenate([corner, poles])
    side, owner = np.append(side, np.ones(8)), np.append(owner, [13] * 8)
    assert len(side) > 3 * _BOX_BATCH
    got = _sphere_centroids(level, owner, corner, corner + side[:, None], n)
    assert got.tobytes() == _sphere_centroids_one_shot(level, owner, corner, side, n).tobytes()
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0)
    assert tuple(got[13]) == (0.0, 0.0, 1.0)


def _kinked_square_oracle(level, corner, side):
    """Four times the chart integral of the unit vector over one chart
    square (corner and side in level-cell widths), cell by cell: the square
    is cut into 8 x 8 sub-cells, those that cross the fold |u| + |v| = 1 or
    touch a pole are quartered down to 2^-9 of the square's side, and each
    piece takes a 4 x 4 Gauss rule, with no triangle anywhere."""
    w = 2.0 ** (1 - level)
    h = side / 8.0
    lo = np.asarray(corner, dtype=float) + h * np.indices((8, 8)).reshape(2, -1).T
    s = np.full(len(lo), h)
    total = np.zeros(3)
    while len(s):
        u, v = (-1.0 + (lo[:, k, None] + _QUARTERS[:, k] * s[:, None]) * w for k in (0, 1))
        f = np.abs(u) + np.abs(v)
        kink = (((f.min(axis=1) < 1.0) & (f.max(axis=1) > 1.0)) | np.any((f == 0.0) | (f == 2.0), axis=1))
        kink &= s > side * 2.0**-9
        x = lo[~kink, None, :] + 0.5 * s[~kink, None, None] * (1.0 + _GAUSS_X[:, None])
        grid = np.stack(np.broadcast_arrays(x[:, :, None, 0], x[:, None, :, 1]), axis=-1)
        total += np.einsum("kabc,a,b,k->c", _grid_points(level, grid), _GAUSS_W, _GAUSS_W, s[~kink]**2)
        s = np.repeat(0.5 * s[kink], 4)
        lo = (lo[kink][:, None, :] + _QUARTERS * s[::4, None, None]).reshape(-1, 2)
    return total


def _kinked_squares(level):
    """(corner, side, kind) of aligned chart squares of level ``level``
    (corners and sides in cell widths): the quadrants, and for each side
    below theirs one square on the fold in each quadrant and the squares
    at each pole."""
    n = 2**level
    out = [(c, n // 2, "quadrant") for c in ((0, 0), (n // 2, 0), (0, n // 2), (n // 2, n // 2))]
    for e in range(level - 1):
        s = 2**e
        # the fold squares at the chart edge points (-1, 0) and (1, 0), one per quadrant
        out += [((i, j), s, "fold")
                for i, j in ((0, n // 2), (n - s, n // 2), (0, n // 2 - s), (n - s, n // 2 - s))]
        out += [((i, j), s, "pole") for i in (n // 2 - s, n // 2) for j in (n // 2 - s, n // 2)]
        out += [((i, j), s, "pole") for i in (0, n - s) for j in (0, n - s)]
    return out


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_sphere_centroids_of_kinked_squares(level):
    """The centroid of each quadrant and each fold or pole square at levels
    2-6, from ``_sphere_centroids``' triangles, lies within 5e-6 of the
    square's side of the centroid ``_kinked_square_oracle`` takes cell by
    cell (the largest seen is 3.2e-6, on a pole square of side 1 at level
    2); the whole chart, the one square of level 0, degenerates to the
    north pole."""
    whole = _sphere_centroids(0, np.zeros(1, dtype=np.int64), np.zeros((1, 2)), np.ones((1, 2)), 1)
    assert tuple(whole[0]) == (0.0, 0.0, 1.0)
    squares = _kinked_squares(level)
    corner = np.array([c for c, _, _ in squares], dtype=float)
    side = np.array([s for _, s, _ in squares], dtype=float)
    got = _sphere_centroids(level, np.arange(len(side)), corner, corner + side[:, None], len(side))
    for g, (c, s, kind) in zip(got, squares):
        want = _kinked_square_oracle(level, c, s)
        u, v = (-1.0 + (np.array(c) + 0.5 * s) * 2.0 ** (1 - level))
        if kind == "fold":
            assert abs(u) + abs(v) == 1.0
        assert _arc(g, want / np.linalg.norm(want)) <= 5e-6 * s * 2.0**-level, (kind, c, s)


def test_sphere_partition_memory_is_bounded():
    """The benchmark's sphere N16 partition (weights seed 7) traces under
    2 MB: the centroid rule holds its points for a batch of squares, not
    for every square (6.4 MB when it did)."""
    w = random_band_weights(16, 0.5, 2.0, 7)
    tracemalloc.start()
    try:
        weighted_partition(make("sphere2"), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# the flat partition cases of the benchmark at weights seeds 7-16
FLAT_FINGERPRINT_CASES = [("circle", (), 1024), ("ellipse", (3.0, 1.0), 128),
                          ("torus2", (), 128), ("torus2", (), 256)]


@pytest.mark.parametrize("kind,axes,n", FLAT_FINGERPRINT_CASES,
                         ids=[f"{k}-N{n}" for k, _, n in FLAT_FINGERPRINT_CASES])
def test_flat_representatives_hold_under_one_ulp(kind, axes, n):
    for seed in range(7, 17):
        assert _representatives_hold_under_one_ulp(Manifold(kind, *axes), n, seed) > 0.9 * n


def test_region_radii_certified():
    w = random_band_weights(24, 0.5, 2.0, 9)
    p = weighted_partition(make("torus2"), w)
    for reg in p.regions:
        assert 0.0 < reg.inner_radius <= reg.outer_radius


def _sphere_region_blocks(level, whole):
    """Owner (all 0) and opposite corners of the chart squares of the
    aligned blocks tiling one region's whole-cell ranges."""
    lo, hi = np.array(whole).T
    _, start, exp = _aligned_blocks(lo, hi, level)
    corner = np.column_stack([(a >> exp) << exp for a in _hilbert_loop(start, level)]).astype(float)
    return np.zeros(len(start), dtype=np.int64), corner, corner + np.ldexp(1.0, exp)[:, None]


def _split_runs(runs):
    """Whole-cell (start, stop) ranges and partial (cell, t0, t1) pieces of
    one region's runs, run by run."""
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


def test_run_parts_match_run_by_run_split():
    """``regions._run_parts`` splits every region's runs as ``_split_runs``
    does run by run, in the same order: direct- and tree-branch partitions
    of every kind, and runs cut at and near cell ends."""
    regions = [((3, 4, 0.25, 0.75),), ((3, 4, 0.0, 1.0),), ((3, 4, 1e-13, 1.0 - 1e-13),),
               ((0, 5, 0.5, 0.5), (9, 10, 0.0, 0.3)), ((7, 9, 0.2, 1.0),), ((7, 9, 0.0, 0.2),),
               ((7, 8, 0.2, 1.0), (8, 12, 0.0, 1.0))]
    for kind in ("circle", "torus2", "sphere2", "ellipse"):
        for n, seed in ((6, 0), (64, 64)):
            regions += [r.runs for r in weighted_partition(make(kind), random_band_weights(n, 0.5, 2.0, seed)).regions]
    (own, first, stop), (p_own, cell, t0, t1) = _run_parts(regions)
    split = [_split_runs(runs) for runs in regions]
    assert list(zip(own.tolist(), first.tolist(), stop.tolist())) == [
        (r, a, b) for r, (whole, _) in enumerate(split) for a, b in whole]
    assert list(zip(p_own.tolist(), cell.tolist(), t0.tolist(), t1.tolist())) == [
        (r, *piece) for r, (_, parts) in enumerate(split) for piece in parts]


def _whole_ranges(wholes):
    """Owner, start and stop of every whole-cell range of the regions."""
    return np.array([(r, s, e) for r, ranges in enumerate(wholes) for s, e in ranges],
                    dtype=np.int64).reshape(-1, 3).T


def _centroid_oracle(manifold, level, cells, whole):
    """Measure centroid of a region's whole cells, or None where it degenerates.

    On the sphere it is the sum over the region's cells of a 3 x 3 Gauss
    rule per square of side at most 2^-6 in the chart, which must agree
    with ``_sphere_centroids`` to 1e-3 2^-level; the search then starts
    from the latter, so that the representative can be compared exactly.
    On the flat kinds it is the circular mean per axis of every cell's
    position i + 1/2, in cell widths, summed cell by cell; it must agree
    with the closed form of ``_flat_centroids`` to 1e-6 cell widths, and
    the search starts from it.
    """
    if manifold.kind == "sphere2":
        x, wt = np.polynomial.legendre.leggauss(3)
        sub = 2 ** max(0, 7 - level)
        q = (np.arange(sub)[:, None] + 0.5 * (1.0 + x)).ravel() / sub
        wt = np.tile(wt, sub)
        i, j = _hilbert_loop(cells, level)
        u, v = (-1.0 + (a[:, None, None] + b) * 2.0 / 2**level
                for a, b in ((i, q[:, None]), (j, q[None, :])))
        total = np.einsum("kabc,a,b->c", _octa_forward(*np.broadcast_arrays(u, v)), wt, wt)
        goal = _sphere_centroids(level, *_sphere_region_blocks(level, whole), 1)
        assert _arc(goal[0], total / np.linalg.norm(total)) <= 1e-3 * 2.0**-level
        return sphere_chart_from_ambient(goal)[0]
    n = 2**level
    tree = build_cell_tree(manifold, depth=level)
    h = (np.column_stack(tree._axes(level, cells)) + 0.5) * (TWO_PI / n)
    c, s = np.cos(h).sum(axis=0), np.sin(h).sum(axis=0)
    closed = _flat_centroids(level, *_cell_blocks(tree, level, *_whole_ranges([whole])), 1)[0]
    if np.any(np.hypot(c, s) < 1e-9 * len(cells)):
        assert np.all(np.isnan(closed))
        return None
    goal = (np.arctan2(s, c) % TWO_PI) * (n / TWO_PI)
    miss = np.abs(goal - closed) % n
    assert np.all(np.minimum(miss, n - miss) <= 1e-6)
    return goal


# boundary samples per box edge of the sphere oracle
_ORACLE_SAMPLES = 129


def _sphere_farthest(z, level, lo, hi):
    """Farthest boundary sample of chart boxes (corners ``(k, 2)`` in
    level-cell widths) from unit vector z, and that plus each box's slack,
    as an interval holding their farthest point's distance; [pi, pi] if a
    box holds -z."""
    a = (np.array(_octa_inverse(-z)) + 1.0) * 2.0 ** (level - 1)
    if np.any(np.all((lo < a) & (a < hi), axis=1)):
        return math.pi, math.pi
    n = _ORACLE_SAMPLES - 1
    s = np.arange(n) / n
    (u0, v0), (u1, v1) = (x.T[:, :, None] for x in (lo, hi))
    u = np.concatenate([u0 + s * (u1 - u0), u1 + 0 * s, u1 - s * (u1 - u0), u0 + 0 * s], axis=1)
    v = np.concatenate([v0 + 0 * s, v0 + s * (v1 - v0), v1 + 0 * s, v1 - s * (v1 - v0)], axis=1)
    d = _arc(z, _octa_forward(-1.0 + u * 2.0 ** (1 - level), -1.0 + v * 2.0 ** (1 - level))).max(axis=1)
    slack = _AXIS * 2.0 ** (1 - level) * np.max(hi - lo, axis=1) / (2 * n)
    return float(d.max()), float((d + slack).max())


def _flat_farthest(m, level, rep, lo, hi):
    """Distance from chart point ``rep`` to the farthest point of flat boxes
    (corners ``(k, d)`` in level-cell widths), exactly per axis: in arc
    length, the farthest offset within an arc is at an end, or half the
    period where the arc holds the antipode, and the distance is the hypot
    of the offsets."""
    chart = arc_chart(m)
    period = chart.total
    w = period / 2**level
    o = np.array([chart.forward(x % TWO_PI) for x in rep])
    a, b = lo * w, hi * w

    def circ(x):
        d = np.abs(x - o) % period
        return np.minimum(d, period - d)

    off = np.where((o + 0.5 * period - a) % period <= b - a, 0.5 * period, np.maximum(circ(a), circ(b)))
    return float(np.hypot.reduce(off, axis=1).max())


def _region_geometry_oracle(tree, level, runs):
    """Representative, inner radius and an interval holding the farthest
    point's distance of one region, cell by cell.

    The representative is the lowest-index cell within 1e-9 cell widths
    of the nearest to the centroid (the lowest-index cell where a flat
    centroid degenerates).  On the flat kinds distances are taken in cell
    widths from cell indices, and the farthest point is exact.  On the
    sphere boxes are sampled along their boundaries: cells, too many at a
    fine level, are taken within the certified level bound ``u2 2^-level``
    of the farthest centre.
    """
    m = tree.manifold
    sphere = m.kind == "sphere2"
    whole, partials = _split_runs(runs)
    cells = np.concatenate([np.arange(lo, hi) for lo, hi in whole] + [np.zeros(0, dtype=np.int64)])
    if whole:
        centers = _cell_centers(tree, level, cells)
        centroid = _centroid_oracle(m, level, cells, whole)
        if sphere:
            dd = pairwise_distance(m, np.tile(centroid, (len(cells), 1)), centers)
            tol = 1e-9 * math.sqrt(4.0 * math.pi / tree.ncells(level))
        else:
            n = 2**level
            pos = np.column_stack(tree._axes(level, cells)) + 0.5
            d = np.zeros_like(pos) if centroid is None else np.abs(pos - centroid) % n
            dd = np.hypot.reduce(np.minimum(d, n - d), axis=1)
            tol = 1e-9
        near = np.flatnonzero(dd <= dd.min() + tol)
        pick = int(near[np.argmin(cells[near])])
        rep, inner_r = centers[pick], tree.piece_geometry(level, cells[pick], 0.0, 1.0)[1]
        if sphere:
            d = pairwise_distance(m, np.tile(rep, (len(cells), 1)), centers)
            cells = cells[d >= d.max() - tree.u2 * 2.0**-level]
    else:
        rep, inner_r = tree.piece_geometry(level, *max(partials, key=lambda piece: piece[2] - piece[1]))
    # whole cells and pieces as boxes, first axis swept
    ij = np.column_stack(tree._axes(level, cells)).astype(float)
    lo, hi = [ij], [ij + 1.0]
    for c, t0, t1 in partials:
        a = np.column_stack(tree._axes(level, np.array([c]))).astype(float)
        lo.append(a + [[t0] + [0.0] * (m.dim - 1)])
        hi.append(a + [[t1] + [1.0] * (m.dim - 1)])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    if sphere:
        far = _sphere_farthest(charts_to_ambient(m, np.asarray(rep)[None, :])[0], level, lo, hi)
    else:
        far = (_flat_farthest(m, level, rep, lo, hi),) * 2
    return tuple(float(x) for x in rep), inner_r, far


# (N, weight seed): a direct-branch partition with a region of cut pieces
# only, and a tree-branch one with regions of several runs
ORACLE_INPUTS = {"circle": ((4, 0), (64, 64)), "torus2": ((6, 0), (64, 64)),
                 "ellipse": ((4, 0), (64, 64)), "sphere2": ((6, 0), (40, 40))}
# (level, runs) of spread-out regions: on the flat kinds the point antipodal
# to the representative falls inside one arc, or two candidate cells tie; a
# long circle range at level 21 sums millions of cells in closed form
SPREAD_REGIONS = {
    "circle": ((8, ((0, 48, 0.0, 1.0), (120, 200, 0.0, 1.0))),
               (8, ((0, 49, 0.0, 0.4), (119, 200, 0.7, 1.0))),
               (21, ((5, 600001, 0.0, 1.0), (900000, 1400003, 0.0, 1.0)))),
    "ellipse": ((8, ((0, 48, 0.0, 1.0), (120, 200, 0.0, 1.0))),),
    "torus2": ((4, ((0, 48, 0.0, 1.0), (128, 256, 0.0, 1.0))),
               (4, ((0, 32, 0.0, 1.0), (160, 224, 0.0, 1.0)))),
    "sphere2": ((5, ((0, 40, 0.0, 1.0), (300, 380, 0.0, 0.5))),),
}


def _assert_matches_oracle(tree, level, regions, geometry):
    """The representative and inner radius are the oracle's, and the outer
    radius lies between the least and greatest distance the oracle allows
    the farthest point, plus ``_REACH_TOL`` cell widths (on the sphere the
    side of a square of a cell's area) and rounding: the oracle measures
    from the representative's chart point in arc length, the search from
    its box in cell widths."""
    sphere = tree.manifold.kind == "sphere2"
    width = math.sqrt(4.0 * math.pi / tree.ncells(level)) if sphere else tree._arc_width(level)
    for runs, (rep, inner, outer) in zip(regions, geometry):
        want_rep, want_inner, (low, high) = _region_geometry_oracle(tree, level, runs)
        assert (rep, inner) == (want_rep, want_inner)
        assert low - 1e-14 <= outer <= high + _REACH_TOL * width + 1e-12
        assert outer <= tree.manifold.diameter


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_region_geometry_matches_per_cell_oracle(kind):
    branches, multi_run, pieces_only = set(), 0, 0
    for n, seed in ORACLE_INPUTS[kind]:
        p = weighted_partition(make(kind), random_band_weights(n, 0.5, 2.0, seed))
        tree = build_cell_tree(make(kind), depth=max(p.fine_level, 1))
        branches.add(p.branch)
        runs = [reg.runs for reg in p.regions]
        geometry = [(reg.representative, reg.inner_radius, reg.outer_radius) for reg in p.regions]
        _assert_matches_oracle(tree, p.fine_level, runs, geometry)
        multi_run += sum(len(r) > 1 for r in runs)
        pieces_only += sum(not _split_runs(r)[0] for r in runs)
    assert branches == {"direct", "tree"}
    assert multi_run > 0 and pieces_only > 0
    for level, runs in SPREAD_REGIONS[kind]:
        tree = build_cell_tree(make(kind), depth=level)
        _assert_matches_oracle(tree, level, [runs], _regions_geometry(tree, level, [runs]))


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_region_geometry_of_regions_without_whole_cells(kind):
    """A batch of regions made of cut pieces alone takes its geometry from
    the pieces, as the per-cell oracle does."""
    tree = build_cell_tree(make(kind), depth=4)
    runs = [((3, 4, 0.25, 0.75),), ((9, 10, 0.0, 0.5), (12, 13, 0.5, 1.0))]
    _assert_matches_oracle(tree, 4, runs, _regions_geometry(tree, 4, runs))


def test_partition_json_roundtrip():
    w = random_band_weights(12, 0.5, 2.0, 21)
    p = weighted_partition(make("torus2"), w)
    text = partition_to_json(p)
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1)
    q = partition_from_json(text)
    assert partition_to_json(q) == text
    assert q.n == p.n
    assert verify_partition(q).passed


def test_weight_array_is_a_cached_read_only_copy():
    p = weighted_partition(make("circle"), random_band_weights(12, 0.5, 2.0, 21))
    text = partition_to_json(p)
    w = p.weight_array
    assert w is p.weight_array and w.dtype == np.float64 and not w.flags.writeable
    assert w.tolist() == list(p.weights)
    # the cache is no field: equality and JSON ignore it
    assert p == partition_from_json(text) and partition_to_json(p) == text


@pytest.mark.parametrize("kind", ["circle", "sphere2"])
def test_representatives_are_a_cached_read_only_array(kind):
    p = weighted_partition(make(kind), random_band_weights(12, 0.5, 2.0, 21))
    text = partition_to_json(p)
    reps = p.representatives()
    assert reps is p.representatives() and reps.dtype == np.float64 and not reps.flags.writeable
    assert reps.shape == (p.n, p.manifold.dim)
    assert [tuple(row) for row in reps.tolist()] == [tuple(r.representative) for r in p.regions]
    assert p == partition_from_json(text) and partition_to_json(p) == text


def test_json_rejects_runs_outside_the_level():
    # a version-1 sphere partition of octahedral triangles, 8 of them at
    # level 1, where the chart has 4 squares: the schema check refuses it
    old = (pathlib.Path(__file__).parent / "data" / "sphere_triangle_partition.json").read_text()
    with pytest.raises(ValueError, match="unsupported partition schema version"):
        partition_from_json(old)
    text = partition_to_json(weighted_partition(make("sphere2"), np.array([0.5, 0.3, 0.2])))
    partition_from_json(text)
    first = json.loads(text)["regions"][0]["runs"][0]
    for bad in ([-1, *first[1:]], [first[0], first[0], *first[2:]], [*first[:2], -0.5, first[3]],
                [*first[:3], 1.5]):
        doc = json.loads(text)
        doc["regions"][0]["runs"][0] = bad
        with pytest.raises(ValueError, match="does not lie in"):
            partition_from_json(json.dumps(doc))


@pytest.mark.parametrize("tamper,match", [
    (lambda doc: doc.update(regions=[]), "at least one region"),
    (lambda doc: doc["regions"].pop(), "one to one"),
    (lambda doc: doc["regions"][1].update(weight_index=0), "one to one"),
    # runs are checked against the fine level, so a region may not claim another
    (lambda doc: doc["regions"][-1].update(level=doc["fine_level"] + 3,
                                           runs=[[0, 2 ** (doc["fine_level"] + 2), 0.0, 1.0]]),
     "fine level"),
], ids=["no-regions", "region-count", "weight-index", "region-level"])
def test_json_rejects_regions_that_do_not_fit(tamper, match):
    text = partition_to_json(weighted_partition(make("circle"), np.array([0.5, 0.3, 0.2])))
    partition_from_json(text)
    doc = json.loads(text)
    tamper(doc)
    with pytest.raises(ValueError, match=match):
        partition_from_json(json.dumps(doc))


def test_json_regions_in_another_order_still_verify():
    """Regions pair with their weights by weight index, not by position."""
    doc = json.loads(partition_to_json(weighted_partition(make("circle"), np.array([0.5, 0.3, 0.2]))))
    doc["regions"][:2] = doc["regions"][1::-1]
    rep = verify_partition(partition_from_json(json.dumps(doc)))
    assert rep.passed and rep.max_measure_error < 1e-15


def test_json_rejects_unknown_schema():
    w = random_band_weights(4, 0.5, 2.0, 1)
    p = weighted_partition(make("circle"), w)
    text = partition_to_json(p).replace(f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 99')
    with pytest.raises(ValueError):
        partition_from_json(text)


def test_json_rejects_version_one_torus():
    """Version 1 indexed torus squares in another order, so its runs would
    name the wrong cells."""
    p = weighted_partition(make("torus2"), random_band_weights(12, 0.5, 2.0, 21))
    doc = json.loads(partition_to_json(p))
    doc["schema_version"] = 1
    with pytest.raises(ValueError, match="unsupported partition schema version"):
        partition_from_json(json.dumps(doc))


def _stdlib_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


_JSON_STRINGS = st.one_of(
    st.text(st.characters(max_codepoint=0x7F)),
    st.text(),
    st.text(st.characters(categories=["Cc"])),
)
_JSON_FLOATS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3]),
)
_JSON_LEAVES = st.one_of(_JSON_STRINGS, st.integers(), st.booleans(), st.none(), _JSON_FLOATS,
                         st.sampled_from([[], (), {}]))
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_JSON_STRINGS, inner)),
    max_leaves=40,
)


@given(_JSON_DOCS)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_stdlib(doc):
    """The package's writer gives the bytes of
    ``json.dumps(sort_keys=True, indent=1)`` on nested lists, tuples and
    dicts of any strings, ints, bools, None and floats."""
    assert _json_text(doc) == _stdlib_text(doc)


@pytest.mark.parametrize("doc,stdlib_refuses", [
    ({1: 2.0}, False), ({"a": [{None: 1}]}, False),
    (np.int64(3), True), ([np.int64(3)], True), ({1, 2}, True), ({"a": {1, 2}}, True),
])
def test_json_writer_refuses_what_it_cannot_write(doc, stdlib_refuses):
    """Keys must be strings, where the stdlib would write an int or None
    key as one; numpy integers and sets are refused, as the stdlib refuses
    them."""
    with pytest.raises(TypeError):
        _json_text(doc)
    if stdlib_refuses:
        with pytest.raises(TypeError):
            _stdlib_text(doc)
    else:
        _stdlib_text(doc)


def _stdlib_partition_text(p) -> str:
    """The partition file as the stdlib writes it from one dict per region."""
    doc = {
        "schema_version": SCHEMA_VERSION, "manifold": p.manifold.descriptor(),
        "weights": list(p.weights), "band": list(p.band), "c3": p.c3, "c4": p.c4, "delta": 0.5,
        "branch": p.branch, "coarse_level": p.coarse_level, "fine_level": p.fine_level,
        "stats": p.stats,
        "regions": [
            {"weight_index": r.weight_index, "level": r.level, "runs": [list(run) for run in r.runs],
             "measure": r.measure, "representative": list(r.representative),
             "inner_radius": r.inner_radius, "outer_radius": r.outer_radius,
             "closing_cut": list(r.closing_cut) if r.closing_cut else None}
            for r in p.regions
        ],
    }
    return _stdlib_text(doc)


_WRITER_MANIFOLDS = {"circle": ("circle",), "ellipse3": ("ellipse", 3.0, 1.0), "torus2": ("torus2",),
                     "sphere2": ("sphere2",)}


@pytest.mark.parametrize("kind", sorted(_WRITER_MANIFOLDS))
def test_partition_writer_matches_stdlib_across_branches(kind):
    """The region template gives the stdlib's bytes on both branches, at N
    from 1 to 300, on regions with and without a closing cut and with one
    run or several; every file reads back to its partition."""
    branches, cuts, several = set(), set(), set()
    for n in (1, 2, 3, 17, 300):
        p = weighted_partition(Manifold(*_WRITER_MANIFOLDS[kind]), random_band_weights(n, 0.5, 2.0, 3))
        text = partition_to_json(p)
        assert text == _stdlib_text(json.loads(text)) == _stdlib_partition_text(p)
        assert partition_from_json(text) == p
        branches.add(p.branch)
        cuts |= {r.closing_cut is None for r in p.regions}
        several |= {len(r.runs) > 1 for r in p.regions}
    assert branches == {"direct", "tree"} and cuts == several == {True, False}


@pytest.mark.parametrize("kind", sorted(_WRITER_MANIFOLDS))
def test_partition_writer_spells_special_floats_as_the_stdlib(kind):
    """Radii and representatives of NaN, infinity and -0.0 come out as the
    stdlib writes them."""
    p = weighted_partition(Manifold(*_WRITER_MANIFOLDS[kind]), random_band_weights(17, 0.5, 2.0, 3))
    specials = (math.nan, math.inf, -math.inf, -0.0)
    regions = list(p.regions)
    for i, x in enumerate(specials):
        regions[i] = dataclasses.replace(regions[i], representative=(x,) * p.manifold.dim,
                                         inner_radius=x, outer_radius=specials[i - 1])
    q = dataclasses.replace(p, regions=tuple(regions))
    text = partition_to_json(q)
    assert text == _stdlib_partition_text(q) == _stdlib_text(json.loads(text))
    assert all(f'"inner_radius": {x},' in text for x in ("NaN", "Infinity", "-Infinity", "-0.0"))


@pytest.mark.parametrize("kind", ["circle", "torus2", "sphere2", "ellipse"])
def test_verify_fails_non_finite_weights_and_measures(kind):
    """A weight that is not finite, or a run that makes a measure NaN, fails
    the measure check with a note; such a weight in a file is refused on
    reading."""
    p = weighted_partition(make(kind), np.array([0.5, 0.3, 0.2]))
    for bad in (math.nan, math.inf, -math.inf):
        rep = verify_partition(dataclasses.replace(p, weights=(0.5, bad, 0.2)))
        assert not rep.measures_ok and not rep.passed
        assert rep.notes == (f"measure of region 1 off by {abs(bad):.3e}",)
    regions = list(p.regions)
    s, e, tf, tl = regions[2].runs[0]
    regions[2] = dataclasses.replace(regions[2], runs=((s, e, math.nan, tl), *regions[2].runs[1:]))
    rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
    assert not rep.measures_ok and math.isnan(rep.max_measure_error)
    assert rep.notes[0] == "measure of region 2 off by nan"
    doc = json.loads(partition_to_json(p))
    doc["weights"][1] = math.nan
    with pytest.raises(ValueError, match="finite numbers"):
        partition_from_json(json.dumps(doc))


def _set_run(region, run, item, value):
    return lambda doc: doc["regions"][region]["runs"][run].__setitem__(item, value)


def _set_region(region, key, value):
    return lambda doc: doc["regions"][region].__setitem__(key, value)


@pytest.mark.parametrize("tamper,match", [
    (_set_run(0, 0, 0, 0.7), "does not lie in"),
    (_set_run(1, 0, 1, 13.5), "does not lie in"),
    (_set_run(0, 0, 0, False), "does not lie in"),
    (_set_run(1, 0, 3, "0.8"), "does not lie in"),
    (_set_region(1, "runs", []), "does not lie in"),
    (lambda doc: doc["regions"][1].update(level=doc["fine_level"] + 0.5), "must be integers"),
    (_set_region(1, "weight_index", True), "must be integers"),
    (lambda doc: doc.update(coarse_level=float(doc["coarse_level"])), "must be integers"),
    (lambda doc: doc.update(fine_level=float(doc["fine_level"])), "must be integers"),
    (lambda doc: doc["regions"][1]["closing_cut"].__setitem__(0, 12.0), "closing cut"),
    (lambda doc: doc["regions"][1]["closing_cut"].__setitem__(1, math.inf), "closing cut"),
    (_set_region(0, "closing_cut", []), "closing cut"),
    (_set_region(1, "closing_cut", [1000000000, 0.25]), "closing cut"),
    (_set_region(1, "closing_cut", [12, 0.25]), "closing cut"),
    (_set_region(1, "closing_cut", [11, 0.7999999999999998]), "closing cut"),
    (_set_region(1, "closing_cut", None), "closing cut"),
    (_set_region(2, "closing_cut", [15, 0.5]), "closing cut"),
    (lambda doc: doc["weights"].__setitem__(1, "0.5"), "finite numbers"),
    (lambda doc: doc["weights"].__setitem__(1, "nan"), "finite numbers"),
    (_set_region(1, "measure", "0.3"), "measure"),
    (_set_region(1, "measure", math.nan), "measure"),
    (lambda doc: doc["band"].__setitem__(0, "0.5"), "finite numbers"),
    (lambda doc: doc["band"].append(7.0), "finite numbers"),
    (lambda doc: doc.update(c3=math.nan), "finite numbers"),
    (lambda doc: doc.update(c4="1.0"), "finite numbers"),
    (lambda doc: doc.update(manifold=["torus2"]), "manifold descriptor"),
    (lambda doc: doc.update(manifold={"kind": "klein"}), "manifold descriptor"),
    (lambda doc: doc.update(manifold={"kind": "torus2", "a": 2.0}), "manifold descriptor"),
    (lambda doc: doc.update(manifold={"kind": "ellipse", "a": True, "b": 1.0}), "manifold descriptor"),
    (lambda doc: doc.update(manifold={"kind": "ellipse", "a": "2", "b": 1.0}), "manifold descriptor"),
    (lambda doc: doc.update(manifold={"kind": "ellipse", "a": 2.0, "b": math.nan}), "manifold descriptor"),
    (lambda doc: doc.update(manifold={"kind": "ellipse", "a": 2.0, "b": 1.0, "c": 1.0}), "manifold descriptor"),
    (lambda doc: doc.update(c3=10**400), "finite numbers"),
], ids=["run-cell", "run-stop", "run-cell-bool", "run-parameter", "no-runs", "level", "weight-index",
        "coarse-level", "fine-level", "cut-cell", "cut-parameter", "cut-empty", "cut-far", "cut-moved",
        "cut-cell-off", "cut-missing", "cut-without-cut", "weight", "weight-nan",
        "measure", "measure-nan", "band", "band-length", "c3", "c4", "manifold-list", "manifold-kind",
        "manifold-extra-key", "ellipse-bool", "ellipse-string", "ellipse-nan", "ellipse-extra-key",
        "c3-huge-int"])
def test_json_refuses_malformed_fields(tamper, match):
    """Cells, levels and weight indices must be integers, every other
    number finite and the band two numbers: each field once truncated or
    coerced on reading, or left for verification to trip over, is
    refused, and so is a closing cut that is not where its region's last
    run ends, and a manifold descriptor other than one ``descriptor``
    writes."""
    text = partition_to_json(weighted_partition(make("torus2"), np.array([0.5, 0.3, 0.2])))
    cuts = [r.closing_cut for r in partition_from_json(text).regions]
    assert cuts == [None, (12, 0.7999999999999998), None]
    doc = json.loads(text)
    tamper(doc)
    with pytest.raises(ValueError, match=match):
        partition_from_json(json.dumps(doc))


def test_verify_catches_tampered_runs():
    """Verification re-derives measures from raw runs, so moving a cut fails."""
    w = random_band_weights(10, 0.5, 2.0, 2)
    p = weighted_partition(make("circle"), w)
    bad_regions = list(p.regions)
    start, stop, tf, tl = bad_regions[0].runs[-1]
    bad_regions[0] = dataclasses.replace(
        bad_regions[0], runs=(*bad_regions[0].runs[:-1], (start, stop, tf, tl - 1e-4))
    )
    bad = dataclasses.replace(p, regions=tuple(bad_regions))
    rep = verify_partition(bad)
    assert not rep.passed
    assert (not rep.measures_ok) or rep.max_cover_gap > 1e-9


def test_verify_names_worst_measure():
    """Weights paired with the wrong regions fail with a note naming one."""
    p = weighted_partition(make("circle"), np.array([0.5, 0.3, 0.2]))
    rep = verify_partition(dataclasses.replace(p, weights=(0.3, 0.5, 0.2)))
    assert not rep.measures_ok and not rep.passed
    assert rep.cover_ok and rep.disjoint_ok and rep.inner_ok and rep.outer_ok
    assert len(rep.notes) == 1
    assert re.fullmatch(r"measure of region [01] off by 2\.000e-01", rep.notes[0])


def test_verify_names_first_overlap():
    """A run pulled back one cell into its neighbour names both regions."""
    p = weighted_partition(make("circle"), np.array([0.5, 0.3, 0.2]))
    regions = list(p.regions)
    s, e, tf, tl = regions[1].runs[0]
    regions[1] = dataclasses.replace(regions[1], runs=((s - 1, e, tf, tl), *regions[1].runs[1:]))
    rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
    assert not rep.disjoint_ok
    # the overlapping runs still cover every cell, so no gap is reported
    assert rep.cover_ok and rep.max_cover_gap == 0.0
    assert rep.notes == (
        "measure of region 1 off by 1.250e-01",
        f"regions 0 and 1 overlap at cell position {s - 1 + tf:.6g}",
    )


def test_verify_names_true_gap():
    """A run shortened by one cell leaves a gap of one cell after its neighbour."""
    p = weighted_partition(make("circle"), np.array([0.5, 0.3, 0.2]))
    regions = list(p.regions)
    s, e, tf, tl = regions[1].runs[0]
    regions[1] = dataclasses.replace(regions[1], runs=((s + 1, e, tf, tl), *regions[1].runs[1:]))
    rep = verify_partition(dataclasses.replace(p, regions=tuple(regions)))
    assert rep.disjoint_ok and not rep.cover_ok
    assert rep.max_cover_gap == 1.0
    # the representative's cell is the one left out
    assert rep.notes == (
        "measure of region 1 off by 1.250e-01",
        "tiling gap 1.000e+00",
        "inner ball of region 1 leaks",
    )


@pytest.mark.parametrize("n", [2, 9, 17, 64, 300])
def test_equal_axes_ellipse_partitions_like_circle(n):
    """A 1:1 ellipse is the unit circle: same branch, levels and runs."""
    w = random_band_weights(n, 0.5, 2.0, n)
    pe = weighted_partition(Manifold("ellipse", 1.0, 1.0), w)
    pc = weighted_partition(make("circle"), w)
    assert (pe.branch, pe.coarse_level, pe.fine_level) == (pc.branch, pc.coarse_level, pc.fine_level)
    assert [r.runs for r in pe.regions] == [r.runs for r in pc.regions]
    assert np.allclose(pe.representatives(), pc.representatives(), rtol=0.0, atol=1e-12)
    for re_, rc in zip(pe.regions, pc.regions):
        assert re_.inner_radius == pytest.approx(rc.inner_radius, abs=1e-12)
        assert re_.outer_radius == pytest.approx(rc.outer_radius, abs=1e-12)


def test_weight_vector_passthrough():
    w = WeightVector(np.array([0.25, 0.75]))
    p = weighted_partition(make("circle"), w)
    assert p.weights == pytest.approx((0.25, 0.75))
    assert p.band[0] <= 1.0 <= p.band[1]
