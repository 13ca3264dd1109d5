"""Halving cell hierarchies and measure-exact weighted partitions.

Each model manifold carries a nested family of cells.  Flat cells are
dyadic arcs in arc length: a level-``k`` cell of the circle or the
ellipse is the arc ``[idx w, (idx + 1) w)``, ``w = total / 2^k``, of the
arc-length chart (:func:`cubaflow.geometry.arc_chart`, the angle itself
on the circle), and a torus cell is the product of two circle arcs.  A
sphere cell is a square of the octahedral equal-area chart
(:mod:`cubaflow.cells`).  Both two-dimensional kinds index their squares
along a Hilbert curve, so consecutive indices share an edge on every
kind.  Measures, prefix sums and cuts are closed forms on every kind;
only sphere distances go through the chart.  A level-``k`` cell has a
center ``z`` and certified geodesic balls ``B(z, u1 * 2^-k)`` inside it
and ``B(z, u2 * 2^-k)`` around it: u1 and u2 are the extremes over
levels 1 .. depth, measured on the sphere's coarse levels and derived
from the chart's stretch below.

``weighted_partition`` splits the manifold into N regions whose measures
match a prescribed weight vector exactly.  Every cell of a level has
measure 1/n, and the spanning tree of a coarse level is the path of its
cells in index order, so the sweep walks one line of n equal fine cells:
a position (cell, t) starts at the first cell, and in each coarse cell
(node) of the path a maximal affordable set of still-unassigned weights
advances it by w n cells each; the unused remainder passes on to the
next node, and the last node, the root, absorbs the rest exactly.  A cut
within ``_SNAP`` of measure of a cell boundary goes onto it.  A region
is one contiguous stretch of fine cells, so its measure is a closed form
in its end positions, never a quadrature or a root-find.  Small N skips
the tree and sweeps a single coarse level as one node.

Cell index arithmetic and the sphere's chart live in
:mod:`cubaflow.cells`; region representatives, radii and the outer-ball
check of verification in :mod:`cubaflow.regions`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .cells import (
    _MEASURED_LEVELS,
    _RADII_BOUNDS,
    _box_reach,
    _grid_points,
    _hilbert_decode,
    _hilbert_encode,
    _level_radii,
    _octa_inverse,
)
from .geometry import (
    TWO_PI,
    Manifold,
    arc_chart,
    charts_to_ambient,
    doubling_constants,
    manifold_from_descriptor,
    move_points,
    sphere_chart_from_ambient,
    sphere_tangent_frame,
)
from .regions import _REGION_BATCH, _outer_ball_misses, _regions_geometry, _run_parts

__all__ = [
    "CellTree",
    "SpanningTree",
    "Region",
    "Partition",
    "PartitionReport",
    "build_cell_tree",
    "spanning_tree",
    "weighted_partition",
    "verify_partition",
    "partition_to_json",
    "partition_from_json",
]

# version 2: torus cell indices name squares along the Hilbert curve
SCHEMA_VERSION = 2

_DELTA = 0.5
# the smallest cell measure a level may have: smaller cells leave too few
# bits above the snap tolerance for exact measures
_MIN_CELL_MEASURE = 1e-9
# cuts closer than this, in measure, to a cell boundary go onto it
_SNAP = 1e-15


# ---------------------------------------------------------------------------
# Cell tree


@dataclass(frozen=True)
class _Levels:
    """Level arithmetic of one manifold's cell family: level 0 is the whole
    manifold, and each level splits every cell into ``branching`` equal ones."""

    branching: int
    max_depth: int  # deepest buildable level
    fine_cap: int  # deepest fine level the tree sweep may pick

    def ncells(self, level: int) -> int:
        return self.branching**level


def _levels(manifold: Manifold) -> _Levels:
    branching = 2 if manifold.dim == 1 else 4
    # deepest level whose cells stay above the cut tolerance
    max_depth = int(math.log(1.0 / _MIN_CELL_MEASURE, branching))
    return _Levels(branching, max_depth, 22 if manifold.dim == 1 else 12)


@dataclass(frozen=True)
class CellTree:
    """Nested halving cells for one manifold, levels up to ``depth``.

    Cells are implicit: arc arithmetic per axis on the flat kinds (see
    the module docstring) and squares of the octahedral equal-area chart
    on the sphere, the squares of both 2-D kinds in Hilbert order
    (:mod:`cubaflow.cells`).  Every cell exposes a sweep coordinate t in
    [0, 1] along its first axis, along which measure-exact cuts are made:
    the piece [t0, t1] of a cell has measure (t1 - t0) times the cell's.
    """

    manifold: Manifold
    depth: int
    u1: float
    u2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "_lv", _levels(self.manifold))
        if self.manifold.kind != "sphere2":
            object.__setattr__(self, "_chart", arc_chart(self.manifold))

    def _check_level(self, level: int) -> None:
        if not (0 <= level <= self.depth):
            raise ValueError(f"level {level} outside [0, {self.depth}]")

    def ncells(self, level: int) -> int:
        self._check_level(level)
        return self._lv.ncells(level)

    def measures(self, level: int) -> np.ndarray:
        self._check_level(level)
        n = self._lv.ncells(level)
        return np.full(n, 1.0 / n)

    # -- flat cells: per-axis arcs of the arc-length chart ----------------

    def _arc_width(self, level: int) -> float:
        return self._chart.total / 2**level

    def _arc_centers(self, level: int, i):
        return self._chart.inverse((i + 0.5) * self._arc_width(level))

    def _axes(self, level: int, idx):
        """Per-axis indices of cells: the index itself on one axis, the
        Hilbert square's axis indices on two."""
        return (idx,) if self.manifold.dim == 1 else _hilbert_decode(idx, level)

    def _index(self, level: int, *axes):
        """Cells of per-axis indices, inverting ``_axes``."""
        return axes[0] if self.manifold.dim == 1 else _hilbert_encode(*axes, level)

    def _positions(self, level: int, rows: np.ndarray) -> list[np.ndarray]:
        """Per-axis positions of chart rows ``(k, d)`` in level-cell widths:
        arc length on the flat kinds, the octahedral chart on the sphere."""
        if self.manifold.kind == "sphere2":
            u, v = _octa_inverse(charts_to_ambient(self.manifold, rows))
            return [(u + 1.0) * 2.0 ** (level - 1), (v + 1.0) * 2.0 ** (level - 1)]
        return [self._chart.forward(x % TWO_PI) / self._arc_width(level) for x in rows.T]

    def _piece_boxes(self, level: int, idx, t0, t1) -> tuple[np.ndarray, np.ndarray]:
        """Corners ``(k, d)``, in level-cell widths, of the boxes of sweep
        pieces [t0, t1] of cells: that span of the first axis, the whole
        cell on the rest."""
        first, *rest = self._axes(level, idx)
        return np.column_stack([first + t0, *rest]), np.column_stack([first + t1, *(a + 1 for a in rest)])

    # -- sphere cells: squares of the octahedral chart -------------------

    def _sphere_pieces(self, level: int, idx, t0, t1):
        """(center charts, inner radii, outer radii) of sweep pieces of
        sphere cells: the center is the image of the chart box's midpoint,
        the radii its ``cells._box_reach`` (the inner one no less than 0, as
        on thin pieces the slack may pass it)."""
        lo, hi = self._piece_boxes(level, idx, t0, t1)
        z = _grid_points(level, 0.5 * (lo + hi))
        inner, outer = _box_reach(level, z, lo, hi)
        return sphere_chart_from_ambient(z), np.maximum(inner, 0.0), outer

    # -- geometry --------------------------------------------------------

    def centers_chart(self, level: int, idx) -> np.ndarray:
        self._check_level(level)
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        if self.manifold.kind == "sphere2":
            pos = np.column_stack(self._axes(level, idx)) + 0.5
            return sphere_chart_from_ambient(_grid_points(level, pos))
        return np.column_stack(
            [self._arc_centers(level, i) for i in self._axes(level, idx)]
        )

    def cell_radii(self, level: int, idx) -> tuple[np.ndarray, np.ndarray]:
        """(inner, outer) certified geodesic ball radii about the center."""
        self._check_level(level)
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        if self.manifold.kind == "sphere2":
            return self._sphere_pieces(level, idx, 0.0, 1.0)[1:]
        # a flat cell is a segment or square of side w
        half = np.full(len(idx), 0.5 * self._arc_width(level))
        return half, half * math.sqrt(self.manifold.dim)

    def piece_geometry(self, level: int, idx, t0, t1):
        """(center charts, inner radii, outer radii) of sweep pieces.

        Arrays of k pieces give ``(k, d)`` centers and ``(k,)`` radii; one
        scalar piece gives a ``(d,)`` center and two floats.
        """
        self._check_level(level)
        scalar = np.ndim(idx) == 0
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        t0 = np.broadcast_to(np.asarray(t0, dtype=float), idx.shape)
        t1 = np.broadcast_to(np.asarray(t1, dtype=float), idx.shape)
        if self.manifold.kind == "sphere2":
            c, inner, outer = self._sphere_pieces(level, idx, t0, t1)
        else:
            inner, outer = (np.array(r, dtype=float) for r in self.cell_radii(level, idx))
            part = t1 - t0 < 1.0 - 1e-12
            # the piece spans [lo, hi] on the sweep axis, whole arcs on the
            # rest; the sweep axis takes one chart call for every piece
            w = self._arc_width(level)
            axes = self._axes(level, idx)
            first = axes[0][part]
            lo = first * w + t0[part] * w
            hi = first * w + t1[part] * w
            arc = (axes[0] + 0.5) * w
            arc[part] = 0.5 * (lo + hi)
            c = np.column_stack([self._chart.inverse(arc)] + [self._arc_centers(level, i) for i in axes[1:]])
            side = hi - lo
            if self.manifold.dim == 1:
                inner[part], outer[part] = 0.5 * side, 0.5 * np.abs(side)
            else:
                # math.hypot: np.hypot differs from it in the last bit on some inputs
                inner[part] = 0.5 * np.minimum(side, w)
                outer[part] = [0.5 * math.hypot(s, w) for s in side.tolist()]
        if scalar:
            return c[0], float(inner[0]), float(outer[0])
        return c, inner, outer

    def locate(self, level: int, charts: np.ndarray):
        """Indices of the level cells containing chart rows ``(k, d)``.

        A single ``(d,)`` row gives a single index.
        """
        self._check_level(level)
        charts = np.asarray(charts, dtype=float)
        rows = np.atleast_2d(charts)
        axes = [np.minimum(x.astype(np.int64), 2**level - 1) for x in self._positions(level, rows)]
        cells = self._index(level, *axes)
        return int(cells[0]) if charts.ndim == 1 else cells

    def sweep_parameter(self, level: int, idx, charts: np.ndarray):
        """Sweep coordinates of chart rows inside the given cells, in [0, 1].

        A single ``(d,)`` row with one cell index gives a single float.
        """
        self._check_level(level)
        charts = np.asarray(charts, dtype=float)
        rows = np.atleast_2d(charts)
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        t = self._positions(level, rows)[0] - self._axes(level, idx)[0]
        return float(t[0]) if charts.ndim == 1 else t


@lru_cache(maxsize=64)
def _tree_cached(manifold: Manifold, depth: int) -> CellTree:
    if manifold.kind != "sphere2":
        # level-k radii are u * 2^-k: half a cell width, times sqrt(dim) outside
        half = 0.5 * arc_chart(manifold).total
        return CellTree(manifold, depth, half, half * math.sqrt(manifold.dim))
    # the extreme certified radii of the sphere's levels 1 .. depth, which
    # past the measured levels are the derived bounds, as they dominate
    if depth > _MEASURED_LEVELS:
        return CellTree(manifold, depth, *_RADII_BOUNDS)
    inner, outer = zip(*(_level_radii(k) for k in range(1, depth + 1)))
    return CellTree(manifold, depth, min(inner), max(outer))


def build_cell_tree(manifold: Manifold, depth: int = 6) -> CellTree:
    """Construct the nested cell family down to ``depth`` levels."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    max_depth = _levels(manifold).max_depth
    if depth > max_depth:
        raise ValueError(f"depth {depth} exceeds the deepest {manifold.kind} level {max_depth}")
    return _tree_cached(manifold, depth)


# ---------------------------------------------------------------------------
# Spanning tree over one level


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree of the adjacency graph of one cell level: the path of
    the cells in index order, rooted at the last cell.

    Consecutive cells share an edge on every kind (neighbouring arcs, or
    neighbouring squares of the Hilbert curve), and material swept along
    the path stays contiguous.
    """

    level: int
    root: int
    order: tuple[int, ...]
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    @property
    def nodes(self) -> int:
        return len(self.order)

    @property
    def edges(self) -> int:
        return len(self.order) - 1


def spanning_tree(tree: CellTree, level: int) -> SpanningTree:
    n = tree.ncells(level)
    return SpanningTree(level=level, root=n - 1, order=tuple(range(n - 1, -1, -1)),
                        parent=tuple(range(1, n)) + (-1,),
                        children=((),) + tuple((c,) for c in range(n - 1)))


# ---------------------------------------------------------------------------
# The position sweep


def _run_measure(n: int, run) -> float:
    """Measure of a run of the cells of a level of ``n`` cells."""
    s, e, tf, tl = run
    return ((e - s - 1) + tl - tf) / n


def _advance(cell: int, t: float, cells: float, n: int) -> tuple[int, float]:
    """The position ``cells`` fine cells past (cell, t), snapped onto a cell
    boundary within ``_SNAP`` of measure."""
    x = t + cells
    whole = math.floor(x)
    cell, t = cell + whole, x - whole
    if t < _SNAP * n:
        return cell, 0.0
    if 1.0 - t < _SNAP * n:
        return cell + 1, 0.0
    return cell, t


def _runs(start, stop, per: int) -> tuple:
    """Runs of the stretch from position ``start`` to ``stop``, split where
    it enters a new node's block of ``per`` cells."""
    (cell, t), (last, t_last) = start, stop
    runs = []
    edge = (cell // per + 1) * per
    while (last, t_last) > (edge, 0.0):
        runs.append((cell, edge, t, 1.0))
        cell, t, edge = edge, 0.0, edge + per
    runs.append((cell, last + 1, t, t_last) if t_last > 0.0 else (cell, last, t, 1.0))
    return tuple(runs)


def _affordable(unused: list, vals, room: float, smallest: float) -> tuple[list, list]:
    """Greedy scan of ``unused`` weight indices in order: those whose
    running sum stays within ``room`` are chosen, the rest stay unused.

    The scan ends once not even the ``smallest`` weight fits.
    """
    chosen, still = [], []
    acc = 0.0
    for pos, j in enumerate(unused):
        if acc + vals[j] <= room:
            chosen.append(j)
            acc += vals[j]
        elif acc + smallest > room:
            still += unused[pos:]
            break
        else:
            still.append(j)
    return chosen, still


def _sweep(tree: CellTree, level: int, nodes: int, vals, bound: float):
    """Runs of every weight's region, swept along the cells of ``level`` in
    index order by ``nodes`` nodes of equal blocks, and the sweep's largest
    balance error and node remainder.

    Each node but the last takes a maximal affordable set of the unused
    weights from its material, the remainder its predecessor passed on
    plus its own block, and passes on at most ``bound`` of it; the last
    node takes every weight left, its last weight all material left.
    """
    n = tree.ncells(level)
    per = n // nodes
    unused = list(range(len(vals)))
    v_min = float(vals.min())
    spans = [None] * len(vals)
    cell, t = 0, 0.0
    balance = top = 0.0
    for node in range(nodes):
        end = (node + 1) * per
        mu = ((end - cell) - t) / n
        root = node == nodes - 1
        if root:
            chosen, unused = unused, []
            if abs(math.fsum(vals[j] for j in chosen) - mu) > 1e-9:
                raise RuntimeError("root material does not balance the weights")
        else:
            chosen, unused = _affordable(unused, vals, mu + 1e-13, v_min)
            if not unused:
                raise RuntimeError("weights exhausted before the root")
        for pos, j in enumerate(chosen):
            start = (cell, t)
            if root and pos == len(chosen) - 1:
                cell, t = end, 0.0
            else:
                cell, t = _advance(cell, t, float(vals[j]) * n, n)
            if (cell, t) > (end, 0.0):
                if ((cell - end) + t) / n > 1e-11:
                    raise RuntimeError("material exhausted before the weight was filled")
                cell, t = end, 0.0
            spans[j] = (start, (cell, t))
        rest = ((end - cell) - t) / n
        if not root:
            if rest > bound + 1e-9:
                raise RuntimeError("node remainder exceeded its bound")
            if cell < node * per:
                raise RuntimeError("remainder escaped its cell")
            top = max(top, rest)
        balance = max(balance, abs(mu - math.fsum(vals[j] for j in chosen) - rest))
    return [_runs(*span, per) for span in spans], balance, top


# ---------------------------------------------------------------------------
# Partition data model


@dataclass(frozen=True)
class Region:
    """One piece of a weighted partition, a contiguous sweep of material.

    ``runs`` lists (first_cell, stop_cell, t_first, t_last) stretches of
    fine-level cells: the first cell enters at sweep coordinate t_first,
    the last leaves at t_last, cells between are whole.  ``closing_cut``
    is the one new cut this region introduced, if any.
    """

    weight_index: int
    level: int
    runs: tuple[tuple[int, int, float, float], ...]
    measure: float
    representative: tuple[float, ...]
    inner_radius: float
    outer_radius: float
    closing_cut: tuple[int, float] | None

    def whole_cells(self) -> list[tuple[int, int]]:
        """(start, stop) ranges of cells covered in full."""
        (_, lo, hi), _ = _run_parts([self.runs])
        return list(zip(lo.tolist(), hi.tolist()))


@dataclass(frozen=True)
class Partition:
    """Disjoint regions with measures equal to the prescribed weights."""

    manifold: Manifold
    weights: tuple[float, ...]
    band: tuple[float, float]
    regions: tuple[Region, ...]
    c3: float
    c4: float
    branch: str
    coarse_level: int
    fine_level: int
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return len(self.regions)

    @cached_property
    def weight_array(self) -> np.ndarray:
        """``weights`` as a read-only float64 array, built on first use."""
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        return w

    @cached_property
    def _representative_array(self) -> np.ndarray:
        reps = np.asarray([r.representative for r in self.regions], dtype=float)
        reps.flags.writeable = False
        return reps

    def representatives(self) -> np.ndarray:
        """Region representatives as a read-only (N, d) float64 array, built on first use."""
        return self._representative_array


def _pick_coarse_level(lv: _Levels, threshold, deepest: bool):
    """Deepest (or shallowest) buildable level meeting a measure bound."""
    best = None
    for level in range(lv.max_depth + 1):
        m = 1.0 / lv.ncells(level)
        if deepest:
            if m < threshold:
                break
            best = level
        elif m <= threshold + 1e-15:
            return level
    return best


def _plan(manifold: Manifold, weights) -> tuple[str, int, int, int, dict]:
    """(branch, coarse level, fine level, node count, stats) of a sweep.

    Large N takes the tree branch over the deepest coarse level whose
    cells all have measure at least 2b/N, when the level-1 cells exceed
    2b/N; small N takes the direct branch, one node over a single level
    whose cells are no larger than the smallest weight.
    """
    N = weights.n
    a_fit, b_fit = weights.fitted_band()
    d = manifold.dim
    lv = _levels(manifold)

    if 1.0 / lv.branching <= 2.0 * b_fit / N:
        k = _pick_coarse_level(lv, a_fit / N, deepest=False)
        if k is None:
            raise ValueError("weights too small for the supported tree depth")
        # its one node passes no remainder on
        return "direct", k, k, 1, {"sweep_balance_error": 0.0,
                                   "nodes": lv.ncells(k), "edges": 0}
    k = _pick_coarse_level(lv, 2.0 * b_fit / N, deepest=True)
    c1, c2 = doubling_constants(manifold)
    tree0 = build_cell_tree(manifold, depth=k)
    C = (c2 / c1) * (tree0.u2 / tree0.u1) ** d * (2.0 / _DELTA**d) * 3.0**d * (b_fit / a_fit)
    fine_threshold = a_fit / (C * N)
    # the conservative threshold can outrun the buildable depth; then
    # cap, provided fine cells stay well below the smallest region
    fine = None
    mx = math.inf
    for lev in range(k + 1, lv.fine_cap + 1):
        mx = 1.0 / lv.ncells(lev)
        if mx <= fine_threshold:
            fine = lev
            break
    if fine is None:
        if mx <= a_fit / (8.0 * N):
            fine = lv.fine_cap
        else:
            raise ValueError("fine level for this N exceeds the supported depth")
    nodes = lv.ncells(k)
    return "tree", k, fine, nodes, {"volume_factor": C, "nodes": nodes, "edges": nodes - 1}


def _radius_constants(manifold: Manifold, band, regions) -> tuple[float, float]:
    """(c3, c4): the smallest inner radius of the regions over
    (a^2 / b)^(1/d) N^(-1/d), and the largest outer one over b^(1/d) N^(-1/d)."""
    a_fit, b_fit = band
    d, n = manifold.dim, len(regions)
    inner_scale = (a_fit**2 / b_fit) ** (1.0 / d) * n ** (-1.0 / d)
    outer_scale = b_fit ** (1.0 / d) * n ** (-1.0 / d)
    return (min(r.inner_radius for r in regions) / inner_scale,
            max(r.outer_radius for r in regions) / outer_scale)


def weighted_partition(manifold: Manifold, weights) -> Partition:
    """Split the manifold into regions with measures exactly the weights,
    by one position sweep along the fine cells (see the module docstring)."""
    from .weights import WeightVector

    if not isinstance(weights, WeightVector):
        weights = WeightVector(np.asarray(weights, dtype=float))
    vals = weights.values
    N = len(vals)
    a_fit, b_fit = weights.fitted_band()
    branch, k, fine, nodes, stats = _plan(manifold, weights)
    tree = build_cell_tree(manifold, depth=max(fine, 1))
    region_runs, balance, max_remainder = _sweep(tree, fine, nodes, vals, b_fit / N)
    if branch == "tree":
        stats.update(sweep_balance_error=balance, max_node_remainder=max_remainder)

    regions = []
    ncells = tree.ncells(fine)
    for j, (runs, (rep, inner_r, outer_r)) in enumerate(
            zip(region_runs, _regions_geometry(tree, fine, region_runs))):
        meas = math.fsum(_run_measure(ncells, r) for r in runs)
        s, e, tf, tl = runs[-1]
        cut = (int(e - 1), float(tl)) if tl < 1.0 - 1e-12 else None
        regions.append(
            Region(
                weight_index=j,
                level=fine,
                runs=runs,
                measure=meas,
                representative=rep,
                inner_radius=inner_r,
                outer_radius=outer_r,
                closing_cut=cut,
            )
        )
    c3, c4 = _radius_constants(manifold, (a_fit, b_fit), regions)
    return Partition(
        manifold=manifold,
        weights=tuple(float(v) for v in vals),
        band=(a_fit, b_fit),
        regions=tuple(regions),
        c3=c3,
        c4=c4,
        branch=branch,
        coarse_level=k,
        fine_level=fine,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class PartitionReport:
    measures_ok: bool
    cover_ok: bool
    disjoint_ok: bool
    inner_ok: bool
    outer_ok: bool
    max_measure_error: float
    max_cover_gap: float
    c3: float
    c4: float
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.measures_ok
            and self.cover_ok
            and self.disjoint_ok
            and self.inner_ok
            and self.outer_ok
        )


def _ball_samples(manifold: Manifold, centers, radii) -> np.ndarray:
    """Deterministic points inside geodesic balls, as chart rows, from one
    ``move_points`` call.

    Ball i of ``(k, d)`` centers gets rows ``i * per .. (i + 1) * per``, at
    0.35, 0.7 and 0.95 of its radius from the centre, the centre last:
    ``per`` is 7 on the curves (the fractions ahead, then behind) and 25 on
    the others (eight directions at angles 0.3 + k pi / 4 of the chart frame
    or of ``sphere_tangent_frame``, the fractions varying fastest).
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)[:, None]
    fracs = np.array([0.35, 0.7, 0.95])
    if manifold.dim == 1:
        steps = np.concatenate([fracs, -fracs, [0.0]]) * radii
    else:
        angles = np.append(np.repeat(TWO_PI * np.arange(8) / 8.0 + 0.3, 3), 0.0)
        rr = np.append(np.tile(fracs, 8), 0.0) * radii
        # one product per axis: a broadcast against a (25, 2) table is slower
        x, y = rr * np.cos(angles), rr * np.sin(angles)
        if manifold.kind == "torus2":
            steps = np.stack([x, y], axis=-1)
        else:
            e1, e2 = (e[:, None, :] for e in sphere_tangent_frame(centers))
            steps = x[..., None] * e1 + y[..., None] * e2
    per = steps.shape[1]
    return move_points(manifold, np.repeat(centers, per, axis=0), steps.reshape(len(centers) * per, -1))


def verify_partition(p: Partition) -> PartitionReport:
    """Re-check measures, tiling, and ball containments from raw data."""
    tree = build_cell_tree(p.manifold, max(p.fine_level, 1))
    level = p.fine_level
    ncells = tree.ncells(level)
    notes: list[str] = []

    max_err, worst = 0.0, 0
    for ridx, r in enumerate(p.regions):
        m = math.fsum(_run_measure(ncells, run) for run in r.runs)
        err = abs(m - p.weights[r.weight_index])
        # a NaN error, from a weight or run that is not finite, is never
        # below the worst so far and stays the worst
        if not err <= max_err:
            max_err, worst = err, ridx
            if err != err:
                break
    measures_ok = max_err <= 1e-11
    if not measures_ok:
        notes.append(f"measure of region {worst} off by {max_err:.3e}")

    intervals = []
    for ridx, r in enumerate(p.regions):
        for s, e, tf, tl in r.runs:
            intervals.append((s + tf, (e - 1) + tl, ridx))
    intervals.sort()
    # a gap is where an interval starts past the furthest end so far
    gap, reach = abs(intervals[0][0]), intervals[0][1]
    overlap_ok = True
    for (s0, e0, r0), (s1, e1, r1) in zip(intervals, intervals[1:]):
        gap, reach = max(gap, s1 - reach), max(reach, e1)
        if s1 < e0 - 1e-9 and overlap_ok:
            overlap_ok = False
            notes.append(f"regions {r0} and {r1} overlap at cell position {s1:.6g}")
    gap = max(gap, abs(reach - ncells))
    cover_ok = gap <= 1e-9 and len(intervals) > 0
    if not cover_ok:
        notes.append(f"tiling gap {gap:.3e}")

    # inner-ball samples, located for _REGION_BATCH regions at a time, up to
    # the first region whose ball leaks
    reps = p.representatives()
    radii = 0.98 * np.array([r.inner_radius for r in p.regions])
    lo, hi, region = (np.asarray(col) for col in zip(*intervals))
    leak = None
    for a in range(0, p.n, _REGION_BATCH):
        charts = _ball_samples(p.manifold, reps[a:a + _REGION_BATCH], radii[a:a + _REGION_BATCH])
        batch = np.arange(a, min(a + _REGION_BATCH, p.n))
        owner = np.repeat(batch, len(charts) // len(batch))
        cells = tree.locate(level, charts)
        q = cells + np.clip(tree.sweep_parameter(level, cells, charts), 0.0, 1.0)
        pos = np.searchsorted(lo, q + 1e-12, side="right") - 1
        at = np.maximum(pos, 0)
        inside = (pos >= 0) & (lo[at] - 1e-9 <= q) & (q <= hi[at] + 1e-9) & (region[at] == owner)
        if not inside.all():
            leak = owner[np.argmin(inside)]
            break
    inner_ok = leak is None
    if not inner_ok:
        notes.append(f"inner ball of region {leak} leaks")

    misses = np.where(_outer_ball_misses(tree, level, p.regions))[0]
    outer_ok = len(misses) == 0
    if not outer_ok:
        notes.append(f"outer ball of region {misses[0]} too small")

    c3, c4 = _radius_constants(p.manifold, p.band, p.regions)
    return PartitionReport(
        measures_ok=measures_ok,
        cover_ok=cover_ok,
        disjoint_ok=overlap_ok,
        inner_ok=inner_ok,
        outer_ok=outer_ok,
        max_measure_error=max_err,
        max_cover_gap=gap,
        c3=c3,
        c4=c4,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Serialization


def _json_float(x: float) -> str:
    """A float as ``json.dumps`` spells it: ``repr``, or ``NaN``,
    ``Infinity`` and ``-Infinity``."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


class _Verbatim:
    """A dict value whose JSON text is given, as ``pieces`` that join with
    no separator; the dict places the pieces straight into its own join,
    so the text is copied once."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[str]):
        self.pieces = pieces


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, the format of every
    file the package writes, with one ``str.join`` per list and dict in
    place of the stdlib's pure-Python indenting encoder and its list of
    small chunks.  ``pad`` is the line break and indent of ``obj``'s own
    level; its items go one space deeper.  A dict's values join as they
    are, so a ``_Verbatim`` value is written without a copy of its own.
    Keys must be strings; a value json cannot encode raises ``TypeError``.
    """
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(x, inner) for x in obj]
        # the brackets join with the items, so the text is built once
        items[0] = "[" + inner + items[0]
        items[-1] += pad + "]"
        return ("," + inner).join(items)
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        if not obj:
            return "{}"
        # each key's part starts with its separator, the first one's comma
        # giving way to the brace
        parts = []
        for key in sorted(obj):
            value = obj[key]
            parts.append("," + inner + encode_basestring_ascii(key) + ": ")
            if type(value) is _Verbatim:
                parts += value.pieces
            else:
                parts.append(_json_text(value, inner))
        parts[0] = "{" + parts[0][1:]
        parts.append(pad + "}")
        return "".join(parts)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# One region of a partition file, at the depth of the ``regions`` list's
# items, keys sorted, after its separator; a run is one item of ``runs``.
_REGION_TEXT = (
    ',\n  {\n   "closing_cut": %s,\n   "inner_radius": %s,\n   "level": %s,\n   "measure": %s,'
    '\n   "outer_radius": %s,\n   "representative": [\n    %s\n   ],\n   "runs": [\n    %s\n   ],'
    '\n   "weight_index": %s\n  }'
)
_RUN_TEXT = "[\n     %s,\n     %s,\n     %s,\n     %s\n    ]"
_CUT_TEXT = "[\n    %s,\n    %s\n   ]"


def _region_text(r: Region) -> str:
    """``_REGION_TEXT`` filled from the fields of ``r``."""
    cut = "null" if r.closing_cut is None else _CUT_TEXT % (r.closing_cut[0], _json_float(r.closing_cut[1]))
    runs = ",\n    ".join([_RUN_TEXT % (s, e, _json_float(tf), _json_float(tl)) for s, e, tf, tl in r.runs])
    return _REGION_TEXT % (
        cut, _json_float(r.inner_radius), r.level, _json_float(r.measure), _json_float(r.outer_radius),
        ",\n    ".join(map(_json_float, r.representative)), runs, r.weight_index,
    )


def partition_to_json(p: Partition) -> str:
    """The partition file: the bytes of ``json.dumps(doc, sort_keys=True,
    indent=1)`` of its document.  The header goes through ``_json_text``;
    each region is rendered from its fields by one template
    (``_region_text``), and the region texts join into the document's one
    final join as a ``_Verbatim`` value.  Region fields must hold their
    annotated types (ints for cells, levels and indices, floats for the
    rest), and each region at least one run and a representative
    coordinate.
    """
    regions = [_region_text(r) for r in p.regions]
    # the first region's separator comma gives way to the list's bracket
    regions[0] = "[" + regions[0][1:]
    regions.append("\n ]")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "manifold": p.manifold.descriptor(),
        "weights": list(p.weights),
        "band": list(p.band),
        "c3": p.c3,
        "c4": p.c4,
        "delta": _DELTA,
        "branch": p.branch,
        "coarse_level": p.coarse_level,
        "fine_level": p.fine_level,
        "stats": {k: v for k, v in sorted(p.stats.items())},
        "regions": _Verbatim(regions),
    }
    return _json_text(doc)


def _finite_number(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _integer(x) -> bool:
    """An integer JSON number: neither a bool nor a float of integral value."""
    return type(x) is int


def partition_from_json(text: str) -> Partition:
    """Read a partition file.  Cells, levels and weight indices must be
    integers, every other number finite and the band two numbers, and a
    region's closing cut (cell, t) must be where its last run (s, e, tf,
    tl) ends, (e - 1, tl), when tl < 1 - 1e-12, and null otherwise; a field
    that breaks this or lies out of range raises ``ValueError``."""
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported partition schema version")
    if doc.get("delta") != _DELTA:
        raise ValueError(f"only the halving ratio delta = {_DELTA} is implemented")
    manifold = manifold_from_descriptor(doc["manifold"])
    fine = doc["fine_level"]
    if not (_integer(fine) and _integer(doc["coarse_level"])):
        raise ValueError("the coarse and fine levels must be integers")
    n = _levels(manifold).ncells(fine)
    band = doc["band"]
    if not (isinstance(band, list) and len(band) == 2
            and all(map(_finite_number, (*doc["weights"], *band, doc["c3"], doc["c4"])))):
        raise ValueError("the weights, c3, c4 and the band's two ends must be finite numbers")
    if not doc["regions"]:
        raise ValueError("a partition needs at least one region")
    if not all(_integer(r["weight_index"]) and _integer(r["level"]) for r in doc["regions"]):
        raise ValueError("a region's weight index and level must be integers")
    if sorted(r["weight_index"] for r in doc["regions"]) != list(range(len(doc["weights"]))):
        raise ValueError("regions do not match the weights one to one")
    for r in doc["regions"]:
        if r["level"] != fine:
            raise ValueError(f"a region of level {r['level']} in a partition of fine level {fine}")
        if not (r["runs"] and all(_integer(s) and _integer(e) and 0 <= s < e <= n
                                  and _finite_number(a) and 0.0 <= a <= 1.0
                                  and _finite_number(b) and 0.0 <= b <= 1.0 for s, e, a, b in r["runs"])):
            raise ValueError(f"a run does not lie in the {n} cells of level {fine}")
        if not _finite_number(r["measure"]):
            raise ValueError("a region measure is not a finite number")
        cut = r["closing_cut"]
        if not (cut is None or isinstance(cut, list) and len(cut) == 2
                and _integer(cut[0]) and _finite_number(cut[1])):
            raise ValueError("a closing cut is neither null nor an integer cell and a finite number")
        # the sweep cuts where a region's last run ends inside a cell
        _, e, _, t_last = r["runs"][-1]
        if cut != ([e - 1, t_last] if t_last < 1.0 - 1e-12 else None):
            raise ValueError(f"a closing cut {cut} is not the end of its region's last run")
        rep = r["representative"]
        if not (isinstance(rep, list) and len(rep) == manifold.dim and all(map(_finite_number, rep))):
            raise ValueError(f"a representative is not {manifold.dim} finite numbers")
        if not all(_finite_number(x) and x >= 0.0 for x in (r["inner_radius"], r["outer_radius"])):
            raise ValueError("a region radius is negative or not finite")
    regions = tuple(
        Region(
            weight_index=r["weight_index"],
            level=r["level"],
            runs=tuple((s, e, float(a), float(b)) for s, e, a, b in r["runs"]),
            measure=float(r["measure"]),
            representative=tuple(map(float, r["representative"])),
            inner_radius=float(r["inner_radius"]),
            outer_radius=float(r["outer_radius"]),
            closing_cut=None if r["closing_cut"] is None else (r["closing_cut"][0], float(r["closing_cut"][1])),
        )
        for r in doc["regions"]
    )
    return Partition(
        manifold=manifold,
        weights=tuple(map(float, doc["weights"])),
        band=tuple(map(float, band)),
        regions=regions,
        c3=float(doc["c3"]),
        c4=float(doc["c4"]),
        branch=str(doc["branch"]),
        coarse_level=doc["coarse_level"],
        fine_level=fine,
        stats=dict(doc["stats"]),
    )
