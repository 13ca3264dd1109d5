"""Model manifolds: charts, geodesics, normalized measure, quadrature.

Supported manifolds and their global charts:

========  ========================  ===============================  ===
kind      chart                     ambient embedding                dim
========  ========================  ===============================  ===
circle    angle t in [0, 2pi)       (cos t, sin t)                   1
torus2    (t1, t2) in [0, 2pi)^2    (cos t1, sin t1, cos t2, ...)    2
sphere2   (colatitude, longitude)   unit vector in R^3               2
ellipse   angle t in [0, 2pi)       (a cos t, b sin t)               1
========  ========================  ===============================  ===

The flat torus keeps its flat metric only in R^4, so its ambient
coordinates live there; the other ambients are the familiar R^2/R^3
embeddings.  The measure is always the Riemannian volume normalized to
total mass one, and distances are exact geodesic distances.

Points are rows of (n, dim) chart arrays throughout.  ``move_points`` is
the exponential map on such arrays and returns canonical charts: angles
reduced mod 2pi, sphere colatitude in [0, pi] with longitude 0 at the
poles.

Tangent vectors use one convention per kind and it is load-bearing for
every downstream module: a signed scalar in the arc-length frame
(circle, ellipse), a vector in the flat chart frame (torus2), or an
ambient vector orthogonal to the base point (sphere2).  Representing
sphere tangents in ambient coordinates keeps chart singularities at the
poles out of all callers.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

MANIFOLD_KINDS = ("circle", "torus2", "sphere2", "ellipse")

# Colatitudes closer to a pole than this get longitude 0, which moves the
# ambient point by less than this distance.
_POLE_TOL = 5e-15


@dataclass(frozen=True)
class Manifold:
    """Identifier of a model manifold: kind plus ellipse semi-axes.

    ``a_ax``/``b_ax`` are meaningful for ``kind == "ellipse"`` only and are
    normalized to 1.0 otherwise so that equal manifolds compare equal.
    """

    kind: str
    a_ax: float = 1.0
    b_ax: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MANIFOLD_KINDS:
            raise ValueError(f"unknown manifold kind {self.kind!r}; expected one of {MANIFOLD_KINDS}")
        if self.kind == "ellipse":
            if not all(map(math.isfinite, (self.a_ax, self.b_ax))):
                raise ValueError(f"non-finite ellipse semi-axes: {(self.a_ax, self.b_ax)!r}")
            if self.a_ax <= 0.0 or self.b_ax <= 0.0:
                raise ValueError("ellipse semi-axes must be positive")
            object.__setattr__(self, "a_ax", float(self.a_ax))
            object.__setattr__(self, "b_ax", float(self.b_ax))
            # build the cached arc chart now, so that out-of-range axes
            # fail here, not in a later solve
            arc_chart(self)
        else:
            object.__setattr__(self, "a_ax", 1.0)
            object.__setattr__(self, "b_ax", 1.0)

    @property
    def dim(self) -> int:
        return 2 if self.kind in ("torus2", "sphere2") else 1

    @property
    def diameter(self) -> float:
        if self.kind == "torus2":
            return math.sqrt(2.0) * math.pi
        if self.kind == "sphere2":
            return math.pi
        return 0.5 * arc_chart(self).total

    def descriptor(self) -> dict:
        """JSON-ready descriptor; round-trips through :func:`manifold_from_descriptor`."""
        d = {"kind": self.kind}
        if self.kind == "ellipse":
            d["a"] = self.a_ax
            d["b"] = self.b_ax
        return d


def _finite_number(x) -> bool:
    """A finite JSON number: a finite float, or an int (not a bool) in the
    float range, compared exactly so that a huge one cannot overflow."""
    return math.isfinite(x) if type(x) is float else type(x) is int and abs(x) <= sys.float_info.max


def _check_count(name: str, value, low: int) -> None:
    """Refuse, with ``ValueError``, a value that is not an integer of at least ``low``."""
    try:
        if operator.index(value) < low:
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}") from None


def manifold_from_descriptor(d: dict) -> Manifold:
    """The manifold of a :meth:`Manifold.descriptor` dict.  Anything else
    raises ``ValueError``: a kind that is not a known string, a key that
    ``descriptor`` does not write, or ellipse semi-axes that are not finite
    JSON numbers."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind not in MANIFOLD_KINDS:
        raise ValueError(f"a manifold descriptor needs a known kind, got {d!r}")
    axes = [d.get(key) for key in ("a", "b")] if kind == "ellipse" else []
    if len(d) != 1 + len(axes) or not all(map(_finite_number, axes)):
        raise ValueError(f"a manifold descriptor holds the kind, and finite a and b on the ellipse, got {d!r}")
    return Manifold(kind, *axes)


# ---------------------------------------------------------------------------
# ellipse arc length
# ---------------------------------------------------------------------------

# The arc-length coordinate s = h(t) and its inverse drive the ellipse
# basis, distance and flow stepping.  The speed of (a cos t, b sin t) is
# b sqrt(1 - m sin^2 t) with m = 1 - (a/b)^2, so h(t) = b E(t | m) is an
# incomplete elliptic integral of the second kind and the circumference is
# 4 b E(m) (DLMF 19.30(i)).  The chart keeps m <= 0: when b > a it swaps
# the axes, h(t) = a [E(pi/2 | m') - E(pi/2 - t | m')] with
# m' = 1 - (b/a)^2.  E comes from Carlson's symmetric integrals,
# E(phi | m) = s R_F(c^2, 1 - m s^2, 1) - (m/3) s^3 R_D(c^2, 1 - m s^2, 1)
# with s = sin phi, c = cos phi (DLMF 19.25.9), by the duplication
# algorithm (DLMF 19.36(i); Carlson, Numer. Algorithms 10, 1995).  With
# m <= 0 every argument is at least c^2 >= 0 and both terms add.

# duplication steps of every evaluation, fixed so that results stay
# batch-independent: against 25-digit mpmath at 83 axis ratios from 1 to
# 1e8, both orientations, 6 stay within 7e-16 of the circumference and 5
# reach 1.7e-15 near ratio 140
_DUPLICATIONS = 6


def _carlson_e(phi, mu: float):
    """(E(r | -mu), k, sqrt(1 + mu sin^2 phi)) for mu >= 0, elementwise
    over an array phi of at least one dimension.

    The angle is reduced to r in [-pi/2, pi/2] with phi = r + k pi, where
    E(phi) = E(r) + 2k E(pi/2); the caller adds the 2k E(pi/2) term, so
    that E(pi/2) itself comes from this same code.
    The duplication steps leave out the usual division by 4: R_F and R_D
    are homogeneous, so that only moves exact powers of two into the
    weights below.
    """
    k = np.rint(phi / math.pi)
    r = phi - k * math.pi
    s = np.sin(r)
    ms2 = mu * (s * s)
    v = np.empty((3,) + r.shape)
    x, y, z = v
    np.cos(r, out=x)
    x *= x
    np.add(ms2, 1.0, out=y)
    z.fill(1.0)
    rd_sum = 0.0
    for step in range(_DUPLICATIONS):
        qx, qy, qz = np.sqrt(v)
        if step == 0:
            root_y = qy
        v += qx * (qy + qz) + qy * qz
        # z has become z + lambda
        rd_sum = rd_sum + 2.0**step / (qz * z)
    # R_F(x, y, z) and R_D(x, y, z) from the fifth-order series about
    # their means (DLMF 19.36.1, 19.36.2)
    xy_sum = x + y
    mean = (xy_sum + z) * (1.0 / 3.0)
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dxy = dx * dy
    dz = dx + dy
    e2 = dxy - dz * dz
    e3 = dxy * dz  # minus E3: the series' Z is -(dx + dy)
    rf = (1.0 + e2 * (e2 * (1.0 / 24.0) - 0.1 + e3 * (3.0 / 44.0)) - e3 * (1.0 / 14.0)) / np.sqrt(mean)
    mean = (xy_sum + 3.0 * z) * 0.2
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dxy = dx * dy
    dz = (dx + dy) * (-1.0 / 3.0)
    z2 = dz * dz
    e2 = dxy - 6.0 * z2
    e3 = (3.0 * dxy - 8.0 * z2) * dz
    rd = (1.0 + e2 * (e2 * (9.0 / 88.0) - 3.0 / 14.0 - e3 * (9.0 / 52.0)) + e3 * (1.0 / 6.0)
          + ((dxy - z2) * (-9.0 / 22.0) + dxy * dz * (3.0 / 26.0)) * z2) / (3.0 * mean * np.sqrt(mean))
    scale = 2.0**_DUPLICATIONS
    return s * (scale * (rf + ms2 * rd) + ms2 * rd_sum), k, root_y


class _EllipseChart:
    """Arc length h(t) of the ellipse (a cos t, b sin t), numpy only.

    Semi-axes whose ratio or size overflows the chart's arithmetic raise
    ``ValueError``.
    """

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b
        out_of_range = f"ellipse semi-axes a={a!r}, b={b!r} overflow the arc-length chart"
        self._swap = b > a
        self._scale = min(a, b)
        self._last = None
        try:
            # the duplication's largest terms come at pi/2, so an overflow
            # anywhere on the chart shows up here (axis ratios past ~1e103)
            with np.errstate(over="raise"):
                ratio = max(a, b) / min(a, b)
                self._mu = ratio**2 - 1.0
                # Newton steps from the start below: 4 up to axis ratio
                # sqrt(10), 5 up to 10, 7 up to 100; a scan of ratios 1 to
                # 1e4, both orientations, reaches rounding with these counts
                self._steps = 3 + math.ceil(2.0 * math.log10(ratio))
                self._quarter = float(_carlson_e(np.array([0.5 * math.pi]), self._mu)[0][0])
                self.total = self.forward(TWO_PI)
        except (OverflowError, FloatingPointError):
            raise ValueError(out_of_range) from None
        # first harmonic of h, h(t) ~ total (t + c sin 2t) / 2pi, fitted at pi/4
        self._c = TWO_PI * (self.forward(0.25 * math.pi) - 0.125 * self.total) / self.total
        if not math.isfinite(self._c):
            raise ValueError(out_of_range)

    def speed(self, t):
        return np.hypot(self.a * np.sin(t), self.b * np.cos(t))

    def _arc(self, t):
        """h(t) and h'(t) of an array t: with the axes swapped, E runs from
        pi/2 - t."""
        e, k, root_y = _carlson_e(0.5 * math.pi - t if self._swap else t, self._mu)
        e = e + 2.0 * k * self._quarter
        return self._scale * (self._quarter - e if self._swap else e), self._scale * root_y

    def forward(self, t):
        """h(t) for t in [0, 2pi], vectorized; a scalar gives a float.

        The last array's result is kept: a descent step, its basis
        gradients and its move all take the arc length of the same points.
        """
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return float(self._arc(t.reshape(1))[0][0])
        key = (t.shape, t.tobytes())
        last = self._last
        if last is None or last[0] != key:
            last = self._last = (key, self._arc(t)[0])
        return last[1].copy()

    def inverse(self, s):
        """h^{-1}(s) for s in [0, total], vectorized; a scalar gives a float.

        Every element takes the same number of Newton steps, clipped to
        [0, 2pi], so no result depends on which others share the call.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        tau = TWO_PI * s / self.total
        t = tau - self._c * np.sin(2.0 * tau)
        for _ in range(self._steps):
            h, dh = self._arc(t)
            t = np.clip(t - (h - s) / dh, 0.0, TWO_PI)
        return float(t[0]) if scalar else t


class _AngleChart:
    """Arc-length chart of the unit circle: the angle itself, period 2pi."""

    total = TWO_PI

    @staticmethod
    def forward(t):
        return t

    @staticmethod
    def inverse(s):
        return s


_ANGLE_CHART = _AngleChart()


@lru_cache(maxsize=32)
def arc_chart(manifold: Manifold):
    """Arc-length chart of a one-dimensional kind or of one torus axis.

    The result maps angles t in [0, 2pi] to arc length s in [0, total]
    (``forward``) and back (``inverse``), both vectorized: the ellipse's
    elliptic-integral chart, or the identity with ``total = 2pi`` on the
    circle and on each axis of the flat torus.
    """
    if manifold.kind == "ellipse":
        return _EllipseChart(manifold.a_ax, manifold.b_ax)
    if manifold.kind in ("circle", "torus2"):
        return _ANGLE_CHART
    raise ValueError(f"{manifold.kind} has no arc-length chart")


def circumference(a_ax: float, b_ax: float) -> float:
    """Total arc length of the ellipse with semi-axes ``a_ax``, ``b_ax``."""
    return arc_chart(Manifold("ellipse", a_ax, b_ax)).total


# ---------------------------------------------------------------------------
# charts and ambient coordinates
# ---------------------------------------------------------------------------


def _wrap_angle(t):
    """Angles in [0, 2pi): np.mod rounds a tiny negative angle to 2pi itself."""
    t = np.mod(t, TWO_PI)
    return np.where(t == TWO_PI, 0.0, t)


def charts_to_ambient(manifold: Manifold, charts: np.ndarray) -> np.ndarray:
    """Vectorized chart -> ambient map; charts has shape (n, dim)."""
    charts = np.asarray(charts, dtype=float)
    kind = manifold.kind
    if manifold.dim == 1:
        t = charts[:, 0]
        return np.column_stack([manifold.a_ax * np.cos(t), manifold.b_ax * np.sin(t)])
    if kind == "torus2":
        t1, t2 = charts[:, 0], charts[:, 1]
        return np.column_stack([np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)])
    theta, phi = charts[:, 0], charts[:, 1]
    st = np.sin(theta)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def sphere_chart_from_ambient(xyz: np.ndarray) -> np.ndarray:
    """Inverse chart for the sphere; longitude snaps to 0 at the poles."""
    xyz = np.asarray(xyz, dtype=float)
    theta = np.arctan2(np.hypot(xyz[:, 0], xyz[:, 1]), xyz[:, 2])
    phi = _wrap_angle(np.arctan2(xyz[:, 1], xyz[:, 0]))
    polar = np.minimum(theta, math.pi - theta) < _POLE_TOL
    phi = np.where(polar, 0.0, phi)
    return np.column_stack([theta, phi])


# ---------------------------------------------------------------------------
# geodesic distance and the exponential map
# ---------------------------------------------------------------------------


def _circle_dist(u, v, period=TWO_PI):
    d = np.abs(np.asarray(u) - np.asarray(v)) % period
    return np.minimum(d, period - d)


def _arc(u, v):
    """Stable geodesic arc length between unit vectors (vectorized): the
    angle of ``|u x v|`` and ``u . v``, summed in np.cross and np.sum order."""
    u0, u1, u2, v0, v1, v2 = u[..., 0], u[..., 1], u[..., 2], v[..., 0], v[..., 1], v[..., 2]
    c0, c1, c2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    return np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), u0 * v0 + u1 * v1 + u2 * v2)


def pairwise_distance(manifold: Manifold, charts_a: np.ndarray, charts_b: np.ndarray) -> np.ndarray:
    """Geodesic distance between row-aligned chart arrays."""
    charts_a = np.asarray(charts_a, dtype=float)
    charts_b = np.asarray(charts_b, dtype=float)
    kind = manifold.kind
    if manifold.dim == 1:
        chart = arc_chart(manifold)
        s = chart.forward(_wrap_angle(np.concatenate([charts_a[:, 0], charts_b[:, 0]])))
        return _circle_dist(s[: len(charts_a)], s[len(charts_a):], period=chart.total)
    if kind == "torus2":
        d1 = _circle_dist(charts_a[:, 0], charts_b[:, 0])
        d2 = _circle_dist(charts_a[:, 1], charts_b[:, 1])
        return np.hypot(d1, d2)
    return _arc(charts_to_ambient(manifold, charts_a), charts_to_ambient(manifold, charts_b))


def move_points(manifold: Manifold, charts: np.ndarray, disp) -> np.ndarray:
    """Vectorized exponential update: displacement = unit tangent times length.

    ``disp`` is (n,) for one-dimensional kinds, (n, 2) in the torus chart
    frame, (n, 3) ambient for the sphere (projected onto the tangent space
    before rotating, so callers may pass raw ambient increments).
    """
    charts = np.asarray(charts, dtype=float)
    if manifold.dim == 1:
        chart = arc_chart(manifold)
        s = chart.forward(charts[:, 0]) + np.asarray(disp, dtype=float).reshape(-1)
        return _wrap_angle(chart.inverse(np.mod(s, chart.total))).reshape(-1, 1)
    if manifold.kind == "torus2":
        return _wrap_angle(charts + np.asarray(disp, dtype=float))
    x = charts_to_ambient(manifold, charts)
    v = np.asarray(disp, dtype=float)
    v = v - (np.sum(v * x, axis=1, keepdims=True)) * x
    ang = np.linalg.norm(v, axis=1)
    zero = ang[:, None] == 0.0
    # only a zero angle keeps the start point: a NaN one gives a NaN row
    out = np.where(zero, x, x * np.cos(ang)[:, None] + np.divide(v, np.where(zero, 1.0, ang[:, None])) * np.sin(ang)[:, None])
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return sphere_chart_from_ambient(out)


def sphere_tangent_frame(charts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal tangent bases (e1, e2) at sphere chart rows.

    Built from the coordinate axis least aligned with each point, so the
    frame is well conditioned everywhere including the poles.
    """
    x = charts_to_ambient(Manifold("sphere2"), np.asarray(charts, dtype=float))
    axis = np.argmin(np.abs(x), axis=1)
    a = np.zeros_like(x)
    a[np.arange(len(x)), axis] = 1.0
    e1 = np.cross(a, x)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(x, e1)
    return e1, e2


# ---------------------------------------------------------------------------
# reference quadrature
# ---------------------------------------------------------------------------


@dataclass
class QuadratureGrid:
    """Reference quadrature: chart nodes, weights summing to one, exactness.

    ``exactness_band`` is the largest band ``Lq`` such that products of two
    functions of band ``Lq/2`` are integrated exactly (nominal, spectral
    rather than exact, on the ellipse where the speed factor is analytic
    but not band-limited).
    """

    manifold: Manifold
    charts: np.ndarray
    qweights: np.ndarray
    exactness_band: float


@lru_cache(maxsize=128)
def _reference_grid_cached(manifold: Manifold, band_int: int) -> QuadratureGrid:
    kind = manifold.kind
    if kind == "circle":
        m = 4 * band_int + 8
        t = np.arange(m) * (TWO_PI / m)
        return QuadratureGrid(manifold, t.reshape(-1, 1), np.full(m, 1.0 / m), float(m - 1))
    if kind == "torus2":
        m = 4 * band_int + 8
        t = np.arange(m) * (TWO_PI / m)
        t1, t2 = np.meshgrid(t, t, indexing="ij")
        charts = np.column_stack([t1.ravel(), t2.ravel()])
        w = np.full(m * m, 1.0 / (m * m))
        return QuadratureGrid(manifold, charts, w, float(m - 1))
    if kind == "sphere2":
        n_theta = band_int + 2
        n_phi = 2 * band_int + 4
        x, wx = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(x)
        phi = np.arange(n_phi) * (TWO_PI / n_phi)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        charts = np.column_stack([th.ravel(), ph.ravel()])
        w = np.repeat(wx, n_phi) / (n_phi * wx.sum())
        return QuadratureGrid(manifold, charts, w, float(min(2 * n_theta - 1, n_phi - 1)))
    # ellipse: uniform angle grid with speed weights; geometric convergence
    # thanks to analyticity, so a generous fixed margin reaches 1e-14
    m = 4 * band_int + 128
    t = np.arange(m) * (TWO_PI / m)
    w = arc_chart(manifold).speed(t)
    w /= w.sum()
    return QuadratureGrid(manifold, t.reshape(-1, 1), w, float(2 * band_int))


def reference_grid(manifold: Manifold, band_hint: float) -> QuadratureGrid:
    """Quadrature grid sized so band-``band_hint`` products integrate exactly."""
    if not (band_hint > 0 and math.isfinite(band_hint)):
        raise ValueError("band hint must be positive and finite")
    return _reference_grid_cached(manifold, int(math.ceil(band_hint)))


def reference_integrate(
    manifold: Manifold, f: Callable, band_hint: float
) -> float | np.ndarray:
    """Integrate a scalar field, or a batch of k fields, against the measure.

    ``f`` receives the grid's chart array of shape (n, dim) and must return
    n values, giving a float, or an (n, k) array of k fields evaluated
    together, giving a length-k array; the summation order is fixed, so
    results are reproducible bit-for-bit for a given grid.
    """
    grid = reference_grid(manifold, band_hint)
    vals = np.asarray(f(grid.charts), dtype=float)
    batch = vals.ndim == 2
    if not batch:
        vals = vals.reshape(-1)
    if vals.shape[0] != len(grid.charts):
        raise ValueError("integrand returned wrong shape")
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on the grid")
    out = grid.qweights @ vals
    return out if batch else float(out)


# ---------------------------------------------------------------------------
# balls and the doubling profile
# ---------------------------------------------------------------------------


def doubling_constants(manifold: Manifold) -> tuple[float, float]:
    """Ahlfors constants (c1, c2): c1 r^d <= mu(B(x, r)) <= c2 r^d for
    every radius up to the diameter, both attained.

    The profile mu(B(r)) / r^d is 2 / l on a curve of length l; on the
    torus 1 / (4 pi) up to the half-period pi, falling to 1 / (2 pi^2) at
    the diameter; on the sphere 1 / 4 as r -> 0, falling to 1 / pi^2 at pi.
    """
    if manifold.dim == 1:
        c = 2.0 / arc_chart(manifold).total
        return c, c
    if manifold.kind == "torus2":
        return 1.0 / (2.0 * math.pi**2), 1.0 / (4.0 * math.pi)
    return 1.0 / math.pi**2, 0.25
