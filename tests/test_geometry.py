"""Metric layer: charts, distances, the exponential map on chart arrays, reference quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cubaflow.geometry import (
    Manifold,
    arc_chart,
    arclength,
    arclength_inverse,
    ball_measure,
    charts_to_ambient,
    circumference,
    doubling_constants,
    manifold_from_descriptor,
    move_points,
    pairwise_distance,
    reference_grid,
    reference_integrate,
    sphere_chart_from_ambient,
    sphere_tangent_frame,
)

# independently frozen arc length of the (2, 1) ellipse (adaptive oracle)
ELL_21 = 9.688448220547675

ALL_KINDS = ["circle", "torus2", "sphere2", "ellipse"]


def make(kind):
    return Manifold("ellipse", 2.0, 1.0) if kind == "ellipse" else Manifold(kind)


def test_manifold_validation():
    with pytest.raises(ValueError):
        Manifold("klein")
    with pytest.raises(ValueError):
        Manifold("ellipse", -1.0, 1.0)
    m = Manifold("circle", 5.0, 7.0)  # axes ignored off ellipse
    assert (m.a_ax, m.b_ax) == (1.0, 1.0)


@pytest.mark.parametrize("a, b", [(1.0, 1e-300), (1e300, 1.0), (1e-200, 1e200)])
def test_ellipse_axes_that_overflow_the_chart_fail_at_construction(a, b):
    with pytest.raises(ValueError, match="semi-axes"):
        Manifold("ellipse", a, b)
    with pytest.raises(ValueError, match="semi-axes"):
        manifold_from_descriptor({"kind": "ellipse", "a": a, "b": b})


def test_ellipse_axis_ratio_1e8_constructs():
    for a, b in ((1e8, 1.0), (1.0, 1e8)):
        m = manifold_from_descriptor({"kind": "ellipse", "a": a, "b": b})
        assert m == Manifold("ellipse", a, b)
        assert arc_chart(m)._steps == 19


def test_descriptor_roundtrip():
    for kind in ALL_KINDS:
        m = make(kind)
        assert manifold_from_descriptor(m.descriptor()) == m


def test_diameters():
    assert make("circle").diameter == pytest.approx(math.pi)
    assert make("torus2").diameter == pytest.approx(math.sqrt(2.0) * math.pi)
    assert make("sphere2").diameter == pytest.approx(math.pi)
    assert make("ellipse").diameter == pytest.approx(ELL_21 / 2.0)


def test_circumference_values():
    assert circumference(1.0, 1.0) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert circumference(2.0, 1.0) == pytest.approx(ELL_21, abs=1e-10)
    # symmetric in the axes
    assert circumference(1.0, 2.0) == pytest.approx(circumference(2.0, 1.0), abs=1e-10)


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
@settings(max_examples=60)
def test_arclength_roundtrip(t):
    h = arclength(2.0, 1.0, t)
    assert 0.0 <= float(h) <= ELL_21 + 1e-9
    t_back = float(arclength_inverse(2.0, 1.0, h))
    gap = abs(t_back - t) % (2.0 * math.pi)
    assert min(gap, 2.0 * math.pi - gap) <= 1e-9


def test_arclength_monotone():
    t = np.linspace(0.0, 2.0 * math.pi, 400)
    h = arclength(2.0, 1.0, t)
    assert np.all(np.diff(h) > 0.0)


@pytest.mark.parametrize("axes", [(3.0, 1.0), (2.0, 1.0), (1.0, 3.0)], ids=["3-1", "2-1", "1-3"])
def test_arc_chart_batch_independent(axes, rng):
    # a result must not depend on which other angles share the call
    chart = arc_chart(Manifold("ellipse", *axes))
    t = rng.uniform(0.0, 2.0 * math.pi, 4000)
    s = rng.uniform(0.0, chart.total, 4000)
    one_by_one = np.concatenate([chart.forward(x) for x in t[:, None]])
    np.testing.assert_array_equal(one_by_one, chart.forward(t))
    one_by_one = np.concatenate([chart.inverse(x) for x in s[:, None]])
    np.testing.assert_array_equal(one_by_one, chart.inverse(s))
    # a scalar in gives a Python float out, equal to its batched value
    h = arclength(*axes, t[0])
    assert type(h) is float and h == chart.forward(t)[0]
    t_back = arclength_inverse(*axes, s[0])
    assert type(t_back) is float and t_back == chart.inverse(s)[0]


RATIOS = [1.0, 1.5, 2.0, 3.0, 10.0, 100.0]


@pytest.mark.parametrize("axes", [(r, 1.0) for r in RATIOS] + [(1.0, r) for r in RATIOS[1:]],
                         ids=lambda axes: "%g-%g" % axes)
def test_arc_chart_matches_adaptive_quadrature(axes):
    """Closed-form chart against adaptive quadrature of the speed; inverse at rounding."""
    a, b = axes
    chart = arc_chart(Manifold("ellipse", a, b))

    def h(t):
        return integrate.quad(lambda x: math.hypot(a * math.sin(x), b * math.cos(x)),
                              0.0, t, epsabs=0.0, epsrel=2e-14, limit=200)[0]

    assert chart.total == pytest.approx(h(2.0 * math.pi), rel=1e-13)
    t = np.linspace(0.0, 2.0 * math.pi, 32)
    np.testing.assert_allclose(chart.forward(t), [h(x) for x in t], rtol=1e-13, atol=0.0)
    t = np.linspace(0.0, 2.0 * math.pi, 4001)
    s = chart.forward(t)
    assert np.all(np.diff(s) > 0.0)
    t_back = chart.inverse(s)
    assert np.all((t_back >= 0.0) & (t_back <= 2.0 * math.pi))
    assert np.max(np.abs(chart.forward(t_back) - s)) <= 1e-15 * chart.total


@pytest.mark.parametrize("major", ["a", "b"])
@pytest.mark.parametrize("ratio", [1.0, 1.001, 2.0, 3.0, 10.0, 1e2, 1e4, 1e8])
def test_arc_chart_matches_scipy_elliptic_integrals(ratio, major):
    """The numpy-only chart against scipy's E(phi | m) and E(m), in both
    orientations: h(t) = b E(t | m) with m = 1 - (a/b)^2, exact at the ends."""
    from scipy import special

    a, b = (ratio, 1.0) if major == "a" else (1.0, ratio)
    chart = arc_chart(Manifold("ellipse", a, b))
    m = 1.0 - (a / b) ** 2
    t = np.linspace(0.0, 2.0 * math.pi, 4001)
    h = chart.forward(t)
    assert np.max(np.abs(h - b * special.ellipeinc(t, m))) <= 1e-15 * chart.total
    assert abs(chart.total - 4.0 * b * special.ellipe(m)) <= 1e-15 * chart.total
    assert chart.forward(0.0) == 0.0
    assert chart.forward(2.0 * math.pi) == chart.total
    assert np.all(np.diff(h) > 0.0)


@pytest.mark.parametrize("a, b", [(-2.0, 1.0), (2.0, -1.0), (0.0, 1.0), (1.0, 0.0),
                                  (math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_arc_length_rejects_bad_axes(a, b):
    with pytest.raises(ValueError):
        circumference(a, b)
    with pytest.raises(ValueError):
        arclength(a, b, 1.0)
    with pytest.raises(ValueError):
        arclength_inverse(a, b, 1.0)


def test_sphere_ambient_unit_norm(rng):
    charts = np.column_stack([rng.uniform(0, math.pi, 50), rng.uniform(0, 2 * math.pi, 50)])
    amb = charts_to_ambient(make("sphere2"), charts)
    assert np.allclose(np.linalg.norm(amb, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_distance_metric_axioms(kind, rng):
    m = make(kind)
    a = rng.uniform(0.0, 2.0 * math.pi, (40, m.dim))
    b = rng.uniform(0.0, 2.0 * math.pi, (40, m.dim))
    c = rng.uniform(0.0, 2.0 * math.pi, (40, m.dim))
    if kind == "sphere2":
        for arr in (a, b, c):
            arr[:, 0] = np.arccos(np.clip(np.cos(arr[:, 0]), -1, 1))
    dab = pairwise_distance(m, a, b)
    assert np.allclose(dab, pairwise_distance(m, b, a), atol=1e-12)
    assert np.all(pairwise_distance(m, a, a) <= 1e-12)
    assert np.all(dab <= m.diameter + 1e-12)
    tri = pairwise_distance(m, a, c) - (dab + pairwise_distance(m, b, c))
    assert np.max(tri) <= 1e-10


def test_sphere_antipodal_distance():
    m = make("sphere2")
    d = pairwise_distance(m, np.array([[0.0, 0.0]]), np.array([[math.pi, 0.0]]))
    assert d[0] == pytest.approx(math.pi, abs=1e-12)


def _unit_tangents(kind, charts, rng):
    """Random unit tangents at chart rows, in the per-kind convention."""
    n = len(charts)
    if kind == "sphere2":
        e1, e2 = sphere_tangent_frame(charts)
        a = rng.uniform(0.0, 2.0 * math.pi, (n, 1))
        return np.cos(a) * e1 + np.sin(a) * e2
    if kind == "torus2":
        a = rng.uniform(0.0, 2.0 * math.pi, n)
        return np.column_stack([np.cos(a), np.sin(a)])
    return rng.choice([-1.0, 1.0], n)


def _random_charts(m, n, rng):
    charts = rng.uniform(0.0, 2.0 * math.pi, (n, m.dim))
    if m.kind == "sphere2":
        charts[:, 0] = np.arccos(rng.uniform(-1.0, 1.0, n))
    return charts


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_move_points_moves_geodesic_distance(kind, rng):
    m = make(kind)
    charts = _random_charts(m, 40, rng)
    v = _unit_tangents(kind, charts, rng)
    # below the injectivity radius, and below pi per torus axis
    s = rng.uniform(0.01, 2.5 if kind != "torus2" else math.pi, 40)
    moved = move_points(m, charts, s * v if m.dim == 1 else s[:, None] * v)
    np.testing.assert_allclose(pairwise_distance(m, charts, moved), s, rtol=0.0, atol=1e-12)


def test_move_points_zero_identity(rng):
    for kind in ALL_KINDS:
        m = make(kind)
        charts = rng.uniform(0.1, 3.0, (10, m.dim))
        disp = np.zeros(10) if m.dim == 1 else np.zeros((10, 2 if kind == "torus2" else 3))
        out = move_points(m, charts, disp)
        assert np.allclose(out, charts if kind != "ellipse" else charts, atol=1e-9)


def test_move_points_matches_sphere_closed_form(rng):
    m = make("sphere2")
    charts = _random_charts(m, 40, rng)
    v = _unit_tangents("sphere2", charts, rng)
    s = rng.uniform(-4.0, 4.0, (40, 1))
    x = charts_to_ambient(m, charts)
    expect = x * np.cos(s) + v * np.sin(s)
    out = move_points(m, charts, s * v)
    np.testing.assert_allclose(charts_to_ambient(m, out), expect, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(out, sphere_chart_from_ambient(expect), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_move_points_stays_in_canonical_window(kind, rng):
    m = make(kind)
    n = 200
    charts = _random_charts(m, n, rng)
    if kind == "sphere2":
        # half the rows step along a meridian through the north pole: by
        # their colatitude plus 0.3 (crossing it), or onto it exactly
        x = charts_to_ambient(m, charts)
        north = np.array([0.0, 0.0, 1.0])
        meridian = north - x[:, 2:] * x
        meridian /= np.linalg.norm(meridian, axis=1, keepdims=True)
        length = charts[:, :1] + np.where(np.arange(n) % 4 == 0, 0.3, 0.0)[:, None]
        disp = rng.uniform(-20.0, 20.0, (n, 3))
        disp[: n // 2] = (length * meridian)[: n // 2]
        disp[:3] = [[0.0, 0.0, math.pi / 2]] * 3
        charts[:3] = [[math.pi / 2, 0.0], [math.pi / 2, math.pi / 2], [math.pi / 2, math.pi]]
        # a tiny step to negative longitude must wrap to 0, not to 2pi
        charts[3], disp[3] = [math.pi / 2, 0.0], [0.0, -1e-17, 0.0]
    else:
        disp = rng.uniform(-50.0, 50.0, n if m.dim == 1 else (n, m.dim))
        # a tiny step back from chart 0 must wrap to 0, not to 2pi
        charts[0], disp[0] = 0.0, -1e-17
    out = move_points(m, charts, disp)
    assert out.shape == charts.shape
    if kind == "sphere2":
        theta, phi = out[:, 0], out[:, 1]
        assert np.all((theta >= 0.0) & (theta <= math.pi))
        assert np.all((phi >= 0.0) & (phi < 2.0 * math.pi))
        polar = np.minimum(theta, math.pi - theta) < 5e-15
        assert polar[:3].all()
        assert np.all(phi[polar] == 0.0)
        crossed = (np.arange(n) % 4 == 0) & (np.arange(n) < n // 2) & (np.arange(n) >= 3)
        np.testing.assert_allclose(theta[crossed], 0.3, rtol=0.0, atol=1e-12)
        # crossing the pole reflects the colatitude and turns the longitude by pi
        turn = np.mod(phi[crossed] - charts[crossed, 1] - math.pi + 1.0, 2.0 * math.pi) - 1.0
        np.testing.assert_allclose(turn, 0.0, rtol=0.0, atol=1e-12)
        x = charts_to_ambient(m, charts)
        v = disp - np.sum(disp * x, axis=1, keepdims=True) * x
        ang = np.linalg.norm(v, axis=1, keepdims=True)
        expect = x * np.cos(ang) + v / ang * np.sin(ang)
    else:
        assert np.all((out >= 0.0) & (out < 2.0 * math.pi))
        if kind == "ellipse":
            # arc length travelled forward from the start, by quadrature
            speed = lambda t: math.hypot(m.a_ax * math.sin(t), m.b_ax * math.cos(t))
            assert out[0, 0] == 0.0
            travel = [integrate.quad(speed, t0, t1 if t1 >= t0 else t1 + 2.0 * math.pi,
                                     epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                      for t0, t1 in zip(charts[1:, 0], out[1:, 0])]
            np.testing.assert_allclose(travel, np.mod(disp[1:], ELL_21), rtol=0.0, atol=1e-11)
            return
        expect = charts_to_ambient(m, charts + (disp[:, None] if m.dim == 1 else disp))
    np.testing.assert_allclose(charts_to_ambient(m, out), expect, rtol=0.0, atol=1e-12)



def test_move_points_keeps_near_pole_colatitude():
    """A zero step keeps colatitudes near either pole to full precision."""
    m = make("sphere2")
    charts = np.array([[1e-9, 0.7], [3e-8, 2.0], [math.pi - 1e-9, 4.0]])
    out = move_points(m, charts, np.zeros((3, 3)))
    np.testing.assert_allclose(out, charts, rtol=1e-15, atol=0.0)


def test_reference_grid_weights_normalized():
    for kind in ALL_KINDS:
        g = reference_grid(make(kind), 6.0)
        assert math.fsum(g.qweights) == pytest.approx(1.0, abs=1e-13)
        assert g.exactness_band >= 6.0


def test_reference_integrate_exactness():
    # nonconstant trig modes average to zero on circle and torus
    circle = make("circle")
    for k in (1, 3, 7):
        val = reference_integrate(circle, lambda ch, k=k: np.cos(k * ch[:, 0]), 8.0)
        assert abs(val) < 1e-14
    torus = make("torus2")
    val = reference_integrate(torus, lambda ch: np.sin(2 * ch[:, 0]) * np.cos(ch[:, 1]), 5.0)
    assert abs(val) < 1e-14
    # sphere: mean of z over the uniform measure is 0, of z^2 is 1/3
    sphere = make("sphere2")
    assert abs(reference_integrate(sphere, lambda ch: np.cos(ch[:, 0]), 4.0)) < 1e-14
    assert reference_integrate(sphere, lambda ch: np.cos(ch[:, 0]) ** 2, 4.0) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_reference_integrate_rejects_bad_integrand():
    with pytest.raises(ValueError):
        reference_integrate(make("circle"), lambda ch: np.ones(3), 4.0)
    with pytest.raises(ValueError):
        reference_integrate(make("circle"), lambda ch: np.full(len(ch), np.nan), 4.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_reference_integrate_batch_matches_scalar_calls(kind):
    m = make(kind)

    def field(ch, j):
        return np.exp(np.sin((j + 1) * ch[:, 0] + 0.3 * j * ch[:, -1]))

    k = 5
    batch = reference_integrate(
        m, lambda ch: np.column_stack([field(ch, j) for j in range(k)]), 6.0
    )
    assert batch.shape == (k,)
    scalar = [reference_integrate(m, lambda ch, j=j: field(ch, j), 6.0) for j in range(k)]
    assert all(isinstance(v, float) for v in scalar)
    np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0.0)


def test_reference_integrate_rejects_bad_batch():
    circle = make("circle")
    with pytest.raises(ValueError, match="wrong shape"):
        reference_integrate(circle, lambda ch: np.ones((3, 4)), 4.0)
    with pytest.raises(ValueError, match="wrong shape"):
        reference_integrate(circle, lambda ch: np.ones((4, len(ch))), 4.0)
    with pytest.raises(ValueError, match="non-finite"):
        reference_integrate(
            circle, lambda ch: np.column_stack([np.ones(len(ch)), np.full(len(ch), np.inf)]), 4.0
        )


def test_ball_measure_closed_forms():
    circle = make("circle")
    assert ball_measure(circle, 0.5) == pytest.approx(0.5 / math.pi)
    assert ball_measure(circle, math.pi) == pytest.approx(1.0)
    sphere = make("sphere2")
    assert ball_measure(sphere, math.pi / 2) == pytest.approx(0.5, abs=1e-14)
    assert ball_measure(sphere, math.pi) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        ball_measure(circle, -1.0)
    with pytest.raises(ValueError):
        ball_measure(circle, 10.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_doubling_constants_bracket_profile(kind, rng):
    m = make(kind)
    c1, c2 = doubling_constants(m)
    assert 0.0 < c1 <= c2 < math.inf
    closed = {"torus2": (1.0 / (2.0 * math.pi**2), 1.0 / (4.0 * math.pi)),
              "sphere2": (1.0 / math.pi**2, 0.25)}.get(kind, (1.0 / m.diameter,) * 2)
    assert (c1, c2) == pytest.approx(closed, rel=1e-15)
    # both are attained: c1 at the diameter, c2 at small radii
    assert c1 == pytest.approx(ball_measure(m, m.diameter) / m.diameter**m.dim, rel=1e-14)
    assert c2 == pytest.approx(ball_measure(m, 1e-6) / 1e-6**m.dim, rel=1e-12)
    for r in rng.uniform(1e-6, m.diameter, 25):
        mu = ball_measure(m, float(r))
        assert c1 * r**m.dim <= mu * (1 + 1e-12) + 1e-15
        assert mu <= c2 * r**m.dim * (1 + 1e-12)
