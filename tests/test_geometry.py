"""Metric layer: charts, distances, exponential steps, reference quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubaflow.geometry import (
    Manifold,
    arclength,
    arclength_inverse,
    ball_measure,
    canonical_point,
    charts_to_ambient,
    circumference,
    distance,
    doubling_constants,
    exp_step,
    manifold_from_descriptor,
    move_points,
    pairwise_distance,
    point_consistency_error,
    reference_grid,
    reference_integrate,
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


def test_canonical_point_wraps():
    p = canonical_point(make("circle"), (2.0 * math.pi + 0.25,))
    assert p.chart[0] == pytest.approx(0.25)
    q = canonical_point(make("sphere2"), (-0.3, 1.0))
    assert 0.0 <= q.chart[0] <= math.pi
    assert point_consistency_error(q) < 1e-15
    with pytest.raises(ValueError):
        canonical_point(make("torus2"), (1.0,))


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
    p = canonical_point(m, (0.0, 0.0))
    q = canonical_point(m, (math.pi, 0.0))
    assert distance(p, q) == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exp_step_moves_geodesic_distance(kind):
    m = make(kind)
    p = canonical_point(m, (0.7,) * m.dim)
    if kind == "sphere2":
        e1, _ = sphere_tangent_frame(np.asarray([p.chart]))
        v = e1[0]
    elif kind == "torus2":
        v = np.array([1.0, 0.0])
    else:
        v = 1.0
    s = 0.31
    q = exp_step(p, v, s)
    assert distance(p, q) == pytest.approx(s, abs=1e-9)


def test_exp_step_rejects_non_unit_tangent():
    m = make("circle")
    p = canonical_point(m, (0.0,))
    with pytest.raises(ValueError):
        exp_step(p, 2.0, 0.1)
    sp = make("sphere2")
    ps = canonical_point(sp, (1.0, 1.0))
    with pytest.raises(ValueError):
        exp_step(ps, np.array([2.0, 0.0, 0.0]), 0.1)


def test_move_points_zero_identity(rng):
    for kind in ALL_KINDS:
        m = make(kind)
        charts = rng.uniform(0.1, 3.0, (10, m.dim))
        disp = np.zeros(10) if m.dim == 1 else np.zeros((10, 2 if kind == "torus2" else 3))
        out = move_points(m, charts, disp)
        assert np.allclose(out, charts if kind != "ellipse" else charts, atol=1e-9)


def test_move_points_matches_exp_step():
    m = make("sphere2")
    p = canonical_point(m, (1.1, 0.6))
    e1, _ = sphere_tangent_frame(np.asarray([p.chart]))
    q = exp_step(p, e1[0], 0.4)
    out = move_points(m, np.asarray([p.chart]), 0.4 * e1)
    assert np.allclose(out[0], q.chart, atol=1e-12)


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
    center = canonical_point(circle, (0.0,))
    assert ball_measure(circle, center, 0.5) == pytest.approx(0.5 / math.pi)
    assert ball_measure(circle, center, math.pi) == pytest.approx(1.0)
    sphere = make("sphere2")
    sc = canonical_point(sphere, (0.5, 0.5))
    assert ball_measure(sphere, sc, math.pi / 2) == pytest.approx(0.5, abs=1e-14)
    assert ball_measure(sphere, sc, math.pi) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        ball_measure(circle, center, -1.0)
    with pytest.raises(ValueError):
        ball_measure(circle, center, 10.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_doubling_constants_bracket_profile(kind, rng):
    m = make(kind)
    c1, c2 = doubling_constants(m)
    assert 0.0 < c1 <= c2 < math.inf
    center = canonical_point(m, (0.4,) * m.dim)
    for r in rng.uniform(1e-6, m.diameter, 25):
        mu = ball_measure(m, center, float(r))
        assert c1 * r**m.dim <= mu * (1 + 1e-12) + 1e-15
        assert mu <= c2 * r**m.dim * (1 + 1e-12)
