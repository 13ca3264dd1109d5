"""Restricted ambient polynomials: spans, gradients, fit residuals."""

import itertools
import math

import numpy as np
import pytest

from cubaflow.algebraic import _family, build_restricted_space, restriction_fit_residual
from cubaflow.geometry import Manifold, charts_to_ambient, reference_grid, sphere_tangent_frame
from cubaflow.spectra import enumerate_basis


def make(kind, a=2.0, b=1.0):
    return Manifold("ellipse", a, b) if kind == "ellipse" else Manifold(kind)


SHAPES = {"circle": ("circle",), "ellipse": ("ellipse", 2.0, 1.0),
          "ellipse3:1": ("ellipse", 3.0, 1.0), "sphere2": ("sphere2",)}
CURVES = ("circle", "ellipse", "ellipse3:1")


def test_dimensions():
    # curves: span{cos kt, sin kt, k <= deg} minus constants; sphere:
    # harmonics of degree 1..deg.  The curve degrees pass those where a
    # 1e-10 rank cutoff on restricted monomials drops dimensions (axes
    # 3:1 from degree 19, 2:1 from 24, the circle from 35).
    cases = [(c, d) for c in CURVES for d in (1, 2, 5, 8, 19, 24, 35, 40)]
    cases += [("sphere2", d) for d in (1, 2, 6, 12, 16)]
    for shape, deg in cases:
        dim = (deg + 1) ** 2 - 1 if shape == "sphere2" else 2 * deg
        assert build_restricted_space(Manifold(*SHAPES[shape]), deg).dim == dim, (shape, deg)


def test_spaces_compare_and_hash_by_identity():
    a = build_restricted_space(make("circle"), 3)
    b = build_restricted_space(make("circle"), 3)
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_torus_rejected():
    with pytest.raises(ValueError):
        build_restricted_space(make("torus2"), 2)


@pytest.mark.parametrize(
    "shape,deg",
    [(c, d) for c in CURVES for d in (4, 8, 19, 24, 40)] + [("sphere2", d) for d in (2, 6, 16, 26)],
)
def test_orthonormal_basis(shape, deg):
    m = Manifold(*SHAPES[shape])
    sp = build_restricted_space(m, deg)
    assert sp.kind == "algebraic"
    grid = reference_grid(m, 4.0 * deg + 8.0)
    vals = sp.evaluate(grid.charts)
    gram = vals.T @ (grid.qweights[:, None] * vals)
    assert np.max(np.abs(gram - np.eye(sp.dim))) < 1e-12
    # constants projected out
    assert np.max(np.abs(grid.qweights @ vals)) < 1e-10


def _restricted_monomials(manifold, deg, charts):
    """Every ambient monomial of total degree <= deg, restricted to chart rows."""
    amb = charts_to_ambient(manifold, charts)
    exps = [e for e in itertools.product(range(deg + 1), repeat=amb.shape[1]) if sum(e) <= deg]
    return np.column_stack([np.prod(amb ** np.asarray(e), axis=1) for e in exps])


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("deg", range(1, 7))
def test_restricted_monomials_lie_in_the_span(shape, deg):
    """Independent oracle for the closed-form families: least squares on a grid."""
    m = Manifold(*SHAPES[shape])
    sp = build_restricted_space(m, deg)
    grid = reference_grid(m, 4.0 * deg + 8.0)
    span = np.column_stack([np.ones(len(grid.charts)), sp.evaluate(grid.charts)])
    mono = _restricted_monomials(m, deg, grid.charts)
    coef = np.linalg.lstsq(span, mono, rcond=None)[0]
    rel = np.linalg.norm(span @ coef - mono, axis=0) / np.linalg.norm(mono, axis=0)
    assert np.max(rel) < 1e-10


@pytest.mark.parametrize("deg", [6.7, math.inf, math.nan, 0, -1])
def test_degree_must_be_integral_and_positive(deg):
    with pytest.raises(ValueError, match="degree must be an integer"):
        build_restricted_space(make("circle"), deg)


def test_integral_float_degree_accepted():
    sp = build_restricted_space(make("circle"), 6.0)
    assert sp.band == 6.0 and sp.dim == 12


def test_circle_restriction_is_trig_span():
    m = make("circle")
    for k in (1, 2, 3):
        res = restriction_fit_residual(m, lambda ch, k=k: np.cos(k * ch[:, 0]), 4)
        # representable exactly once the degree reaches k
        assert res[k - 1] < 1e-12
        if k > 1:
            assert res[k - 2] > 0.5


def test_sphere_restriction_fit_residual():
    m = make("sphere2")

    def f(ch):
        x, y, z = charts_to_ambient(m, ch).T
        return z * z - 1.0 / 3.0 + x * y

    res = restriction_fit_residual(m, f, 4)
    # degree-2 harmonics: exact from degree 2, far off at degree 1
    assert res[0] > 0.5
    assert np.all(res[1:] < 1e-12)


def test_fit_residual_nonincreasing():
    m = make("ellipse")
    f = lambda ch: np.exp(np.cos(ch[:, 0]))
    res = restriction_fit_residual(m, f, 8)
    assert len(res) == 8
    assert np.all(np.diff(res) <= 1e-13)
    assert np.all(res >= 0.0)


def test_exact_fit_hits_float_floor():
    # a function inside V_2 must fit far below the sqrt(eps) level
    m = make("circle")
    f = lambda ch: np.cos(ch[:, 0]) + 0.3 * np.sin(2 * ch[:, 0])
    res = restriction_fit_residual(m, f, 3)
    assert res[1] < 1e-13
    assert res[2] < 1e-13


@pytest.mark.parametrize("kind,deg", [("circle", 5), ("sphere2", 2), ("ellipse", 3)])
def test_gradients_match_finite_differences(kind, deg, rng):
    m = make(kind)
    sp = build_restricted_space(m, deg)
    n = 10
    charts = rng.uniform(0.3, 2.6, (n, m.dim))
    g = sp.gradients(charts)
    h = 1e-6
    from cubaflow.geometry import move_points

    if kind == "sphere2":
        e1, e2 = sphere_tangent_frame(charts)
        for e in (e1, e2):
            analytic = np.einsum("nmt,nt->nm", g, e)
            fd = (sp.evaluate(move_points(m, charts, h * e))
                  - sp.evaluate(move_points(m, charts, -h * e))) / (2 * h)
            assert np.max(np.abs(fd - analytic)) < 5e-6
    else:
        fd = (sp.evaluate(move_points(m, charts, np.full(n, h)))
              - sp.evaluate(move_points(m, charts, np.full(n, -h)))) / (2 * h)
        assert np.max(np.abs(fd - g[:, :, 0])) < 5e-6


def test_sphere_gradients_tangent(rng):
    m = make("sphere2")
    sp = build_restricted_space(m, 2)
    charts = np.column_stack([rng.uniform(0.2, 2.9, 15), rng.uniform(0, 6.2, 15)])
    g = sp.gradients(charts)
    from cubaflow.geometry import charts_to_ambient

    x = charts_to_ambient(m, charts)
    radial = np.einsum("nmt,nt->nm", g, x)
    assert np.max(np.abs(radial)) < 1e-12


def test_manifest_and_conditioning():
    # only the ellipse's space comes from a QR, so only it has a condition number
    sp = build_restricted_space(Manifold(*SHAPES["ellipse3:1"]), 2)
    man = sp.manifest()
    assert man["dim"] == sp.dim and man["space"] == "algebraic"
    assert sp.condition < 1e6


@pytest.mark.parametrize("shape,deg", [("circle", 1), ("circle", 8), ("sphere2", 2), ("sphere2", 6)])
def test_circle_and_sphere_spaces_are_diffusion_spaces(shape, deg, rng):
    """Same span, same basis: the restricted space is the diffusion space, tagged."""
    m = Manifold(*SHAPES[shape])
    band = float(deg) if shape == "circle" else math.sqrt(deg * (deg + 1))
    alg = build_restricted_space(m, deg)
    diff = enumerate_basis(m, band)
    assert alg is not diff
    assert alg.kind == "algebraic" and alg.band == deg
    charts = rng.uniform(0.2, 2.9, (25, m.dim))
    assert np.array_equal(alg.evaluate(charts), diff.evaluate(charts))
    assert np.array_equal(alg.gradients(charts), diff.gradients(charts))
    # the cached diffusion space is not the one that was retagged
    assert enumerate_basis(m, band).kind == "diffusion" and diff.band == band


def test_restricted_diffusion_agree_on_circle(rng):
    """On the unit circle the two pipelines span the same band space."""
    m = make("circle")
    alg = build_restricted_space(m, 3)
    diff = enumerate_basis(m, 3.0)
    grid = reference_grid(m, 14.0)
    va = alg.evaluate(grid.charts)
    vd = diff.evaluate(grid.charts)
    # cross-Gram has full rank: each basis expresses the other exactly
    cross = va.T @ (grid.qweights[:, None] * vd)
    s = np.linalg.svd(cross, compute_uv=False)
    assert alg.dim == diff.dim
    assert s.min() > 1.0 - 1e-9


# (a, b, degree, bound on |error|): the circle harmonics' measured error on
# these points, rounded up; the family of rounded phases k t had 1.0e-14,
# 2.0e-14 and 2.0e-14 (its cos, sin times sqrt(2))
_FAMILY_ORACLE_CASES = [(2.0, 1.0, 12, 2e-15), (3.0, 1.0, 24, 3.5e-15), (10.0, 1.0, 40, 5e-15)]


@pytest.mark.parametrize("a,b,deg,bound", _FAMILY_ORACLE_CASES)
def test_ellipse_family_matches_mpmath(a, b, deg, bound):
    """The ellipse's spanning family is 1, sqrt(2) cos kt, sqrt(2) sin kt at
    the angle t: against 40-digit mpmath at the float angles."""
    mpmath = pytest.importorskip("mpmath")
    t = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False) + 0.01
    got = _family(Manifold("ellipse", a, b), deg, t[:, None])
    with mpmath.workdps(40):
        root2 = mpmath.sqrt(2)
        want = np.array([[1.0] + [float(root2 * f(k * mpmath.mpf(float(x))))
                                  for k in range(1, deg + 1) for f in (mpmath.cos, mpmath.sin)]
                         for x in t])
    assert np.max(np.abs(got - want)) <= bound


def test_equal_axes_ellipse_is_the_circle(rng):
    """With equal axes the family is already orthonormal: the QR is the
    identity up to signs, and the basis is the circle's diffusion basis."""
    sp = build_restricted_space(Manifold("ellipse", 1.0, 1.0), 8)
    assert abs(sp.condition - 1.0) <= 1e-12
    circle = enumerate_basis(Manifold("circle"), 8.0)
    charts = rng.uniform(0.0, 2.0 * math.pi, (200, 1))
    vals, want = sp.evaluate(charts), circle.evaluate(charts)
    sign = np.sign(np.sum(vals * want, axis=0))
    # the measured errors, 7.8e-16 and 5.3e-15, rounded up; the family of
    # rounded phases k t had 5.5e-15 and 3.7e-14
    assert np.max(np.abs(vals * sign - want)) <= 2e-15
    assert np.max(np.abs(sp.gradients(charts) * sign[:, None] - circle.gradients(charts))) <= 1e-14
