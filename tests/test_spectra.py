"""Diffusion bases: orthonormality, gradients, band bookkeeping."""

import math

import numpy as np
import pytest

from cubaflow.geometry import TWO_PI, Manifold, arc_chart, reference_grid, sphere_tangent_frame
from cubaflow.spectra import SpectralSpace, enumerate_basis

CASES = [
    ("circle", 8.0, 16),
    ("torus2", 4.0, 48),
    ("sphere2", 3.0, 8),
    ("sphere2", 8.5, 80),
    ("ellipse", 3.0, 8),
]


def make(kind):
    return Manifold("ellipse", 2.0, 1.0) if kind == "ellipse" else Manifold(kind)


@pytest.mark.parametrize("kind,band,dim", CASES)
def test_dimension_and_band(kind, band, dim):
    sp = enumerate_basis(make(kind), band)
    assert sp.dim == dim
    assert sp.kind == "diffusion"
    assert len(sp.labels) == dim
    assert np.all(sp.freqs > 0.0)  # constants excluded
    assert np.all(sp.freqs <= band + 1e-12)


@pytest.mark.parametrize("kind,band,dim", CASES)
def test_orthonormal_and_centered(kind, band, dim):
    m = make(kind)
    sp = enumerate_basis(m, band)
    grid = reference_grid(m, 2.0 * band + 1.0)
    vals = sp.evaluate(grid.charts)
    gram = vals.T @ (grid.qweights[:, None] * vals)
    tol = 1e-9 if kind == "ellipse" else 1e-12
    assert np.max(np.abs(gram - np.eye(dim))) < tol
    means = grid.qweights @ vals
    assert np.max(np.abs(means)) < tol


@pytest.mark.parametrize("deg", [10, 20, 30, 40])
def test_sphere_basis_orthonormal_at_high_degree(deg):
    m = make("sphere2")
    sp = enumerate_basis(m, math.sqrt(deg * (deg + 1)))
    assert sp.dim == (deg + 1) ** 2 - 1
    grid = reference_grid(m, 2.0 * deg + 2.0)
    vals = sp.evaluate(grid.charts)
    gram = vals.T @ (grid.qweights[:, None] * vals)
    assert np.max(np.abs(gram - np.eye(sp.dim))) <= 1e-12


def test_frequencies_sorted_ascending():
    for kind, band, _ in CASES:
        sp = enumerate_basis(make(kind), band)
        assert np.all(np.diff(sp.freqs) >= -1e-12)


def test_circle_labels_and_values():
    sp = enumerate_basis(make("circle"), 2.0)
    assert sp.labels == [(1, "cos"), (1, "sin"), (2, "cos"), (2, "sin")]
    t = np.array([[0.4]])
    expect = [math.sqrt(2) * math.cos(0.4), math.sqrt(2) * math.sin(0.4),
              math.sqrt(2) * math.cos(0.8), math.sqrt(2) * math.sin(0.8)]
    assert np.allclose(sp.evaluate(t)[0], expect, atol=1e-15)


@pytest.mark.parametrize("kind,band,dim", CASES)
def test_gradients_match_finite_differences(kind, band, dim, rng):
    m = make(kind)
    sp = enumerate_basis(m, band)
    n = 12
    charts = rng.uniform(0.3, 2.6, (n, m.dim))
    g = sp.gradients(charts)
    h = 1e-6
    if kind == "sphere2":
        # directional derivatives along the tangent frame
        e1, e2 = sphere_tangent_frame(charts)
        for e in (e1, e2):
            analytic = np.einsum("nmt,nt->nm", g, e)
            from cubaflow.geometry import move_points
            fplus = sp.evaluate(move_points(m, charts, h * e))
            fminus = sp.evaluate(move_points(m, charts, -h * e))
            assert np.max(np.abs((fplus - fminus) / (2 * h) - analytic)) < 5e-6
    elif kind == "torus2":
        for axis in range(2):
            step = np.zeros((n, 2)); step[:, axis] = h
            fd = (sp.evaluate(charts + step) - sp.evaluate(charts - step)) / (2 * h)
            assert np.max(np.abs(fd - g[:, :, axis])) < 5e-6
    else:
        # scalar gradients in the arc-length frame
        from cubaflow.geometry import move_points
        fplus = sp.evaluate(move_points(m, charts, np.full(n, h)))
        fminus = sp.evaluate(move_points(m, charts, np.full(n, -h)))
        fd = (fplus - fminus) / (2 * h)
        assert np.max(np.abs(fd - g[:, :, 0])) < 5e-6


def _rotated(values, scale):
    """i times the value harmonics (-sin, cos), times one scale per column."""
    out = np.empty_like(values)
    out[:, 0::2], out[:, 1::2] = -values[:, 1::2] * scale[0::2], values[:, 0::2] * scale[1::2]
    return out


def _column_scales(sp):
    """(dim, tdim) factors of the gradient columns: the frequency on the
    curves, the components of k on the torus."""
    if sp.manifold.kind == "torus2":
        return np.array([lab[:2] for lab in sp.labels], dtype=float)
    return sp.freqs[:, None]


def _true_harmonics(sp, charts):
    """sqrt(2) cos, sin of the exact phases in 40-digit mpmath, and the gradients.

    The phase is k t on the circle and k . t on the torus; on the ellipse it
    is k times the float arc coordinate times the float base frequency, both
    taken exactly, so the arc chart's own error is not counted.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if sp.manifold.dim == 1:
            chart = arc_chart(sp.manifold)
            base = mpmath.mpf(TWO_PI / chart.total)
            theta = [mpmath.mpf(float(s)) * base for s in chart.forward(np.mod(charts[:, 0], TWO_PI))]
            phases = [[lab[0] * th for lab in sp.labels[0::2]] for th in theta]
        else:
            phases = [[lab[0] * mpmath.mpf(float(t1)) + lab[1] * mpmath.mpf(float(t2))
                       for lab in sp.labels[0::2]] for t1, t2 in charts]
        root2 = mpmath.sqrt(2)
        cs = [[(mpmath.cos(p), mpmath.sin(p)) for p in row] for row in phases]
        values = np.array([[float(root2 * v) for c, s in row for v in (c, s)] for row in cs])
        scale = _column_scales(sp)
        grads = np.array([[[float(root2 * v * mpmath.mpf(f)) for f in scale[j]]
                           for j, v in enumerate(x for c, s in row for x in (-s, c))] for row in cs])
    return values, grads


# (kind, band, points, bound on |error| / column scale): each bound is the
# kernel's measured error, rounded up, and below the error of phases k t
# rounded in float (5.0e-15, 3.2e-13, 4.9e-15, 2.5e-15 and 1.3e-14)
_ORACLE_CASES = [
    ("circle", 8.0, 200, 1.5e-15),
    ("circle", 512.0, 64, 8e-14),
    ("ellipse", 4.0, 200, 4.5e-15),
    ("torus2", 3.0, 200, 1e-15),
    ("torus2", 12.0, 100, 2.5e-15),
]


@pytest.mark.parametrize("kind,band,n,bound", _ORACLE_CASES)
def test_harmonics_match_mpmath(kind, band, n, bound):
    """Values and gradients against 40-digit phases, per unit of column scale.

    Powers of e^{i theta} round no phase k theta, so their error grows like
    k eps, not like k theta eps.
    """
    sp = enumerate_basis(make(kind), band)
    charts = np.random.default_rng(5).uniform(0.0, TWO_PI, (n, sp.manifold.dim))
    values, grads = _true_harmonics(sp, charts)
    scale = np.abs(_column_scales(sp)).max(axis=1)
    assert np.max(np.abs(sp.evaluate(charts) - values)) <= bound
    assert np.max(np.abs(sp.gradients(charts) - grads).max(axis=2) / scale) <= bound


@pytest.mark.parametrize("kind", ["circle", "ellipse", "torus2"])
def test_gradients_are_i_k_times_the_values(kind, rng):
    """Gradient columns are the value harmonics times i and the column's
    frequency (curves) or k component (torus), bit for bit."""
    sp = enumerate_basis(make(kind), 6.0)
    charts = rng.uniform(0.0, 2 * math.pi, (500, sp.manifold.dim))
    values, grads = sp.evaluate(charts), sp.gradients(charts)
    scale = _column_scales(sp)
    assert grads.shape == values.shape + (scale.shape[1],)
    for axis in range(scale.shape[1]):
        assert np.array_equal(grads[:, :, axis], _rotated(values, scale[:, axis]))


@pytest.mark.parametrize("kind", ["circle", "ellipse", "torus2"])
def test_rows_do_not_depend_on_batch_or_chunk(kind, rng):
    """A row's values and gradients are the same bits in any batch, across
    the row chunks the power tables are built in."""
    sp = enumerate_basis(make(kind), 6.0)
    charts = rng.uniform(0.0, 2 * math.pi, (3168, sp.manifold.dim))
    values, grads = sp.evaluate(charts), sp.gradients(charts)
    rows = sp._rows
    assert rows + 8 < len(charts)  # the batch spans chunk edges
    for n in (1, rows - 1, rows, rows + 1):
        for a in (0, 7, len(charts) - n):
            assert np.array_equal(sp.evaluate(charts[a:a + n]), values[a:a + n])
            assert np.array_equal(sp.gradients(charts[a:a + n]), grads[a:a + n])


def test_enumerate_basis_cached_and_fresh_agree():
    m = make("circle")
    cached = enumerate_basis(m, 5.0)
    assert enumerate_basis(m, 5.0) is cached
    fresh = SpectralSpace(m, 5.0)
    t = np.array([[0.9]])
    assert np.allclose(fresh.evaluate(t), cached.evaluate(t), atol=0.0)


def test_manifest_fields():
    sp = enumerate_basis(make("sphere2"), 3.0)
    man = sp.manifest()
    assert man["dim"] == sp.dim
    assert man["band"] == 3.0
    assert len(man["modes"]) == sp.dim
