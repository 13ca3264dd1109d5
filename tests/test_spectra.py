"""Diffusion bases: orthonormality, gradients, band bookkeeping."""

import math

import numpy as np
import pytest

from cubaflow.geometry import Manifold, reference_grid, sphere_tangent_frame
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


def _interleave(even, odd):
    out = np.empty((len(even), 2 * even.shape[1]))
    out[:, 0::2], out[:, 1::2] = even, odd
    return out


@pytest.mark.parametrize("kind", ["circle", "ellipse", "torus2"])
def test_trig_columns_match_the_interleaved_products(kind, rng):
    """Columns written in place equal sqrt(2) times interleaved cos/sin, bit for bit.

    Stored rules depend on every bit of the basis values and gradients.
    """
    sp = enumerate_basis(make(kind), 6.0)
    charts = rng.uniform(0.0, 2 * math.pi, (500, sp.manifold.dim))
    if kind == "torus2":
        phase = (charts @ sp._kvecs.T)[:, 0::2]
        values = math.sqrt(2.0) * _interleave(np.cos(phase), np.sin(phase))
        radial = math.sqrt(2.0) * _interleave(-np.sin(phase), np.cos(phase))
        grads = radial[:, :, None] * sp._kvecs[None, :, :]
    else:
        freqs = sp._ks * sp._base_freq
        phase = np.outer(sp._arc_coordinate(charts), freqs[0::2])
        values = math.sqrt(2.0) * _interleave(np.cos(phase), np.sin(phase))
        grads = (math.sqrt(2.0) * freqs[None, :] * _interleave(-np.sin(phase), np.cos(phase)))[:, :, None]
    assert np.array_equal(sp.evaluate(charts), values)
    assert np.array_equal(sp.gradients(charts), grads)


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
