"""Restricted algebraic polynomial spaces on embedded model manifolds.

Ambient polynomials of degree <= L restricted to the manifold are, in
closed form (Etayo, Marzo & Ortega-Cerda, Monatsh. Math. 186, 2018), the
trigonometric polynomials of degree <= L in the angle t on the circle and
the ellipse (a cos t, b sin t), and the harmonics of degree <= L on the
sphere.  On the circle and the sphere that span is the diffusion space of
band L or sqrt(L (L + 1)), so its eigenbasis is returned, tagged as
algebraic.  On the ellipse the angle is not the arc-length coordinate:
the trigonometric family, degree-ordered with the constant first, is
orthonormalized against the reference quadrature by one QR; the constant
stays the first orthonormal function, so the others have zero mean and
form the basis.  Gradients are d/dt over the speed.

The best-approximation residual curve measures how far a given function
is from these spaces degree by degree; a residual floor that refuses to
decay is the practical certificate that the function is not a restricted
polynomial (the generic situation for ellipse eigenfunctions with
distinct axes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Manifold, reference_grid
from .spectra import SpectralSpace, enumerate_basis


def _check_degree(max_deg) -> int:
    if not (max_deg >= 1 and math.isfinite(max_deg) and max_deg == int(max_deg)):
        raise ValueError(f"degree must be an integer of at least 1, got {max_deg!r}")
    return int(max_deg)


def _family(manifold: Manifold, deg: int, charts: np.ndarray, grad: bool) -> np.ndarray:
    """Degree-ordered spanning family at chart rows, constant first.

    Values are (n, nf); tangent gradients of the curves' family are
    (n, 1, nf), the layout that contracts with a coefficient matrix in one
    product.  The sphere's family gives values only.
    """
    if manifold.kind == "sphere2":
        harmonics = enumerate_basis(manifold, math.sqrt(deg * (deg + 1)))
        return np.column_stack([np.ones(len(charts)), harmonics.evaluate(charts)])
    if manifold.dim != 1:
        raise ValueError("restricted polynomial spaces are defined for embedded kinds only")
    t = charts[:, 0]
    k = np.arange(1, deg + 1)
    phase = np.outer(t, k)
    out = np.zeros((len(t), 2 * deg + 1))
    if not grad:
        out[:, 0] = 1.0
        out[:, 1::2], out[:, 2::2] = np.cos(phase), np.sin(phase)
        return out
    dt = k / np.hypot(manifold.a_ax * np.sin(t), manifold.b_ax * np.cos(t))[:, None]
    out[:, 1::2], out[:, 2::2] = -dt * np.sin(phase), dt * np.cos(phase)
    return out[:, None, :]


@dataclass(eq=False)
class RestrictedPolySpace:
    """Orthonormal basis of the ellipse's restricted polynomials with zero mean.

    ``coeff_matrix`` maps the degree-ordered spanning family (constant
    first) to the basis.  Equality and hashing are by identity, as for
    ``SpectralSpace``, so a space can key a cache.
    """

    manifold: Manifold
    band: float
    coeff_matrix: np.ndarray
    condition: float
    kind: str = field(default="algebraic")

    @property
    def dim(self) -> int:
        return self.coeff_matrix.shape[1]

    def evaluate(self, charts: np.ndarray) -> np.ndarray:
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        return _family(self.manifold, int(self.band), charts, False) @ self.coeff_matrix

    def gradients(self, charts: np.ndarray) -> np.ndarray:
        """Tangent gradients in the per-kind convention of :mod:`geometry`."""
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        g = _family(self.manifold, int(self.band), charts, True)
        n, tdim, nf = g.shape
        # one product over all (point, component) rows; a stacked matmul is 2-3x slower
        return (g.reshape(-1, nf) @ self.coeff_matrix).reshape(n, tdim, -1).transpose(0, 2, 1)

    def manifest(self) -> dict:
        return {
            "manifold": self.manifold.descriptor(),
            "space": self.kind,
            "band": self.band,
            "dim": self.dim,
            "condition": self.condition,
        }


def build_restricted_space(manifold: Manifold, max_deg) -> SpectralSpace | RestrictedPolySpace:
    """Orthonormal zero-mean basis of the restricted polynomials of degree <= ``max_deg``.

    On the circle and the sphere this is a fresh diffusion space (never the
    cached one) with ``kind`` "algebraic" and ``band`` the degree; on the
    ellipse the QR of the trigonometric family, without the constant.
    ``max_deg`` must be an integral value of at least 1 (6.0 is accepted);
    anything else raises ``ValueError``.
    """
    deg = _check_degree(max_deg)
    if manifold.kind in ("circle", "sphere2"):
        band = deg if manifold.kind == "circle" else math.sqrt(deg * (deg + 1))
        space = SpectralSpace(manifold, band)
        space.kind, space.band = "algebraic", float(deg)
        return space
    grid = reference_grid(manifold, deg)
    r = np.linalg.qr(np.sqrt(grid.qweights)[:, None] * _family(manifold, deg, grid.charts, False), mode="r")
    # F inv(R) is orthonormal with the constant first, so the other
    # columns are orthogonal to the constant: they have zero mean
    return RestrictedPolySpace(
        manifold=manifold,
        band=float(deg),
        coeff_matrix=np.linalg.inv(r)[:, 1:],
        condition=float(np.linalg.cond(r)),
    )


def restriction_fit_residual(manifold: Manifold, f, max_deg: int, band_hint: float | None = None):
    """Relative L2 distance of ``f`` from each restricted space V_m, m <= max_deg.

    ``f`` is a vectorized scalar field on chart arrays.  Returns the array
    of residuals indexed by degree 1..max_deg; each entry is
    ||f - proj_m f|| / ||f|| with the constants included in the projector,
    so the curve is nonincreasing in the degree.  One QR of the
    degree-ordered family gives every V_m as a column prefix.
    """
    max_deg = _check_degree(max_deg)
    band = float(band_hint) if band_hint is not None else float(max(24, 2 * max_deg))
    grid = reference_grid(manifold, band)
    sqw = np.sqrt(grid.qweights)
    q, _ = np.linalg.qr(sqw[:, None] * _family(manifold, max_deg, grid.charts, False))
    vals = sqw * np.asarray(f(grid.charts), dtype=float).reshape(-1)
    norm2 = float(vals @ vals)
    if norm2 <= 0.0:
        raise ValueError("cannot measure the fit of the zero function")
    proj = q.T @ vals
    out = np.empty(max_deg)
    for m in range(1, max_deg + 1):
        cols = (m + 1) ** 2 if manifold.kind == "sphere2" else 2 * m + 1
        # residual through the pointwise remainder, not norm^2 - proj^2:
        # exact fits would otherwise bottom out at sqrt(cancellation) ~ 1e-8
        rem = vals - q[:, :cols] @ proj[:cols]
        out[m - 1] = math.sqrt(float(rem @ rem) / norm2)
    return out
