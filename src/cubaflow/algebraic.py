"""Restricted algebraic polynomial spaces on embedded model manifolds.

Ambient polynomials of degree <= L restricted to the manifold are, in
closed form (Etayo, Marzo & Ortega-Cerda, Monatsh. Math. 186, 2018), the
trigonometric polynomials of degree <= L in the angle t on the circle and
the ellipse (a cos t, b sin t), and the harmonics of degree <= L on the
sphere.  On the circle and the sphere that span is the diffusion space of
band L or sqrt(L (L + 1)), so its eigenbasis is returned, tagged as
algebraic.  On the ellipse the angle is not the arc-length coordinate:
the constant and the circle's harmonics sqrt(2) cos kt, sqrt(2) sin kt,
taken at the angle t, are orthonormalized against the reference
quadrature by one QR; the constant stays the first orthonormal function,
so the others have zero mean and form the basis.  With equal axes the
family is already orthonormal, so the QR's condition number measures how
far the ellipse is from the circle.  Gradients are the circle harmonics'
d/dt over the speed.

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

from .geometry import Manifold, arc_chart, reference_grid
from .spectra import SpectralSpace, enumerate_basis


def _check_degree(max_deg) -> int:
    if not (max_deg >= 1 and math.isfinite(max_deg) and max_deg == int(max_deg)):
        raise ValueError(f"degree must be an integer of at least 1, got {max_deg!r}")
    return int(max_deg)


_CIRCLE = Manifold("circle")


def _family(manifold: Manifold, deg: int, charts: np.ndarray) -> np.ndarray:
    """Degree-ordered spanning family at chart rows (n, nf): the constant,
    then the orthonormal harmonics of degree 1..deg, the sphere's own or
    the circle's taken at the angle t on the curves."""
    if manifold.kind == "sphere2":
        harmonics = enumerate_basis(manifold, math.sqrt(deg * (deg + 1)))
    elif manifold.dim == 1:
        harmonics = enumerate_basis(_CIRCLE, deg)
    else:
        raise ValueError("restricted polynomial spaces are defined for embedded kinds only")
    return np.column_stack([np.ones(len(charts)), harmonics.evaluate(charts)])


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
        return _family(self.manifold, int(self.band), charts) @ self.coeff_matrix

    def gradients(self, charts: np.ndarray) -> np.ndarray:
        """Arc-length gradients (n, dim, 1): d/dt of the circle's harmonics
        over the speed of the angle t."""
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        dt = enumerate_basis(_CIRCLE, int(self.band)).gradients(charts)[:, :, 0] @ self.coeff_matrix[1:]
        return (dt / arc_chart(self.manifold).speed(charts[:, :1]))[:, :, None]


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
    r = np.linalg.qr(np.sqrt(grid.qweights)[:, None] * _family(manifold, deg, grid.charts), mode="r")
    # F inv(R) is orthonormal with the constant first, so the other
    # columns are orthogonal to the constant: they have zero mean
    return RestrictedPolySpace(
        manifold=manifold,
        band=float(deg),
        coeff_matrix=np.linalg.inv(r)[:, 1:],
        condition=float(np.linalg.cond(r)),
    )


def restriction_fit_residual(manifold: Manifold, f, max_deg: int):
    """Relative L2 distance of ``f`` from each restricted space V_m, m <= max_deg.

    ``f`` is a vectorized scalar field on chart arrays.  Returns the array
    of residuals indexed by degree 1..max_deg; each entry is
    ||f - proj_m f|| / ||f|| with the constants included in the projector,
    so the curve is nonincreasing in the degree.  One QR of the
    degree-ordered family gives every V_m as a column prefix.
    """
    max_deg = _check_degree(max_deg)
    grid = reference_grid(manifold, max(24, 2 * max_deg))
    sqw = np.sqrt(grid.qweights)
    q, _ = np.linalg.qr(sqw[:, None] * _family(manifold, max_deg, grid.charts))
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
