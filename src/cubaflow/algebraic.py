"""Restricted algebraic polynomial spaces on embedded model manifolds.

Monomials of total degree <= L in the ambient coordinates are restricted
to the manifold, orthonormalized against the reference quadrature by a
singular value factorization (numerical rank at relative 1e-10), and the
constant direction is projected out.  Gradients are ambient polynomial
gradients projected onto the tangent space, which equals the Riemannian
gradient of the restriction.

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

from .geometry import Manifold, charts_to_ambient, reference_grid

_RANK_RTOL = 1e-10


def _monomial_exponents(nvars: int, max_deg: int) -> np.ndarray:
    """All exponent tuples of total degree <= max_deg, ordered by (degree, lex)."""
    out = []
    if nvars == 2:
        for deg in range(max_deg + 1):
            for i in range(deg, -1, -1):
                out.append((i, deg - i))
    else:
        for deg in range(max_deg + 1):
            for i in range(deg, -1, -1):
                for j in range(deg - i, -1, -1):
                    out.append((i, j, deg - i - j))
    return np.asarray(out, dtype=int)


def _monomial_values(amb: np.ndarray, expo: np.ndarray) -> np.ndarray:
    # amb: (npts, nvars); returns (npts, nmono)
    npts = len(amb)
    powers = [np.vander(amb[:, v], int(expo[:, v].max()) + 1, increasing=True) for v in range(amb.shape[1])]
    vals = np.ones((npts, len(expo)))
    for v in range(amb.shape[1]):
        vals *= powers[v][:, expo[:, v]]
    return vals


@dataclass(eq=False)
class RestrictedPolySpace:
    """Orthonormal basis of restricted polynomials with zero mean.

    ``coeff_matrix`` maps basis coefficients to monomial coefficients; the
    companion ``coeff_matrix_full`` spans the same space with the constant
    direction retained (used by the fit-residual diagnostics).  Equality
    and hashing are by identity, as for ``SpectralSpace``, so a space can
    key a cache.
    """

    manifold: Manifold
    band: float
    exponents: np.ndarray
    coeff_matrix: np.ndarray
    coeff_matrix_full: np.ndarray
    rank_full: int
    dropped: int
    condition: float
    kind: str = field(default="algebraic")

    @property
    def dim(self) -> int:
        return self.coeff_matrix.shape[1]

    def evaluate(self, charts: np.ndarray) -> np.ndarray:
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        amb = charts_to_ambient(self.manifold, charts)
        return _monomial_values(amb, self.exponents) @ self.coeff_matrix

    def gradients(self, charts: np.ndarray) -> np.ndarray:
        """Tangent gradients in the per-kind convention of :mod:`geometry`."""
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        amb = charts_to_ambient(self.manifold, charts)
        nvars = amb.shape[1]
        grads_amb = np.empty((len(charts), self.dim, nvars))
        for v in range(nvars):
            dexp = self.exponents.copy()
            fac = dexp[:, v].astype(float)
            dexp[:, v] = np.maximum(dexp[:, v] - 1, 0)
            grads_amb[:, :, v] = (_monomial_values(amb, dexp) * fac[None, :]) @ self.coeff_matrix
        kind = self.manifold.kind
        if kind == "circle":
            t = charts[:, 0]
            tau = np.column_stack([-np.sin(t), np.cos(t)])
            return np.sum(grads_amb * tau[:, None, :], axis=2)[:, :, None]
        if kind == "ellipse":
            t = charts[:, 0]
            tau = np.column_stack([-self.manifold.a_ax * np.sin(t), self.manifold.b_ax * np.cos(t)])
            tau /= np.linalg.norm(tau, axis=1, keepdims=True)
            return np.sum(grads_amb * tau[:, None, :], axis=2)[:, :, None]
        # sphere: remove the radial component
        x = amb
        radial = np.sum(grads_amb * x[:, None, :], axis=2)
        return grads_amb - radial[:, :, None] * x[:, None, :]

    def gradient_norms(self, charts: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        g = np.tensordot(self.gradients(charts), np.asarray(coeffs, dtype=float), axes=(1, 0))
        return np.linalg.norm(np.atleast_2d(g.reshape(len(g), -1)), axis=1)

    def manifest(self) -> dict:
        return {
            "manifold": self.manifold.descriptor(),
            "space": self.kind,
            "band": self.band,
            "dim": self.dim,
            "rank_full": self.rank_full,
            "dropped": self.dropped,
            "condition": self.condition,
        }


def _orthonormal_factorization(manifold: Manifold, max_deg: int):
    if manifold.kind == "torus2":
        raise ValueError("restricted polynomial spaces are defined for embedded kinds only")
    if max_deg < 1:
        raise ValueError("degree must be at least 1")
    grid = reference_grid(manifold, float(max_deg))
    amb = charts_to_ambient(manifold, grid.charts)
    expo = _monomial_exponents(amb.shape[1], max_deg)
    A = np.sqrt(grid.qweights)[:, None] * _monomial_values(amb, expo)
    U, sig, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(sig > _RANK_RTOL * sig[0]))
    if rank < 2:
        raise ValueError("restricted space degenerates to constants")
    C_full = Vt[:rank].T / sig[:rank]
    kappa = U[:, :rank].T @ np.sqrt(grid.qweights)
    return grid, expo, C_full, kappa, sig, rank


def build_restricted_space(manifold: Manifold, max_deg: int) -> RestrictedPolySpace:
    """Orthonormalize restricted monomials and project out the constants."""
    grid, expo, C_full, kappa, sig, rank = _orthonormal_factorization(manifold, int(max_deg))
    # orthonormal completion of the constant's coefficient vector; dropping
    # its first column leaves an orthonormal basis of the zero-mean part
    Q, _ = np.linalg.qr(np.column_stack([kappa, np.eye(rank)]))
    C0 = C_full @ Q[:, 1:rank]
    return RestrictedPolySpace(
        manifold=manifold,
        band=float(max_deg),
        exponents=expo,
        coeff_matrix=C0,
        coeff_matrix_full=C_full,
        rank_full=rank,
        dropped=len(sig) - rank,
        condition=float(sig[0] / sig[rank - 1]),
    )


def restriction_fit_residual(manifold: Manifold, f, max_deg: int, band_hint: float | None = None):
    """Relative L2 distance of ``f`` from each restricted space V_m, m <= max_deg.

    ``f`` is a vectorized scalar field on chart arrays.  Returns the array
    of residuals indexed by degree 1..max_deg; each entry is
    ||f - proj_m f|| / ||f|| with the constants included in the projector,
    so the curve is nonincreasing in the degree.
    """
    max_deg = int(max_deg)
    band = float(band_hint) if band_hint is not None else float(max(24, 2 * max_deg))
    grid = reference_grid(manifold, band)
    vals = np.asarray(f(grid.charts), dtype=float).reshape(-1)
    norm2 = float(grid.qweights @ vals**2)
    if norm2 <= 0.0:
        raise ValueError("cannot measure the fit of the zero function")
    amb = charts_to_ambient(manifold, grid.charts)
    out = np.empty(max_deg)
    for m in range(1, max_deg + 1):
        _, expo, C_full, _, _, _ = _orthonormal_factorization(manifold, m)
        basis_vals = _monomial_values(amb, expo) @ C_full
        proj = (basis_vals * grid.qweights[:, None]).T @ vals
        # residual through the pointwise remainder, not norm^2 - proj^2:
        # exact fits would otherwise bottom out at sqrt(cancellation) ~ 1e-8
        rem = vals - basis_vals @ proj
        out[m - 1] = math.sqrt(max(float(grid.qweights @ rem**2), 0.0) / norm2)
    return out
