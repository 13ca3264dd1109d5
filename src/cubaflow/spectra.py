"""Laplace eigenbases and band-limited ("diffusion") polynomials.

For band L the space carries the nonconstant Laplace eigenfunctions with
frequency lambda = sqrt(eigenvalue) at most L, orthonormalized against
the normalized measure:

* circle: pairs sqrt(2) cos(k t), sqrt(2) sin(k t) with lambda = k;
* torus2: pairs sqrt(2) cos(k . t), sqrt(2) sin(k . t) over integer
  vectors k != 0 identified up to sign, lambda = |k|_2;
* sphere2: real spherical harmonics of degree l >= 1,
  lambda = sqrt(l (l + 1));
* ellipse: trigonometric functions of the arc-length coordinate,
  sqrt(2) cos/sin(2 pi k h(t) / ell) with lambda = 2 pi k / ell, which
  reduces to the circle family when the axes coincide.

Basis order is frequency-ascending with lexicographic labels inside an
eigenspace, so bases of nested bands are prefixes of one another.

Gradients follow the tangent conventions of :mod:`cubaflow.geometry`:
signed arc-length derivative (circle/ellipse), chart-frame vector
(torus2), tangential ambient vector (sphere2).  Sphere values and
gradients come from explicit polynomials in the ambient coordinates, so
there are no pole singularities anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from .geometry import Manifold, TWO_PI, arc_chart

_EPS = 1e-9  # slack for "frequency <= band" comparisons on float bands


def _alternate(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Interleave two (n, p) column blocks into the (n, 2p) cos/sin column order."""
    out = np.empty((len(even), 2 * even.shape[1]))
    out[:, 0::2] = even
    out[:, 1::2] = odd
    return out


class SpectralSpace:
    """Orthonormal eigenbasis of a model manifold up to a frequency band.

    The heavy entry points are vectorized: ``evaluate`` maps an (n, dim)
    chart array to the (n, len) value matrix, ``gradients`` to the
    (n, len, tdim) tangent array with tdim = 1 (circle/ellipse in the
    arc-length frame), 2 (torus chart frame) or 3 (sphere ambient).
    """

    def __init__(self, manifold: Manifold, band: float):
        if not (band > 0 and math.isfinite(band)):
            raise ValueError("band must be positive and finite")
        self.manifold = manifold
        self.band = float(band)
        self.kind = "diffusion"
        kind = manifold.kind
        if manifold.dim == 1:
            self._init_angular(TWO_PI / arc_chart(manifold).total)
        elif kind == "torus2":
            self._init_torus()
        else:
            self._init_sphere()
        self.dim = len(self.labels)
        if self.dim == 0:
            raise ValueError(f"band {band} admits no nonconstant eigenfunctions on {kind}")
        self.freqs = np.asarray(self.freqs, dtype=float)

    # -- construction per kind ------------------------------------------

    def _init_angular(self, base_freq: float):
        kmax = int(math.floor(self.band / base_freq + _EPS))
        self.labels = []
        self.freqs = []
        for k in range(1, kmax + 1):
            for kindtag in ("cos", "sin"):
                self.labels.append((k, kindtag))
                self.freqs.append(k * base_freq)
        self._base_freq = base_freq
        self._ks = np.asarray([lab[0] for lab in self.labels], dtype=float)

    def _init_torus(self):
        kmax = int(math.floor(self.band + _EPS))
        reps = []
        for k1 in range(0, kmax + 1):
            lo = 1 if k1 == 0 else -kmax
            for k2 in range(lo, kmax + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                lam = math.hypot(k1, k2)
                if lam <= self.band + _EPS:
                    reps.append((lam, k1, k2))
        reps.sort()
        self.labels = []
        self.freqs = []
        for lam, k1, k2 in reps:
            for kindtag in ("cos", "sin"):
                self.labels.append((k1, k2, kindtag))
                self.freqs.append(lam)
        self._kvecs = np.asarray([(lab[0], lab[1]) for lab in self.labels], dtype=float)

    def _init_sphere(self):
        lmax = 0
        while math.sqrt((lmax + 1) * (lmax + 2)) <= self.band + _EPS:
            lmax += 1
        self.labels = []
        self.freqs = []
        self._sph = []  # per column: (l, m, norm, poly coeffs of d^{|m|} P_l)
        for l in range(1, lmax + 1):
            lam = math.sqrt(l * (l + 1))
            e = np.zeros(l + 1)
            e[l] = 1.0
            p = npleg.leg2poly(e)  # power-basis coefficients of P_l, exact dyadics
            for m in range(-l, l + 1):
                mu = abs(m)
                q = nppoly.polyder(p, mu) if mu else p
                if m == 0:
                    norm = math.sqrt(2 * l + 1)
                else:
                    norm = math.sqrt(2.0 * (2 * l + 1) * math.factorial(l - mu) / math.factorial(l + mu))
                self.labels.append((l, m))
                self.freqs.append(lam)
                self._sph.append((l, m, norm, np.asarray(q, dtype=float)))
        self._sph_mmax = lmax

    # -- evaluation ------------------------------------------------------

    def evaluate(self, charts: np.ndarray) -> np.ndarray:
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        kind = self.manifold.kind
        if self.manifold.dim == 1:
            s = self._arc_coordinate(charts)
            phase = np.outer(s, self._ks[0::2] * self._base_freq)
            return math.sqrt(2.0) * _alternate(np.cos(phase), np.sin(phase))
        if kind == "torus2":
            phase = (charts @ self._kvecs.T)[:, 0::2]
            return math.sqrt(2.0) * _alternate(np.cos(phase), np.sin(phase))
        vals, _ = self._sphere_eval(charts, want_grad=False)
        return vals

    def gradients(self, charts: np.ndarray) -> np.ndarray:
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        kind = self.manifold.kind
        if self.manifold.dim == 1:
            s = self._arc_coordinate(charts)
            freqs = self._ks * self._base_freq
            phase = np.outer(s, freqs[0::2])
            g = math.sqrt(2.0) * freqs[None, :] * _alternate(-np.sin(phase), np.cos(phase))
            return g[:, :, None]
        if kind == "torus2":
            phase = (charts @ self._kvecs.T)[:, 0::2]
            radial = math.sqrt(2.0) * _alternate(-np.sin(phase), np.cos(phase))
            return radial[:, :, None] * self._kvecs[None, :, :]
        _, grads = self._sphere_eval(charts, want_grad=True)
        return grads

    def _arc_coordinate(self, charts: np.ndarray) -> np.ndarray:
        return arc_chart(self.manifold).forward(np.mod(charts[:, 0], TWO_PI))

    def _sphere_eval(self, charts, want_grad):
        theta, phi = charts[:, 0], charts[:, 1]
        st = np.sin(theta)
        x = st * np.cos(phi)
        y = st * np.sin(phi)
        z = np.cos(theta)
        xyz = np.column_stack([x, y, z])
        # powers of (x + i y): real part m sin^m(theta) cos(m phi), imaginary
        # part the sine companion
        w = np.empty((self._sph_mmax + 1, len(theta)), dtype=complex)
        w[0] = 1.0
        base = x + 1j * y
        for m in range(1, self._sph_mmax + 1):
            w[m] = w[m - 1] * base
        n = len(self._sph)
        vals = np.empty((len(theta), n))
        grads = np.empty((len(theta), n, 3)) if want_grad else None
        for col, (l, m, norm, q) in enumerate(self._sph):
            mu = abs(m)
            qz = nppoly.polyval(z, q)
            ang = w[mu].real if m >= 0 else w[mu].imag
            vals[:, col] = norm * ang * qz
            if not want_grad:
                continue
            qdz = nppoly.polyval(z, nppoly.polyder(q))
            if mu == 0:
                gx = np.zeros_like(z)
                gy = np.zeros_like(z)
            elif m > 0:
                gx = mu * w[mu - 1].real * qz
                gy = -mu * w[mu - 1].imag * qz
            else:
                gx = mu * w[mu - 1].imag * qz
                gy = mu * w[mu - 1].real * qz
            g = norm * np.column_stack([gx, gy, ang * qdz])
            g -= np.sum(g * xyz, axis=1, keepdims=True) * xyz
            grads[:, col, :] = g
        return vals, grads

    # -- misc ------------------------------------------------------------

    def gradient_norms(self, charts: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """|grad P| at chart rows for P with the given coefficient vector."""
        g = np.tensordot(self.gradients(charts), np.asarray(coeffs, dtype=float), axes=(1, 0))
        return np.linalg.norm(np.atleast_2d(g.reshape(len(g), -1)), axis=1)

    def manifest(self) -> dict:
        """JSON-ready summary of the enumerated basis."""
        return {
            "manifold": self.manifold.descriptor(),
            "space": self.kind,
            "band": self.band,
            "dim": self.dim,
            "modes": [{"label": list(lab), "freq": float(f)} for lab, f in zip(self.labels, self.freqs)],
        }


@lru_cache(maxsize=64)
def _space_cache(manifold: Manifold, band: float) -> SpectralSpace:
    return SpectralSpace(manifold, band)


def enumerate_basis(manifold: Manifold, band: float) -> SpectralSpace:
    """The orthonormal eigenbasis of frequencies in (0, band]."""
    return _space_cache(manifold, float(band))


@dataclass
class DiffusionPoly:
    """A band-limited function: a spectral space plus real coefficients."""

    space: SpectralSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.dim,):
            raise ValueError("coefficient count does not match the basis dimension")

    def values(self, charts: np.ndarray) -> np.ndarray:
        return self.space.evaluate(charts) @ self.coeffs

    def tangent_gradients(self, charts: np.ndarray) -> np.ndarray:
        return np.tensordot(self.space.gradients(charts), self.coeffs, axes=(1, 0))
