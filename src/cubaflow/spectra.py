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
(torus2), tangential ambient vector (sphere2).  The sphere harmonic (l, m)
is Re (m >= 0) or Im (m < 0) of (x + i y)^|m| T[l, |m|], where one table
T[l, k] = N_lk d^k P_l(z) comes from the normalized associated-Legendre
recurrence in l and d/dz T[l, k] is a constant times T[l, k + 1].  They are
polynomials in the ambient coordinates, so there are no pole singularities.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import Manifold, TWO_PI, arc_chart, charts_to_ambient

_EPS = 1e-9  # slack for "frequency <= band" comparisons on float bands


def _trig_pairs(phase: np.ndarray, scale, derivative: bool) -> np.ndarray:
    """scale times cos, sin of an (n, p) phase block as interleaved (n, 2p) columns.

    ``derivative`` gives -sin, cos.  Each step writes into the output.
    """
    out = np.empty((len(phase), 2 * phase.shape[1]))
    even, odd = out[:, 0::2], out[:, 1::2]
    if derivative:
        np.sin(phase, out=even)
        np.negative(even, out=even)
        np.cos(phase, out=odd)
    else:
        np.cos(phase, out=even)
        np.sin(phase, out=odd)
    out *= scale
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
        self.labels = [(l, m) for l in range(1, lmax + 1) for m in range(-l, l + 1)]
        self.freqs = [math.sqrt(l * (l + 1)) for l, _ in self.labels]
        l, m = np.array(self.labels, dtype=int).reshape(-1, 2).T
        mu = np.abs(m)
        # T[l, k] = a z T[l-1, k] - b T[l-2, k] for k < l (Holmes & Featherstone,
        # J. Geodesy 76, 2002), from the constant T[k, k] = N_kk (2k - 1)!!
        self._sph_rec = []
        for row in range(1, lmax + 1):
            k = np.arange(row)
            a = np.sqrt((4.0 * row * row - 1) / ((row - k) * (row + k)))
            b = np.sqrt((2.0 * row + 1) * (row + k - 1) * (row - k - 1)
                        / ((row - k) * (row + k) * max(2 * row - 3, 1)))  # 0 on row 1
            self._sph_rec.append((a, b))
        k = np.arange(lmax + 1)
        sectoral = np.where(k > 0, 2.0, 1.0) * np.cumprod((2.0 * k + 1) / np.maximum(2 * k, 1))
        self._sph_t0 = np.zeros((lmax + 1, lmax + 2))  # T[l, l + 1] = N d^{l+1} P_l = 0
        self._sph_t0[k, k] = np.sqrt(sectoral)  # T[k, k]^2 = 2 (2k + 1)!! / (2k)!!, half at k = 0
        self._sph_cols = l * (lmax + 2) + mu  # flat index of T[l, |m|]
        self._sph_mu = mu
        self._sph_phase = np.where(m >= 0, 1.0, -1j)  # Im(w) = Re(-i w)
        self._sph_dz = np.sqrt((l + mu + 1) * (l - mu) / np.where(mu > 0, 1.0, 2.0))  # N_lm / N_l,m+1

    # -- evaluation ------------------------------------------------------

    def evaluate(self, charts: np.ndarray) -> np.ndarray:
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        kind = self.manifold.kind
        if self.manifold.dim == 1:
            s = self._arc_coordinate(charts)
            phase = np.outer(s, self._ks[0::2] * self._base_freq)
            return _trig_pairs(phase, math.sqrt(2.0), derivative=False)
        if kind == "torus2":
            phase = (charts @ self._kvecs.T)[:, 0::2]
            return _trig_pairs(phase, math.sqrt(2.0), derivative=False)
        return self._sphere_eval(charts, want_grad=False)

    def gradients(self, charts: np.ndarray) -> np.ndarray:
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        kind = self.manifold.kind
        if self.manifold.dim == 1:
            s = self._arc_coordinate(charts)
            freqs = self._ks * self._base_freq
            phase = np.outer(s, freqs[0::2])
            return _trig_pairs(phase, math.sqrt(2.0) * freqs, derivative=True)[:, :, None]
        if kind == "torus2":
            phase = (charts @ self._kvecs.T)[:, 0::2]
            radial = _trig_pairs(phase, math.sqrt(2.0), derivative=True)
            # one product per chart component: a broadcast over the length-2
            # last axis is several times slower
            grads = np.empty(radial.shape + (2,))
            for axis in range(2):
                np.multiply(radial, self._kvecs[:, axis], out=grads[:, :, axis])
            return grads
        return self._sphere_eval(charts, want_grad=True)

    def _arc_coordinate(self, charts: np.ndarray) -> np.ndarray:
        return arc_chart(self.manifold).forward(np.mod(charts[:, 0], TWO_PI))

    def _sphere_eval(self, charts, want_grad):
        xyz = charts_to_ambient(self.manifold, charts)
        n, lmax, z = len(xyz), len(self._sph_rec), xyz[:, 2:]
        t = np.repeat(self._sph_t0[None], n, axis=0)
        for row, (a, b) in enumerate(self._sph_rec, start=1):
            t[:, row, :row] = a * z * t[:, row - 1, :row] - (b * t[:, row - 2, :row] if row > 1 else 0.0)
        t = t.reshape(n, self._sph_t0.size)
        w = np.ones((n, lmax + 1), dtype=complex)  # powers of x + i y
        w[:, 1:] = np.cumprod(np.broadcast_to((xyz[:, 0] + 1j * xyz[:, 1])[:, None], (n, lmax)), axis=1)
        # np.take keeps the columns C-ordered, the layout BLAS callers round against
        mu, tcol = self._sph_mu, np.take(t, self._sph_cols, axis=1)
        ang = (self._sph_phase * np.take(w, mu, axis=1)).real
        if not want_grad:
            return ang * tcol
        dw = self._sph_phase * mu * np.take(w, np.maximum(mu - 1, 0), axis=1)  # d/dx w^mu = -i d/dy w^mu
        dtz = self._sph_dz * np.take(t, self._sph_cols + 1, axis=1)
        grads = np.stack([dw.real * tcol, -dw.imag * tcol, ang * dtz], axis=2)
        grads -= np.sum(grads * xyz[:, None, :], axis=2, keepdims=True) * xyz[:, None, :]
        return grads

    # -- misc ------------------------------------------------------------

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
