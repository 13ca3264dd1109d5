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

Circle, ellipse and torus columns are powers of unit complex numbers: one
cos/sin pair per point and chart axis gives z = e^{i theta} (theta the arc
coordinate times the base frequency 2 pi / ell on the curves, each chart
angle on the torus), a cumulative product gives z^k, and the torus column
(k1, k2) is z1^k1 z2^k2 with z^-k the conjugate of z^k.  The complex block
viewed as floats is the interleaved sqrt(2) cos, sin layout.  No phase
k theta is rounded, so the error grows like k eps, not k theta eps.
Tables and products are built for chunks of rows, so temporaries stay
small, and no row depends on which others share its call.

Gradients follow the tangent conventions of :mod:`cubaflow.geometry`:
signed arc-length derivative (circle/ellipse), chart-frame vector
(torus2), tangential ambient vector (sphere2).  On the curves and the
torus they are i times the value harmonics, i.e. (-sin, cos), scaled by
the frequency or by each component of k.  The sphere harmonic (l, m)
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
# bytes of complex harmonics per chunk of rows: the power tables and the
# product's temporaries are held for one chunk at a time
_CHUNK_BYTES = 1 << 18


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
        self._rows = max(1, _CHUNK_BYTES // (8 * self.dim))

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
        self._kmax = kmax
        self._scale = np.asarray(self.freqs)[:, None]

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
        self._kmax = kmax
        self._scale = np.asarray([lab[:2] for lab in self.labels], dtype=float)
        # flat power-table columns of z1^k1 and z2^k2, exponents -kmax..kmax per axis
        k = self._scale[0::2].astype(np.intp) + kmax
        self._cols = (k[:, 0], k[:, 1] + 2 * kmax + 1)

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
        if self.manifold.kind == "sphere2":
            return self._sphere_eval(charts, want_grad=False)
        z = self._unit(charts)
        out = np.empty((len(z), self.dim // 2), dtype=complex)
        for a in range(0, len(z), self._rows):
            self._powers(z[a:a + self._rows], out[a:a + self._rows])
        # the complex columns viewed as floats are the interleaved cos, sin pairs
        vals = out.view(float)
        vals *= math.sqrt(2.0)
        return vals

    def gradients(self, charts: np.ndarray) -> np.ndarray:
        charts = np.atleast_2d(np.asarray(charts, dtype=float))
        if self.manifold.kind == "sphere2":
            return self._sphere_eval(charts, want_grad=True)
        z = self._unit(charts)
        grads = np.empty((len(z), self.dim, self._scale.shape[1]))
        buf = np.empty((min(len(z), self._rows), self.dim // 2), dtype=complex)
        for a in range(0, len(z), self._rows):
            rows = slice(a, a + self._rows)
            h = self._powers(z[rows], buf[:len(z[rows])]).view(float)
            h *= math.sqrt(2.0)
            # i times a harmonic is (-sin, cos); each tangent axis scales it
            # by its frequency (curves) or its k component (torus)
            for axis, k in enumerate(self._scale.T):
                np.multiply(h[:, 1::2], -k[0::2], out=grads[rows, 0::2, axis])
                np.multiply(h[:, 0::2], k[1::2], out=grads[rows, 1::2, axis])
        return grads

    def _unit(self, charts: np.ndarray) -> np.ndarray:
        """e^{i theta} per point and chart axis, (n, d): theta is the arc
        coordinate times the base frequency on the curves, the chart on the torus."""
        if self.manifold.dim == 1:
            # (n,) arcs, the shape the move's chart call keeps for reuse
            charts = arc_chart(self.manifold).forward(np.mod(charts[:, 0], TWO_PI))[:, None] * self._base_freq
        z = np.empty(charts.shape, dtype=complex)
        z.real, z.imag = np.cos(charts), np.sin(charts)
        return z

    def _powers(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Complex harmonics of unit rows ``z`` (c, d) into ``out`` (c, dim / 2):
        z^k on the curves, z1^k1 z2^k2 on the torus."""
        kmax = self._kmax
        if self.manifold.dim == 1:
            return np.cumprod(np.broadcast_to(z, (len(z), kmax)), axis=1, out=out)
        table = np.empty((len(z), 2, 2 * kmax + 1), dtype=complex)
        table[:, :, kmax] = 1.0
        np.cumprod(np.broadcast_to(z[:, :, None], (len(z), 2, kmax)), axis=2, out=table[:, :, kmax + 1:])
        np.conjugate(table[:, :, :kmax:-1], out=table[:, :, :kmax])  # z^-k
        table = table.reshape(len(z), -1)
        # "clip" writes straight into out, where the default "raise" buffers
        np.take(table, self._cols[1], axis=1, out=out, mode="clip")
        out *= np.take(table, self._cols[0], axis=1, mode="clip")
        return out

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
