"""Cubature construction and verification engine.

The pieces, bottom up: a smooth frequency cutoff (the window H of the
paper's localized kernels); a norm smoother that turns the ascent field
grad P / |grad P| into a globally smooth vector field; residual
bookkeeping over an orthonormal basis; the gradient-flow integrator of
the existence argument (``flow_run``, whose horizon, smoother scale and
step count are its own arguments); and a node solver, damped
Gauss-Newton descent on the residual, configured by ``FlowConfig``.  The
solver moves only the nodes; weights are prescribed and never change.

All heavy paths are vectorized over points and reduce in a fixed order,
so results are reproducible for a given seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import wraps
from itertools import islice

import numpy as np

from .algebraic import RestrictedPolySpace, build_restricted_space
from .geometry import (
    Manifold,
    _check_count,
    arc_chart,
    charts_to_ambient,
    manifold_from_descriptor,
    move_points,
    reference_grid,
    reference_integrate,
    sphere_tangent_frame,
)
from .partition import Partition, _json_float, _json_text, _Verbatim, weighted_partition
from .spectra import SpectralSpace, enumerate_basis
from .weights import WeightVector

__all__ = [
    "SmootherV",
    "FlowConfig",
    "FlowResult",
    "CubatureRule",
    "RuleReport",
    "smooth_cutoff",
    "residual_vector",
    "flow_run",
    "solve",
    "mz_ratios",
    "mz_ratio_diffusion",
    "mz_ratio_algebraic",
    "verify_rule",
    "rule_to_json",
    "rule_from_json",
    "rule_to_csv",
]

SCHEMA_VERSION = 1

# damped Gauss-Newton iterations per descent restart
_MAX_NEWTON_ITERS = 500
# a descent restart stops once its best max residual has not halved over
# this many iterations; converging restarts need 7-32 iterations in all
_STAGNATION_WINDOW = 50
# bound on one stacked intermediate: the gradient array of a lockstep stack
# of restarts, or the grid values of a chunk of MZ coefficient rows
_BLOCK_BYTES = 1 << 25
# grid integrals memoised per (space, mode): a sweep's rows, with room to spare
_MZ_MEMO_ROWS = 1024
# why a restart stopped, as recorded in the rule stats
STOP_REASONS = ("converged", "stagnated", "damping exhausted", "iteration cap")

# quadrature band inflation for integrands with absolute values (not
# band-limited; the reference grids converge at second order on them)
_ABS_BAND_FACTOR = 8.0


# ---------------------------------------------------------------------------
# Smooth cutoff and the norm smoother


def _bump(s):
    """exp(-1/s) for s > 0, identically 0 otherwise; C^inf on the reals."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smooth_cutoff(u):
    """Even C^inf window: 1 on [-1, 1], 0 outside (-2, 2), monotone between."""
    u = np.abs(np.asarray(u, dtype=float))
    a = _bump(2.0 - u)
    b = _bump(u - 1.0)
    return a / (a + b)


_GL48_NODES, _GL48_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _ramp(x):
    """Monotone C^inf step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    a = _bump(x)
    return a / (a + _bump(1.0 - x))


def _ramp_integral(x):
    """Integral of the step from 0 to x, for x in [0, 1] (Gauss-Legendre)."""
    x = np.asarray(x, dtype=float)
    nodes = 0.5 * x[..., None] * (_GL48_NODES + 1.0)
    return 0.5 * x * (_ramp(nodes) @ _GL48_WEIGHTS)


@dataclass(frozen=True)
class SmootherV:
    """Smooth floor for the gradient norm.

    v(u) = eps/2 below eps/4 and v(u) = u from 3 eps/4 on; in between it
    is eps/2 plus the integral of a smooth 0-to-1 step, so v' lies in
    [0, 1] everywhere.  That gives every required inequality exactly:
    v >= u (v - u decreases to zero), v >= eps/4, and monotonicity.
    """

    eps: float

    def __post_init__(self):
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("smoother scale must be positive and finite")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        e = self.eps
        out = np.where(u >= 0.75 * e, u, 0.5 * e)
        mid = (u > 0.25 * e) & (u < 0.75 * e)
        if np.any(mid):
            x = (u[mid] - 0.25 * e) / (0.5 * e)
            out = np.array(out, dtype=float)
            out[mid] = 0.5 * e * (1.0 + _ramp_integral(x))
        return out


# ---------------------------------------------------------------------------
# Residuals


def _as_space(space):
    if not isinstance(space, (SpectralSpace, RestrictedPolySpace)):
        raise TypeError("expected an enumerated basis object")
    return space


def _weight_values(weights) -> np.ndarray:
    if isinstance(weights, WeightVector):
        return weights.values
    return np.asarray(weights, dtype=float)


def residual_vector(space, points, weights) -> np.ndarray:
    """r_k = sum_j w_j phi_k(x_j) over the space's basis.

    ``points`` is one (n, c) node set, or a (k, n, c) stack of node sets
    sharing the weights, giving a (k, dim) stack of residuals from one
    basis evaluation; each row equals the single set's residual bit for
    bit.
    """
    space = _as_space(space)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = _weight_values(weights)
    if pts.shape[-2] != len(w):
        raise ValueError("points and weights lengths differ")
    if pts.shape[-1] != space.manifold.dim:
        raise ValueError("chart arity does not match the space's manifold")
    vals = space.evaluate(pts.reshape(-1, pts.shape[-1]))
    return vals.reshape(*pts.shape[:-1], -1).swapaxes(-1, -2) @ w


def residual_norms(r: np.ndarray) -> tuple[float, float]:
    r = np.asarray(r, dtype=float)
    return float(np.max(np.abs(r))), float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# Flow configuration and integrator


def _check_positive(name: str, value) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for the node solver: ``solve`` reads ``restarts``, ``seed``
    and ``tol``.  ``mode`` accepts only "descent": the flow mode was
    removed in 0.8.0.  The flow integrator takes its own arguments, see
    :func:`flow_run`.
    """

    restarts: int = 8
    seed: int = 0
    mode: str = "descent"
    tol: float = 1e-9

    def __post_init__(self):
        if self.mode != "descent":
            raise ValueError(
                f"mode must be 'descent', got {self.mode!r}: flow mode was removed in 0.8.0"
            )
        _check_count("restarts", self.restarts, 1)
        _check_count("seed", self.seed, 0)
        _check_positive("tolerance", self.tol)


@dataclass(frozen=True)
class FlowResult:
    endpoints: np.ndarray
    times: np.ndarray
    functional: np.ndarray
    eps: float
    horizon: float


def _poly_coeffs(space, P) -> tuple:
    coeffs = np.asarray(P, dtype=float)
    if coeffs.shape != (space.dim,):
        raise ValueError("coefficient count does not match the basis dimension")
    return space, coeffs


def flow_run(space, P, seeds, horizon, *, eps=None, steps_per_unit=96, weights=None) -> FlowResult:
    """Integrate dy/dt = grad P / v(|grad P|) from the seeds up to ``horizon``.

    Classic four-stage Runge-Kutta with the exponential-map retraction
    at every stage; the ambient sphere steps need no re-charting.  The
    sampled functional sum_j w_j P(y_j(t)) is returned alongside the
    endpoints; in exact arithmetic it is nondecreasing.  ``horizon`` and
    ``eps`` must be positive and finite, ``steps_per_unit`` an integer of
    at least 1; ``eps`` defaults to 1e-3 times the weighted sample of
    |grad P| at the seeds (a scale-invariant smoother), and ``weights``
    to uniform ones.
    """
    _check_positive("horizon", horizon)
    if eps is not None:
        _check_positive("eps", eps)
    _check_count("steps_per_unit", steps_per_unit, 1)
    space, coeffs = _poly_coeffs(_as_space(space), P)
    pts = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    n = len(pts)
    w = np.full(n, 1.0 / n) if weights is None else _weight_values(weights)
    if len(w) != n:
        raise ValueError("weights length does not match the seeds")
    horizon = float(horizon)

    def grad(y):
        """grad P at the rows of y, one flattened tangent vector per row."""
        return np.tensordot(space.gradients(y), coeffs, axes=(1, 0)).reshape(len(y), -1)

    if eps is None:
        est = float(w @ np.linalg.norm(grad(pts), axis=1))
        eps = max(1e-3 * est, 1e-12)
    v = SmootherV(eps)

    def field(y):
        g = grad(y)
        return g / v(np.linalg.norm(g, axis=1))[:, None]

    mf = space.manifold
    nsteps = max(1, int(math.ceil(horizon * steps_per_unit)))
    h = horizon / nsteps
    times = np.linspace(0.0, horizon, nsteps + 1)
    func = np.empty(nsteps + 1)
    func[0] = float(w @ (space.evaluate(pts) @ coeffs))
    for step in range(nsteps):
        k1 = field(pts)
        k2 = field(move_points(mf, pts, 0.5 * h * k1))
        k3 = field(move_points(mf, pts, 0.5 * h * k2))
        k4 = field(move_points(mf, pts, h * k3))
        pts = move_points(mf, pts, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        func[step + 1] = float(w @ (space.evaluate(pts) @ coeffs))
    return FlowResult(
        endpoints=pts, times=times, functional=func, eps=eps, horizon=horizon
    )


# ---------------------------------------------------------------------------
# The rule object


@dataclass(frozen=True)
class CubatureRule:
    """Nodes and prescribed weights with their residual certificate."""

    manifold: Manifold
    space_kind: str
    band: float
    points: np.ndarray
    weights: np.ndarray
    residual: np.ndarray = field(repr=False)
    residual_linf: float
    residual_l2: float
    converged: bool
    seed: int
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.weights)


def _make_space(manifold: Manifold, space_kind: str, band: float):
    if space_kind == "diffusion":
        return enumerate_basis(manifold, band)
    if space_kind == "algebraic":
        return build_restricted_space(manifold, band)
    raise ValueError("space kind must be 'diffusion' or 'algebraic'")


def _float_list_text(values) -> str:
    """The JSON text, at depth 1 of a document, of a float array: a list
    of numbers, or of rows of numbers.  One row template is repeated for
    every row and the whole list filled at once."""
    values = np.asarray(values, dtype=float)
    if not len(values):
        return "[]"
    row = "%s"
    if values.ndim == 2:
        row = "[\n   " + ",\n   ".join(["%s"] * values.shape[1]) + "\n  ]" if values.shape[1] else "[]"
    text = "[\n  " + ",\n  ".join([row] * len(values)) + "\n ]"
    return text % tuple(map(_json_float, values.ravel().tolist()))


def rule_to_json(rule: CubatureRule) -> str:
    """The rule file: the bytes of ``json.dumps(doc, sort_keys=True,
    indent=1)`` of its document; the points and the weights are each
    written by ``_float_list_text``."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "manifold": rule.manifold.descriptor(),
        "space": rule.space_kind,
        "L": rule.band,
        "points": _Verbatim([_float_list_text(rule.points)]),
        "weights": _Verbatim([_float_list_text(rule.weights)]),
        "residual_linf": rule.residual_linf,
        "residual_l2": rule.residual_l2,
        "converged": bool(rule.converged),
        "seed": int(rule.seed),
    }
    return _json_text(doc)


def _rule_field(doc: dict, name: str, cast):
    """``cast(doc[name])``; a missing or malformed field raises ValueError naming it."""
    try:
        return cast(doc[name])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValueError(f"rule field {name!r} is missing or malformed: {exc!r}") from None


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def rule_from_json(text: str) -> CubatureRule:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a rule file holds one JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported rule schema version: {version}")
    manifold = _rule_field(doc, "manifold", manifold_from_descriptor)
    pts = _rule_field(doc, "points", lambda v: np.asarray(v, dtype=float))
    w = _rule_field(doc, "weights", lambda v: WeightVector(np.asarray(v, dtype=float)).values)
    if pts.ndim != 2:
        raise ValueError("rule field 'points' must be a list of rows")
    space_kind = _rule_field(doc, "space", str)
    band = _rule_field(doc, "L", float)
    space = _make_space(manifold, space_kind, band)
    r = residual_vector(space, pts, w)
    return CubatureRule(
        manifold=manifold,
        space_kind=space_kind,
        band=band,
        points=pts,
        weights=w,
        residual=r,
        residual_linf=_rule_field(doc, "residual_linf", float),
        residual_l2=_rule_field(doc, "residual_l2", float),
        converged=_rule_field(doc, "converged", _json_bool),
        seed=_rule_field(doc, "seed", operator.index),
    )


def rule_to_csv(rule: CubatureRule) -> str:
    """Ambient coordinates plus the weight column."""
    amb = charts_to_ambient(rule.manifold, rule.points)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i}" for i in range(amb.shape[1])] + ["weight"])
    for row, wj in zip(amb, rule.weights):
        writer.writerow([f"{x:.17g}" for x in row] + [f"{wj:.17g}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Solver


def _uniform_points(manifold: Manifold, n: int, rng: np.random.Generator):
    kind = manifold.kind
    if kind == "torus2":
        return rng.uniform(0.0, 2.0 * math.pi, (n, 2))
    if kind == "sphere2":
        z = rng.uniform(-1.0, 1.0, n)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        return np.column_stack([np.arccos(z), phi])
    chart = arc_chart(manifold)
    return chart.inverse(rng.uniform(0.0, chart.total, n))[:, None]


def _jacobians(space, pts, w):
    """Weighted residual Jacobians of a (k, n, c) stack of node sets.

    Returns the (k, dim, n * dof) stack and, on the sphere, the (k, n, 3)
    tangent frames its columns refer to.  The basis is evaluated once on
    all k n points and weighted in place.  Each slice has the memory
    layout of a single set's Jacobian, because BLAS rounds a product of a
    transposed operand differently: a view of the weighted gradients when
    dof = 1, a C-contiguous copy when dof > 1.
    """
    k, n, c = pts.shape
    flat = pts.reshape(-1, c)
    g = space.gradients(flat)  # (k n, m, tdim)
    m = g.shape[1]
    if space.manifold.kind != "sphere2":
        g = g.reshape(k, n, m, -1)
        np.multiply(g, w[:, None, None], out=g)
        if g.shape[3] == 1:
            return g[..., 0].transpose(0, 2, 1), None
        # the copy moves whole tangent vectors, not floats: the same bytes,
        # about four times faster
        vecs = g.view(np.dtype((np.void, 8 * g.shape[3])))[..., 0]
        return np.ascontiguousarray(vecs.transpose(0, 2, 1)).view(float).reshape(k, m, -1), None
    e1, e2 = sphere_tangent_frame(flat)
    j1 = np.einsum("nmt,nt->nm", g, e1).reshape(k, n, m)
    j2 = np.einsum("nmt,nt->nm", g, e2).reshape(k, n, m)
    jac = np.concatenate([j1 * w[:, None], j2 * w[:, None]], axis=1).transpose(0, 2, 1)
    return jac, (e1.reshape(k, n, 3), e2.reshape(k, n, 3))


def _solve_stack(a: np.ndarray, b: np.ndarray):
    """Solve each slice a_i z_i = b_i; returns z and a mask of the solvable slices.

    A stacked solve raises when any slice is singular, so that case
    retries slice by slice and leaves the others unaffected.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        z, ok = np.zeros(b.shape), np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                z[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return z, ok


def _norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, one dot product per row as np.linalg.norm takes."""
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def _step_operands(jac: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Slices ``sel`` of the transposed Jacobians, each in its single-restart layout.

    A gather copies, so it gathers from whichever of ``jac`` and its
    transpose is C-contiguous: a copy that transposed a slice would change
    how BLAS rounds.  Taking every slice needs no copy.
    """
    jt = jac.transpose(0, 2, 1)
    if len(sel) == len(jac):
        return jt
    return jac[sel].transpose(0, 2, 1) if jac.flags.c_contiguous else jt[sel]


def _lockstep_step(space, pts, r, mu, active, w) -> np.ndarray:
    """One damped Gauss-Newton step of the restarts ``active``, in place.

    Each damping trial solves, steps, moves and evaluates only the
    restarts still trying; an accepted trial updates that restart's
    ``pts``, ``r`` and ``mu``.  Returns the mask over ``active`` of the
    restarts whose twelve trials all failed.  The Jacobians and their
    Gram matrices live only for this call, so the next step's never
    coexist with them.
    """
    n, c = pts.shape[1:]
    x = pts[active]
    jac, frames = _jacobians(space, x, w)
    gram = jac @ jac.transpose(0, 2, 1)
    diag = np.arange(space.dim)
    trying = np.ones(len(active), dtype=bool)
    for _ in range(12):
        sel = np.flatnonzero(trying)
        if len(sel) == 0:
            break
        rows = active[sel]
        a = gram[sel]
        a[:, diag, diag] += mu[rows, None]
        z, ok = _solve_stack(a, r[rows])
        mu[rows[~ok]] *= 10.0
        sel, rows, z = sel[ok], rows[ok], z[ok]
        if len(sel) == 0:
            continue
        step = -(_step_operands(jac, sel) @ z[..., None])[..., 0]
        if frames is None:
            disp = step.reshape(len(sel) * n, -1)
        else:
            e1, e2 = frames[0][sel], frames[1][sel]
            disp = (step[:, :n, None] * e1 + step[:, n:, None] * e2).reshape(-1, 3)
        trial = move_points(space.manifold, x[sel].reshape(-1, c), disp).reshape(len(sel), n, c)
        tr = residual_vector(space, trial, w)
        better = _norms(tr) < _norms(r[rows])
        acc = rows[better]
        pts[acc], r[acc] = trial[better], tr[better]
        mu[acc] = np.maximum(mu[acc] / 3.0, 1e-14)
        mu[rows[~better]] *= 10.0
        trying[sel[better]] = False
    return trying


def _descent(space, starts, w, cfg: FlowConfig):
    """Damped Gauss-Newton on the residual for a stack of restarts in lockstep.

    The step solves the damped dual normal equations, i.e. the
    minimum-norm update of the node displacements; with far more node
    degrees of freedom than basis elements this generically drives the
    residual to machine precision.

    ``starts`` is a (k, n, c) stack of seed sets.  Each step evaluates
    the basis once on every active restart's points (``_lockstep_step``).
    Each restart keeps its own damping, accepted state and best iterate,
    and every stacked product equals the single restart's one bit for
    bit, so a restart's result does not depend on the others in its stack.
    A restart stops when its max residual reaches tol / 1000
    ("converged"), when no damping trial lowers its residual norm
    ("damping exhausted"), when its best max residual has not halved over
    the last ``_STAGNATION_WINDOW`` iterations ("stagnated"), or after
    ``_MAX_NEWTON_ITERS`` ("iteration cap").  When a restart converges,
    every restart after it in the stack is dropped; those before it run
    on to their own stop, since one of them may still converge.  Returns
    the best points and residuals, and per restart the iteration count
    and the stop reason, of the restarts up to and including the first
    converged one, or of all of them if none converged.
    """
    pts = np.array(starts, dtype=float)
    k = len(pts)
    r = residual_vector(space, pts, w)
    best_pts, best_r = pts.copy(), r.copy()
    # best max residual after each iteration, for the stagnation window
    best_hist = np.empty((_MAX_NEWTON_ITERS + 1, k))
    best_hist[0] = np.max(np.abs(r), axis=1)
    mu = np.full(k, 1e-8)
    iters = np.full(k, _MAX_NEWTON_ITERS)
    reasons = ["iteration cap"] * k
    active = np.arange(k)
    end = k  # restarts up to and including the first converged one
    for it in range(1, _MAX_NEWTON_ITERS + 1):
        conv = np.max(np.abs(r[active]), axis=1) <= cfg.tol * 1e-3
        damp = ~conv & (mu[active] > 1e12)
        stag = np.zeros_like(conv)
        if it > _STAGNATION_WINDOW:
            window = best_hist[[it - 1, it - 1 - _STAGNATION_WINDOW]][:, active]
            stag = ~(conv | damp) & (window[0] > 0.5 * window[1])
        for mask, reason in ((conv, "converged"), (damp, "damping exhausted"),
                             (stag, "stagnated")):
            for i in active[mask]:
                iters[i], reasons[i] = it, reason
        if np.any(conv):
            end = active[conv][0] + 1  # active is ascending
        active = active[~(conv | damp | stag) & (active < end)]
        if len(active) == 0:
            break
        exhausted = _lockstep_step(space, pts, r, mu, active, w)
        for i in active[exhausted]:
            iters[i], reasons[i] = it, "damping exhausted"
        active = active[~exhausted]
        linf = np.max(np.abs(r[active]), axis=1)
        gain = linf < best_hist[it - 1, active]
        best_hist[it] = best_hist[it - 1]
        best_hist[it, active[gain]] = linf[gain]
        gain = active[gain]
        best_pts[gain], best_r[gain] = pts[gain], r[gain]
    return best_pts[:end], best_r[:end], iters[:end].tolist(), reasons[:end]


def _restart_runs(space, seeds, w, cfg: FlowConfig):
    """Yield (points, residual, Newton iterations, stop reason) per restart, in order.

    ``seeds(i)`` gives restart i's starting nodes.  Restart 0 runs alone;
    if it does not converge, the others run as one lockstep stack, split
    only where a stack's gradient array would exceed ``_BLOCK_BYTES``.
    The runs end at the first converged restart.
    """
    n, m = len(w), space.dim
    tdim = 3 if space.manifold.kind == "sphere2" else space.manifold.dim
    cap = max(1, _BLOCK_BYTES // (n * m * tdim * 8))
    start = 0
    while start < cfg.restarts:
        stop = min(start + cap, cfg.restarts) if start else 1
        runs = _descent(space, np.stack([seeds(i) for i in range(start, stop)]), w, cfg)
        yield from zip(*runs)
        if runs[3][-1] == "converged":
            return
        start = stop


def solve(
    manifold: Manifold,
    space_kind: str,
    band: float,
    weights,
    cfg: FlowConfig | None = None,
) -> CubatureRule:
    """Find nodes so the prescribed weights integrate the whole band.

    Restart 0 seeds at the weighted-partition representatives (measure
    proportional, well spread); later restarts draw uniform points from
    a per-restart generator.  Every restart runs damped Gauss-Newton
    descent.  Returns the best rule found, flagged unconverged when no
    restart reaches the tolerance, which can be a true obstruction
    rather than a solver failure.
    """
    cfg = cfg or FlowConfig()
    if not isinstance(weights, WeightVector):
        weights = WeightVector(np.asarray(weights, dtype=float))
    w = weights.values
    n = weights.n
    space = _make_space(manifold, space_kind, band)
    if n < space.dim / 2:
        warnings.warn(
            f"{n} nodes for a dimension-{space.dim} basis; "
            "exactness is typically out of reach below half the dimension",
            stacklevel=2,
        )
    part = weighted_partition(manifold, weights)

    def seeds(i):
        if i == 0:
            return part.representatives()
        return _uniform_points(manifold, n, np.random.default_rng((cfg.seed, i)))

    best = None
    reasons = dict.fromkeys(STOP_REASONS, 0)
    for i, (pts, r, iters, reason) in enumerate(_restart_runs(space, seeds, w, cfg)):
        reasons[reason] += 1
        linf = float(np.max(np.abs(r)))
        if best is None or linf < best[0]:
            best = (linf, pts, r, iters, reason)
        if linf <= cfg.tol:
            break

    linf, pts, r, iters, reason = best
    l2 = float(np.linalg.norm(r))
    return CubatureRule(
        manifold=manifold,
        space_kind=space_kind,
        band=float(band),
        points=pts,
        weights=w.copy(),
        residual=r,
        residual_linf=linf,
        residual_l2=l2,
        converged=bool(linf <= cfg.tol),
        seed=cfg.seed,
        stats={
            "restarts_used": i + 1,
            "newton_iters_last": iters,
            "stop_reason": reason,
            "stop_reasons": reasons,
            "partition_branch": part.branch,
            "partition_c4": part.c4,
            "space_dim": space.dim,
        },
    )


# ---------------------------------------------------------------------------
# Weighted sampling ratios


def _one_slot(fn):
    """Cache the last result of ``fn`` under its arguments, one entry at most.

    A miss drops the old entry before it computes the new one, so a change
    of key never holds two results at once.  Keys compare with ``==``;
    spaces define no equality, so they compare by identity.
    """
    slot = {}

    @wraps(fn)
    def cached(*key):
        if slot.get("key") != key:
            slot.clear()
            slot["value"] = fn(*key)
            slot["key"] = key
        return slot["value"]

    return cached


def _mz_field(space, charts, mode: str) -> np.ndarray:
    """Read-only basis field at charts, one column per basis element.

    Values give one row per point.  Gradients give one row per point and
    tangent component, laid out as ``np.tensordot`` lays them out.
    """
    if mode == "value":
        field = space.evaluate(charts)
    else:
        g = space.gradients(charts)
        field = g.transpose(0, 2, 1).reshape(-1, g.shape[1])
    field.flags.writeable = False
    return field


@_one_slot
def _mz_samples(space, mode: str, shape: tuple, data: bytes) -> np.ndarray:
    """Basis field at the sample charts stored in ``data``.

    A sweep asks for many coefficient rows at one point set, one row per
    call, so the field is evaluated once per (space, mode, samples).  The
    key holds the samples' bytes, not the array, so an array changed in
    place gets a fresh field.  Checking the chart arity here checks it once
    per point set.
    """
    if len(shape) != 2 or shape[1] != space.manifold.dim:
        raise ValueError(f"samples need {space.manifold.dim} chart column(s), got shape {shape}")
    return _mz_field(space, np.frombuffer(data).reshape(shape), mode)


@_one_slot
def _mz_grid(space, mode: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Reference-grid weights, the space's basis field on that grid, and a
    memo of grid integrals keyed by coefficient-row bytes.

    The integral side of a sampling ratio depends only on the space, the
    mode and the coefficients, never on the partition, so the field is
    evaluated once per (space, mode), and each row's integral once while
    the memo has room.  Spaces are keyed by identity.  A sweep uses one key
    throughout, and one entry bounds the memory kept to one field, which is
    hundreds of MB on a fine torus grid, and one memo of at most
    ``_MZ_MEMO_ROWS`` rows.  Both go when the key changes.
    """
    grid = reference_grid(space.manifold, _ABS_BAND_FACTOR * (space.band + 4.0))
    return grid.qweights, _mz_field(space, grid.charts, mode), {}


def _mz_abs(field: np.ndarray, coeffs: np.ndarray, mode: str, npts: int) -> np.ndarray:
    """|P| or |grad P| at npts points, one row per coefficient row.

    Each row takes its own matrix-vector product, the BLAS call a single
    coefficient vector takes, so a block's values equal the one-row
    values bit for bit.  Gradient norms take ``np.linalg.norm``'s own
    arithmetic, squared in place to spare its two temporaries.
    """
    vals = (field @ coeffs[..., None])[..., 0]
    if mode == "value":
        return np.abs(vals)
    vals *= vals
    return np.sqrt(np.add.reduce(vals.reshape(len(coeffs), npts, len(field) // npts), axis=-1))


def _mz_sum(weights: np.ndarray, vals: np.ndarray):
    """Weighted sum over the points, one dot product per coefficient row.

    A single matrix-vector product over the block would round differently
    from the one-row dot product.
    """
    return (vals[..., None, :] @ weights)[..., 0]


def _mz_contract(qweights: np.ndarray, field: np.ndarray, rows: np.ndarray, mode: str) -> np.ndarray:
    """Reference-grid integrals of |P| or |grad P|, one per coefficient row.

    Rows are contracted in chunks whose grid values fit ``_BLOCK_BYTES``,
    so a large block on a fine grid never holds all its values at once.
    """
    step = max(1, _BLOCK_BYTES // (field.shape[0] * 8))
    out = []
    for start in range(0, len(rows), step):
        vals = _mz_abs(field, rows[start : start + step], mode, len(qweights))
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned non-finite values on the grid")
        out.append(_mz_sum(qweights, vals))
    return np.concatenate(out)


def _mz_integrals(space, rows: np.ndarray, mode: str) -> np.ndarray:
    """Grid integrals of the rows, each contracted once while the memo has room.

    A row is looked up by its bytes, so a row changed in place misses.  The
    misses go through ``_mz_contract`` as one block and are stored only if
    all of them are finite; once the memo is full it keeps what it holds.
    """
    qweights, field, memo = _mz_grid(space, mode)
    keys = [row.tobytes() for row in rows]
    miss = [i for i, k in enumerate(keys) if k not in memo]
    fresh = {}
    if miss:
        values = _mz_contract(qweights, field, rows[miss], mode).tolist()
        fresh = {keys[i]: v for i, v in zip(miss, values)}
        memo.update(islice(fresh.items(), max(0, _MZ_MEMO_ROWS - len(memo))))
    return np.array([fresh[k] if k in fresh else memo[k] for k in keys], dtype=float)


def mz_ratios(space, part: Partition, samples, coeffs, mode: str):
    """Relative deviation of the weighted |P| or |grad P| sample from its integral.

    ``mode`` is "value" (|P|) or "gradient" (|grad P|).  ``coeffs`` is one
    coefficient vector of shape (dim,), giving a float, or a (k, dim)
    block, giving k ratios.  The weights are the region measures of the
    partition, and ``samples`` (one point per region, default its
    representatives) are where P is sampled.  The basis fields at the
    samples and on the reference grid are cached, so repeated calls on
    one point set evaluate neither again, and each row's grid integral is
    memoised per (space, mode), so a sweep over N pays for it once.  An
    empty (0, dim) block gives an empty array.  Ratios at or below one
    half are the usable sampling regime.
    """
    space = _as_space(space)
    # identity first: a sweep makes this call once per coefficient row
    if part.manifold is not space.manifold and part.manifold != space.manifold:
        raise ValueError(f"partition on {part.manifold.descriptor()}, space on {space.manifold.descriptor()}")
    if mode not in ("value", "gradient"):
        raise ValueError("mode must be 'value' or 'gradient'")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.dim:
        raise ValueError("coefficient count does not match the basis dimension")
    w = part.weight_array
    if samples is None:
        samples = part.representatives()
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) != len(w):
        raise ValueError("one sample point per region is required")
    rows = np.atleast_2d(coeffs)
    field = _mz_samples(space, mode, samples.shape, samples.tobytes())
    sampled = _mz_sum(w, _mz_abs(field, rows, mode, len(w)))
    integral = _mz_integrals(space, rows, mode)
    if not np.all(integral > 0.0):
        raise ValueError("the integrand vanishes; nonconstant input required")
    ratios = np.abs(integral - sampled) / integral
    return float(ratios[0]) if coeffs.ndim == 1 else ratios


def mz_ratio_diffusion(space, part: Partition, samples, P) -> float:
    """One-row ``mz_ratios`` of |grad P|, ``P`` given by its coefficients."""
    space, coeffs = _poly_coeffs(_as_space(space), P)
    return mz_ratios(space, part, samples, coeffs, "gradient")


def mz_ratio_algebraic(
    space, part: Partition, samples, coeffs, mode: str = "value"
) -> float:
    """One-row ``mz_ratios`` over a restricted polynomial basis."""
    space = _as_space(space)
    if space.kind != "algebraic":
        raise ValueError("expected a restricted polynomial basis")
    if np.ndim(coeffs) != 1:
        raise ValueError("one coefficient vector per call; mz_ratios takes a block")
    return mz_ratios(space, part, samples, coeffs, mode)


# ---------------------------------------------------------------------------
# Independent verification


@dataclass(frozen=True)
class RuleReport:
    residual_linf: float
    residual_l2: float
    max_random_error: float
    weight_sum_error: float  # |fsum(w) - 1|
    stored_consistent: bool
    passed: bool


def verify_rule(rule: CubatureRule, tol: float) -> RuleReport:
    """Recompute the certificate from scratch and cross-check by quadrature.

    A fresh basis is enumerated (no shared state with the solver), the
    residual vector is rebuilt from the stored nodes and weights, and
    100 random members of the band are integrated by the reference grid
    and compared against their weighted node sums.  The band has no
    constant, so the weights must also sum to one within ``tol``.
    ``tol`` must be positive and finite.
    """
    _check_positive("tolerance", tol)
    if rule.space_kind == "diffusion":
        space = SpectralSpace(rule.manifold, rule.band)
    else:
        space = build_restricted_space(rule.manifold, rule.band)
    r = residual_vector(space, rule.points, rule.weights)
    linf, l2 = residual_norms(r)
    stored_ok = (
        abs(linf - rule.residual_linf) <= 1e-14 * max(1.0, linf)
        and abs(l2 - rule.residual_l2) <= 1e-14 * max(1.0, l2)
    )
    rng = np.random.default_rng(20260822)
    coeffs = rng.standard_normal((100, space.dim))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    node_sums = rule.weights @ (space.evaluate(rule.points) @ coeffs.T)
    integrals = reference_integrate(
        space.manifold, lambda ch: space.evaluate(ch) @ coeffs.T, space.band
    )
    max_err = float(np.max(np.abs(node_sums - integrals)))
    mass_err = abs(math.fsum(rule.weights) - 1.0)
    passed = bool(linf <= tol and max_err <= tol and stored_ok and mass_err <= tol)
    return RuleReport(
        residual_linf=linf,
        residual_l2=l2,
        max_random_error=max_err,
        weight_sum_error=mass_err,
        stored_consistent=stored_ok,
        passed=passed,
    )
