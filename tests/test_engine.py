"""The cutoff and smoother, the smoothed ascent flow, the node solver, and diagnostics."""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubaflow import engine
from cubaflow.algebraic import build_restricted_space
from cubaflow.engine import (
    FlowConfig,
    SmootherV,
    flow_run,
    mz_ratio_algebraic,
    mz_ratio_diffusion,
    mz_ratios,
    residual_vector,
    smooth_cutoff,
    solve,
    verify_rule,
)
from cubaflow.geometry import Manifold, reference_grid
from cubaflow.partition import weighted_partition
from cubaflow.spectra import enumerate_basis
from cubaflow.weights import concentrated_weights, random_band_weights

CIRCLE = Manifold("circle")
TORUS = Manifold("torus2")


# ---------------------------------------------------------------------------
# cutoff and smoother


def test_cutoff_plateaus():
    u = np.array([-3.0, -2.0, -1.0, -0.4, 0.0, 0.7, 1.0])
    h = smooth_cutoff(u)
    assert np.all(h[np.abs(u) <= 1.0] == 1.0)
    assert np.all(h[np.abs(u) >= 2.0] == 0.0)
    assert smooth_cutoff(1.5) == pytest.approx(0.5)  # symmetry midpoint
    mid = smooth_cutoff(np.linspace(1.0, 2.0, 200))
    assert np.all(np.diff(mid) <= 0.0)


@given(st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=30)
def test_smoother_invariants(eps):
    v = SmootherV(eps)
    u = np.linspace(0.0, 3.0 * eps, 600)
    vu = v(u)
    assert np.all(vu >= u - 1e-13 * eps)
    assert np.all(vu >= 0.25 * eps - 1e-15)
    assert np.all(np.diff(vu) >= -1e-13 * eps)
    assert np.all(vu[u <= 0.25 * eps] == 0.5 * eps)
    tail = u >= 0.75 * eps
    assert np.array_equal(vu[tail], u[tail])  # exact identity past the ramp


def test_smoother_rejects_bad_scale():
    with pytest.raises(ValueError):
        SmootherV(0.0)
    with pytest.raises(ValueError):
        SmootherV(math.inf)


# ---------------------------------------------------------------------------
# residuals


def test_residual_trapezoid_rule_exact():
    # equally weighted equal spacing is a classic strength-L rule
    L = 5.0
    n = 12  # > 2L
    sp = enumerate_basis(CIRCLE, L)
    pts = (np.arange(n) * 2.0 * math.pi / n)[:, None]
    r = residual_vector(sp, pts, np.full(n, 1.0 / n))
    assert np.max(np.abs(r)) < 1e-14


def test_residual_input_validation():
    sp = enumerate_basis(CIRCLE, 2.0)
    with pytest.raises(ValueError):
        residual_vector(sp, np.zeros((3, 1)), np.full(4, 0.25))
    with pytest.raises(ValueError):
        residual_vector(sp, np.zeros((3, 2)), np.full(3, 1 / 3))


# ---------------------------------------------------------------------------
# flow integrator


def test_flow_zero_field_is_stationary(rng):
    sp = enumerate_basis(TORUS, 3.0)
    seeds = rng.uniform(0, 2 * math.pi, (6, 2))
    res = flow_run(sp, np.zeros(sp.dim), seeds, 1.0)
    assert np.allclose(res.endpoints, seeds, atol=1e-12)
    assert np.all(res.functional == res.functional[0])


def test_flow_monotone_and_fourth_order(rng):
    sp = enumerate_basis(TORUS, 3.0)
    c = rng.standard_normal(sp.dim)
    c /= np.linalg.norm(c)
    seeds = rng.uniform(0, 2 * math.pi, (10, 2))
    r1 = flow_run(sp, c, seeds, 0.5, eps=2.0, steps_per_unit=128)
    assert np.all(np.diff(r1.functional) >= -1e-9)
    r2 = flow_run(sp, c, seeds, 0.5, eps=2.0, steps_per_unit=256)
    r3 = flow_run(sp, c, seeds, 0.5, eps=2.0, steps_per_unit=512)
    d12 = np.max(np.abs(r1.endpoints - r2.endpoints))
    d23 = np.max(np.abs(r2.endpoints - r3.endpoints))
    assert d23 < d12 / 8.0  # at least cubic decay per halving


def test_flow_accepts_poly_and_weights(rng):
    sp = enumerate_basis(CIRCLE, 3.0)
    c = rng.standard_normal(sp.dim)
    seeds = rng.uniform(0, 2 * math.pi, (4, 1))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    res = flow_run(sp, c, seeds, 0.1, weights=w)
    assert res.functional[0] == pytest.approx(float(w @ (sp.evaluate(seeds) @ c)), abs=1e-12)


def test_flow_requires_horizon_or_c4(rng):
    """``flow_run`` needs a horizon and checks its own arguments, each with
    the message its old ``FlowConfig`` field had."""
    sp = enumerate_basis(CIRCLE, 2.0)
    with pytest.raises(TypeError, match="horizon"):
        flow_run(sp, np.zeros(sp.dim), np.zeros((2, 1)))
    seeds = np.array([[0.3], [2.0]])
    for kwargs, match in [
        ({"steps_per_unit": 0}, "steps_per_unit must be an integer"),
        ({"steps_per_unit": 96.5}, "steps_per_unit must be an integer"),
        ({"eps": 0.0}, "eps must be positive and finite"),
        ({"eps": math.inf}, "eps must be positive and finite"),
        ({"eps": math.nan}, "eps must be positive and finite"),
        ({"horizon": -1.0}, "horizon must be positive and finite"),
        ({"horizon": math.inf}, "horizon must be positive and finite"),
    ]:
        kwargs = {"horizon": 0.5, **kwargs}
        with pytest.raises(ValueError, match=match):
            flow_run(sp, np.zeros(sp.dim), seeds, kwargs.pop("horizon"), **kwargs)


def test_flow_config_validation():
    for kwargs, match in [
        ({"mode": "flow"}, "flow mode was removed in 0.8.0"),
        ({"mode": "annealing"}, "mode must be 'descent'"),
        ({"mode": "hybrid"}, "mode must be 'descent'"),
        ({"restarts": 0}, "restarts must be an integer"),
        ({"restarts": 2.5}, "restarts must be an integer"),
        ({"restarts": 2.0}, "restarts must be an integer"),
        ({"seed": 1.5}, "seed must be an integer of at least 0"),
        ({"seed": -1}, "seed must be an integer of at least 0"),
        ({"tol": -1.0}, "tolerance must be positive and finite"),
        ({"tol": 0.0}, "tolerance must be positive and finite"),
        ({"tol": math.inf}, "tolerance must be positive and finite"),
        ({"tol": math.nan}, "tolerance must be positive and finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            FlowConfig(**kwargs)
    # the flow's arguments are flow_run's, not fields to be ignored
    for name in ("eps", "steps_per_unit", "horizon"):
        with pytest.raises(TypeError, match=name):
            FlowConfig(**{name: 3})


def test_flow_config_accepts_integral_counts():
    cfg = FlowConfig(restarts=np.int64(3), seed=np.int32(7))
    assert cfg.mode == "descent" and cfg.restarts == 3 and cfg.seed == 7
    sp = enumerate_basis(CIRCLE, 2.0)
    res = flow_run(sp, np.zeros(sp.dim), np.array([[0.3]]), 0.5, eps=1e-3, steps_per_unit=np.int32(7))
    assert len(res.times) == 5  # ceil(0.5 * 7) steps


def test_verify_rule_rejects_unusable_tolerance():
    rule = solve(CIRCLE, "diffusion", 2.0, np.full(8, 0.125), FlowConfig(restarts=1))
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verify_rule(rule, tol)


# ---------------------------------------------------------------------------
# solver


def test_solve_small_circle_converges():
    rule = solve(CIRCLE, "diffusion", 2.0, np.full(8, 0.125), FlowConfig(tol=1e-12, seed=0))
    assert rule.converged
    assert rule.residual_linf < 1e-12
    assert rule.n == 8
    assert rule.stats["space_dim"] == 4


def test_solve_three_point_family():
    rule = solve(CIRCLE, "diffusion", 1.0, np.array([0.5, 0.25, 0.25]),
                 FlowConfig(tol=1e-12, seed=1))
    assert rule.converged
    t1, t2, t3 = rule.points[:, 0]
    for t in (t2, t3):
        gap = abs(t - t1 - math.pi) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) < 1e-6


def test_solve_algebraic_circle():
    rule = solve(CIRCLE, "algebraic", 3, np.full(12, 1.0 / 12), FlowConfig(tol=1e-10, seed=2))
    assert rule.converged
    assert rule.space_kind == "algebraic"


def test_solve_warns_below_half_dimension():
    with pytest.warns(UserWarning):
        solve(CIRCLE, "diffusion", 8.0, np.full(4, 0.25),
              FlowConfig(restarts=1, seed=0))


def test_solve_deterministic():
    cfg = FlowConfig(seed=7, restarts=2)
    w = random_band_weights(16, 0.5, 2.0, 5)
    a = solve(CIRCLE, "diffusion", 3.0, w, cfg)
    b = solve(CIRCLE, "diffusion", 3.0, w, cfg)
    assert np.array_equal(a.points, b.points)
    assert engine.rule_to_json(a) == engine.rule_to_json(b)


def test_solve_reports_obstruction():
    w = concentrated_weights(6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rule = solve(CIRCLE, "diffusion", 2.0, w, FlowConfig(restarts=5, seed=0))
    assert not rule.converged
    assert rule.residual_linf >= 2.0 * w.values[0] - 1.0 - 1e-9
    assert rule.stats["stop_reason"] in engine.STOP_REASONS[1:]
    assert sum(rule.stats["stop_reasons"].values()) == rule.stats["restarts_used"] == 5


# ---------------------------------------------------------------------------
# lockstep descent against the one-restart loop


def _sequential_descent(space, pts, w, cfg):
    """Oracle: damped Gauss-Newton on one restart, one step at a time.

    This is the single-restart loop the lockstep stack replaced, plus the
    stagnation stop; the iteration cap and stagnation window are read
    from the engine so tests can shrink them.
    """
    mf = space.manifold
    sphere = mf.kind == "sphere2"
    pts = np.array(pts, dtype=float)
    r = residual_vector(space, pts, w)
    best_pts, best_r = pts.copy(), r.copy()
    best_hist = [np.max(np.abs(r))]
    mu = 1e-8
    iters, reason = engine._MAX_NEWTON_ITERS, "iteration cap"
    window = engine._STAGNATION_WINDOW
    for it in range(1, engine._MAX_NEWTON_ITERS + 1):
        if np.max(np.abs(r)) <= cfg.tol * 1e-3 or mu > 1e12:
            conv = np.max(np.abs(r)) <= cfg.tol * 1e-3
            iters, reason = it, "converged" if conv else "damping exhausted"
            break
        if it > window and best_hist[it - 1] > 0.5 * best_hist[it - 1 - window]:
            iters, reason = it, "stagnated"
            break
        g = space.gradients(pts)  # (n, m, tdim)
        if sphere:
            e1, e2 = engine.sphere_tangent_frame(pts)
            j1 = np.einsum("nmt,nt->nm", g, e1)
            j2 = np.einsum("nmt,nt->nm", g, e2)
            jac = np.concatenate([j1 * w[:, None], j2 * w[:, None]], axis=0).T
        else:
            dof = g.shape[2]
            jac = (g * w[:, None, None]).transpose(1, 0, 2).reshape(
                space.dim, len(pts) * dof
            )
        gram = jac @ jac.T
        diag = np.diag_indices_from(gram)
        accepted = False
        for _ in range(12):
            a = gram.copy()
            a[diag] += mu
            try:
                z = np.linalg.solve(a, r)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            step = -(jac.T @ z)
            if sphere:
                half = len(pts)
                disp = step[:half, None] * e1 + step[half:, None] * e2
            else:
                disp = step.reshape(len(pts), -1)
                if disp.shape[1] == 1:
                    disp = disp[:, 0]
            trial = engine.move_points(mf, pts, disp)
            tr = residual_vector(space, trial, w)
            if np.linalg.norm(tr) < np.linalg.norm(r):
                pts, r = trial, tr
                mu = max(mu / 3.0, 1e-14)
                accepted = True
                break
            mu *= 10.0
        if not accepted:
            iters, reason = it, "damping exhausted"
            break
        if np.max(np.abs(r)) < np.max(np.abs(best_r)):
            best_pts, best_r = pts.copy(), r.copy()
        best_hist.append(np.max(np.abs(best_r)))
    return best_pts, best_r, iters, reason


# (manifold, space kind, band, N) near the node-count threshold, so that
# restarts of one stack stop at different iterations and for different reasons
_THRESHOLD_CASES = [
    (CIRCLE, "diffusion", 4.0, 9),
    (Manifold("ellipse", 2.0, 1.0), "diffusion", 3.0, 6),
    (TORUS, "diffusion", 2.0, 8),
    (Manifold("sphere2"), "diffusion", 2.5, 5),
    (CIRCLE, "algebraic", 6, 14),
]


def _stack_case(manifold, kind, band, n, k=6):
    space = engine._make_space(manifold, kind, band)
    w = random_band_weights(n, 0.5, 2.0, 3).values
    rng = np.random.default_rng(11)
    starts = np.stack([engine._uniform_points(manifold, n, rng) for _ in range(k)])
    return space, w, starts


def _assert_matches_oracle(space, w, starts, cfg):
    """The stack returns the one-restart loop's results, bit for bit.

    It returns the restarts up to and including the first one the loop
    converges, or all of them when none converges.
    """
    best_pts, best_r, iters, reasons = engine._descent(space, starts, w, cfg)
    for i, start in enumerate(starts):
        o_pts, o_r, o_iters, o_reason = _sequential_descent(space, start, w, cfg)
        assert np.array_equal(best_pts[i], o_pts)
        assert np.array_equal(best_r[i], o_r)
        assert (iters[i], reasons[i]) == (o_iters, o_reason)
        if o_reason == "converged":
            break
    assert len(best_pts) == len(best_r) == len(iters) == len(reasons) == i + 1
    return iters, reasons


def _converging_last(space, w, starts):
    """``starts`` with those the one-restart loop converges moved to the end.

    A stack returns no restart after its first converged one, so this
    order lets it return every other restart.
    """
    converges = [_sequential_descent(space, s, w, FlowConfig())[3] == "converged" for s in starts]
    return starts[np.argsort(converges, kind="stable")]


@pytest.mark.parametrize("manifold, kind, band, n", _THRESHOLD_CASES,
                         ids=lambda v: getattr(v, "kind", v))
def test_lockstep_descent_matches_sequential(manifold, kind, band, n):
    space, w, starts = _stack_case(manifold, kind, band, n)
    starts = _converging_last(space, w, starts)
    iters, reasons = _assert_matches_oracle(space, w, starts, FlowConfig())
    assert len(set(iters)) > 1
    assert len(set(reasons)) > 1


def test_lockstep_descent_mixes_every_stop_reason(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 30)
    monkeypatch.setattr(engine, "_STAGNATION_WINDOW", 25)
    space, w, starts = _stack_case(CIRCLE, "diffusion", 4.0, 9, k=8)
    starts = _converging_last(space, w, starts)
    _, reasons = _assert_matches_oracle(space, w, starts, FlowConfig())
    assert set(reasons) == set(engine.STOP_REASONS)


def test_lockstep_descent_drops_the_restarts_after_a_converged_one():
    """Only restart 1 converges: the stack returns restarts 0 and 1.

    Restart 0 runs on past restart 1's convergence to its own stop;
    restarts 2 and 3 are dropped when restart 1 converges.
    """
    space, w, starts = _stack_case(CIRCLE, "diffusion", 4.0, 9, k=4)
    starts = starts[[1, 0, 2, 3]]  # the loop converges only the original restart 0
    iters, reasons = _assert_matches_oracle(space, w, starts, FlowConfig())
    assert reasons == ["damping exhausted", "converged"]
    assert iters[0] > iters[1]
    for start in starts[2:]:
        assert _sequential_descent(space, start, w, FlowConfig())[3] != "converged"


def test_lockstep_descent_singular_slice_leaves_others(monkeypatch):
    """A stacked solve that raises for one slice falls back slice by slice.

    Restart 2 runs first in each stack, beside one of the restarts 0, 1
    and 3, because a stack returns nothing after its first converged
    restart and all three converge.
    """
    space, w, starts = _stack_case(TORUS, "diffusion", 2.0, 9, k=4)
    clean = {j: engine._descent(space, starts[[j]], w, FlowConfig()) for j in (0, 1, 3)}
    # the solve fails whenever the residual's first entry exceeds a level
    # only restart 2 starts above
    r0 = residual_vector(space, starts, w)[:, 0]
    level = 0.5 * (r0[2] + np.max(np.delete(r0, 2)))
    assert r0[2] > level
    real_solve = np.linalg.solve
    raised = []

    def solve(a, b):
        if np.any(np.reshape(b, (-1, a.shape[-1]))[:, 0] > level):
            raised.append(a.shape)
            raise np.linalg.LinAlgError("singular slice")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    for j in (0, 1, 3):
        raised.clear()
        iters, reasons = _assert_matches_oracle(space, w, starts[[2, j]], FlowConfig())
        assert any(len(shape) == 3 and shape[0] > 1 for shape in raised)
        assert (iters[0], reasons[0]) == (1, "damping exhausted")
        assert iters[1] == clean[j][2][0] and reasons[1] == clean[j][3][0] == "converged"


# (manifold, L, N, weights and solve seed, restarts): the digest cases of
# test_converging_solve_keeps_its_rule, which converge at restarts 5 and 7,
# the benchmark's torus2-N16-L6, and a circle case where none of eight converges
_SCHEDULE_CASES = [
    (CIRCLE, 8.0, 19, 1, 8),
    (CIRCLE, 8.0, 19, 1, 100),
    (Manifold("ellipse", 2.0, 1.0), 3.0, 9, 0, 8),
    (Manifold("ellipse", 2.0, 1.0), 3.0, 9, 0, 100),
    (TORUS, 6.0, 16, 0, 5),
    (CIRCLE, 4.0, 9, 1, 8),
]


@pytest.mark.parametrize("manifold, band, n, seed, restarts", _SCHEDULE_CASES,
                         ids=lambda v: getattr(v, "kind", v))
def test_chunk_byte_budget_does_not_change_the_rule(monkeypatch, manifold, band, n, seed, restarts):
    """Restart 0 alone, then one stack, gives the rule of one restart per stack."""
    w = random_band_weights(n, 0.5, 2.0, seed)
    cfg = FlowConfig(seed=seed, restarts=restarts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # torus2-N16-L6 has too few nodes
        stacked = solve(manifold, "diffusion", band, w, cfg)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 1)  # one restart per stack
        single = solve(manifold, "diffusion", band, w, cfg)
    assert engine.rule_to_json(stacked) == engine.rule_to_json(single)
    for key in ("restarts_used", "newton_iters_last", "stop_reason", "stop_reasons"):
        assert stacked.stats[key] == single.stats[key]
    if not stacked.converged:
        assert stacked.stats["restarts_used"] == restarts


def test_lockstep_stack_peak_memory_is_pinned(monkeypatch):
    """Eight steps of the benchmark's 99-restart torus2-conc32-L3 stack.

    The gradients are weighted in place, a step's Jacobians are gone
    before the next step builds its own, and each damping trial gathers
    only the restarts still trying.  The traced peak above the inputs
    measured 4.44 MB (numpy 2.4); the bound adds 10% for library
    changes.  Holding a trial's gathered step operands through its
    residual raised it to 5.64 MB, and the full-size weighting
    temporaries and whole-stack steps to 7.30 MB.
    """
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 8)
    space = enumerate_basis(TORUS, 3.0)
    w = concentrated_weights(32).values
    starts = np.stack([engine._uniform_points(TORUS, 32, np.random.default_rng((0, i)))
                       for i in range(1, 100)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reasons = engine._descent(space, starts, w, FlowConfig())[3]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert reasons == ["iteration cap"] * 99
    assert peak <= 4.9e6


def test_residual_vector_stack_rows_match():
    space, w, starts = _stack_case(Manifold("sphere2"), "diffusion", 2.5, 5)
    stacked = residual_vector(space, starts, w)
    for row, start in zip(stacked, starts):
        assert np.array_equal(row, residual_vector(space, start, w))


def test_stagnating_restarts_stop_before_the_cap():
    w = random_band_weights(16, 0.5, 2.0, 0)  # the benchmark's torus2-N16-L6 at seed 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rule = solve(TORUS, "diffusion", 6.0, w, FlowConfig(restarts=5, seed=0))
    assert not rule.converged
    counts = rule.stats["stop_reasons"]
    assert counts["iteration cap"] == 0 and counts["converged"] == 0
    assert counts["stagnated"] + counts["damping exhausted"] == 5
    assert rule.stats["newton_iters_last"] < engine._MAX_NEWTON_ITERS


@pytest.mark.parametrize("manifold, band, n, seed, restarts_used, digest", [
    (CIRCLE, 8.0, 19, 1, 5,
     "4286d4a1babc4255dc7e5b8b0929b39dfc5f1b1b36c2e52e2a3f8330e989e80f"),
    (Manifold("ellipse", 2.0, 1.0), 3.0, 9, 0, 7,
     "f421592dc4fb8b35bb4ee0c676df2e2157ccf11a4615a964ca7b515e1232e74b"),
], ids=["circle-L8-N19", "ellipse2-L3-N9"])
def test_converging_solve_keeps_its_rule(manifold, band, n, seed, restarts_used, digest):
    """Restarts after the converged one in its stack are dropped; the rule is unchanged.

    The digests are of the rules the one-restart-at-a-time solver wrote,
    the ellipse one re-frozen when its arc chart moved from scipy's
    elliptic integrals to Carlson's (the nodes moved by 1.8e-13), and both
    when the curve harmonics moved from cos, sin of rounded phases k t to
    powers of e^{i t} (the nodes moved by 2.9e-11 and 3.6e-13 rad; the
    same restart converges).
    """
    w = random_band_weights(n, 0.5, 2.0, seed)
    rule = solve(manifold, "diffusion", band, w, FlowConfig(seed=seed))
    assert rule.converged and rule.stats["stop_reason"] == "converged"
    assert rule.stats["restarts_used"] == restarts_used
    assert rule.stats["stop_reasons"]["converged"] == 1
    assert hashlib.sha256(engine.rule_to_json(rule).encode()).hexdigest() == digest


_THREADS_RUN = """
import hashlib
from cubaflow import FlowConfig, Manifold, random_band_weights, rule_to_json, solve
for args, band, n, seed in ((("circle",), 8.0, 19, 1), (("ellipse", 2.0, 1.0), 3.0, 9, 0),
                            (("torus2",), 2.0, 100, 0)):
    rule = solve(Manifold(*args), "diffusion", band, random_band_weights(n, 0.5, 2.0, seed),
                 FlowConfig(seed=seed))
    print(rule.converged, hashlib.sha256(rule_to_json(rule).encode()).hexdigest())
"""


def test_converged_rules_do_not_depend_on_blas_threads():
    """Converged solves write the same rule bytes with one and two BLAS threads.

    Unconverged rules may differ: a restart that never converges follows
    its iterates for hundreds of steps, and threaded BLAS rounds their sums
    differently.
    """
    src = pathlib.Path(engine.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _THREADS_RUN], capture_output=True, text=True,
                             env=env, check=True)
        outputs.append(run.stdout.split())
    assert outputs[0][0::2] == ["True"] * 3
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# serialization and verification


def test_rule_json_roundtrip():
    rule = solve(CIRCLE, "diffusion", 2.0, np.full(8, 0.125), FlowConfig(seed=3))
    text = engine.rule_to_json(rule)
    doc = json.loads(text)
    for key in ("manifold", "space", "L", "points", "weights",
                "residual_linf", "residual_l2", "converged", "seed"):
        assert key in doc
    back = engine.rule_from_json(text)
    assert np.allclose(back.points, rule.points, atol=0.0)
    assert back.band == rule.band
    with pytest.raises(ValueError):
        engine.rule_from_json(text.replace('"schema_version": 1', '"schema_version": 9'))


def _stdlib_rule_text(rule) -> str:
    """The rule document as lists and dicts, through the stdlib writer."""
    return json.dumps({
        "schema_version": engine.SCHEMA_VERSION, "manifold": rule.manifold.descriptor(),
        "space": rule.space_kind, "L": rule.band,
        "points": [list(map(float, row)) for row in rule.points],
        "weights": [float(x) for x in rule.weights],
        "residual_linf": rule.residual_linf, "residual_l2": rule.residual_l2,
        "converged": bool(rule.converged), "seed": int(rule.seed),
    }, sort_keys=True, indent=1)


@pytest.mark.parametrize("args", [("circle",), ("ellipse", 2.0, 1.0), ("torus2",), ("sphere2",)],
                         ids=["circle", "ellipse", "torus2", "sphere2"])
def test_rule_json_is_the_stdlib_text(args):
    """The row-template writer gives the stdlib's bytes on curve, torus and
    sphere rules: a solved rule, its nodes with NaN, infinities and -0.0,
    and a rule of no nodes."""
    manifold = Manifold(*args)
    rule = solve(manifold, "diffusion", 1.5, random_band_weights(6, 0.5, 2.0, 1), FlowConfig(seed=1))
    odd = rule.points.copy()
    odd.flat[:4] = (math.nan, math.inf, -math.inf, -0.0)
    empty = dataclasses.replace(rule, points=np.empty((0, manifold.dim)), weights=np.empty(0))
    for r in (rule, dataclasses.replace(rule, points=odd), empty):
        assert engine.rule_to_json(r) == _stdlib_rule_text(r)


def test_rule_csv_shape():
    rule = solve(CIRCLE, "diffusion", 2.0, np.full(8, 0.125), FlowConfig(seed=3))
    lines = engine.rule_to_csv(rule).splitlines()
    assert lines[0] == "x0,x1,weight"
    assert len(lines) == 9


def test_verify_rule_passes_and_detects_corruption():
    rule = solve(CIRCLE, "diffusion", 3.0, np.full(10, 0.1), FlowConfig(tol=1e-10, seed=4))
    rep = verify_rule(rule, 1e-9)
    assert rep.passed
    assert rep.stored_consistent
    assert rep.weight_sum_error <= 1e-12
    shifted = rule.points.copy()
    shifted[0] += 1e-3  # a single node off its orbit, not a rigid rotation
    bad = engine.CubatureRule(
        manifold=rule.manifold, space_kind=rule.space_kind, band=rule.band,
        points=shifted, weights=rule.weights, residual=rule.residual,
        residual_linf=rule.residual_linf, residual_l2=rule.residual_l2,
        converged=True, seed=rule.seed,
    )
    rep_bad = verify_rule(bad, 1e-9)
    assert not rep_bad.passed
    assert rep_bad.residual_linf > 1e-5
    # zero, halved and negated weights with matching residuals: the band has
    # no constant, so only the weights' sum shows them
    for scale in (0.0, 0.5, -1.0):
        w = scale * rule.weights
        r = residual_vector(enumerate_basis(CIRCLE, rule.band), rule.points, w)
        linf, l2 = engine.residual_norms(r)
        off = dataclasses.replace(rule, weights=w, residual=r, residual_linf=linf, residual_l2=l2)
        rep_off = verify_rule(off, 1e-9)
        assert rep_off.stored_consistent and rep_off.residual_linf <= 1e-9 and not rep_off.passed
        assert rep_off.weight_sum_error == abs(math.fsum(w) - 1.0)


def test_lower_band_exactness_inherited():
    rule = solve(CIRCLE, "diffusion", 6.0, np.full(20, 0.05), FlowConfig(tol=1e-11, seed=5))
    assert rule.converged
    sp3 = enumerate_basis(CIRCLE, 3.0)
    r = residual_vector(sp3, rule.points, rule.weights)
    assert np.max(np.abs(r)) < 1e-11


# ---------------------------------------------------------------------------
# sampling ratio diagnostics


def test_mz_two_arc_anchor():
    """Midpoint sampling of |d/dt sqrt2 cos| on two half arcs: pi/2 - 1."""
    sp = enumerate_basis(CIRCLE, 1.0)
    part = weighted_partition(CIRCLE, np.array([0.5, 0.5]))
    c = np.zeros(sp.dim)
    c[sp.labels.index((1, "cos"))] = 1.0
    ratio = mz_ratio_diffusion(sp, part, part.representatives(), c)
    assert ratio == pytest.approx(math.pi / 2.0 - 1.0, abs=2e-3)


def test_mz_finer_partition_smaller_ratio():
    sp = enumerate_basis(CIRCLE, 1.0)
    c = np.zeros(sp.dim); c[0] = 1.0
    part8 = weighted_partition(CIRCLE, np.full(8, 0.125))
    ratio8 = mz_ratio_diffusion(sp, part8, part8.representatives(), c)
    assert ratio8 < 0.03


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=20)
def test_mz_scale_invariant(scale):
    sp = enumerate_basis(CIRCLE, 1.0)
    part = weighted_partition(CIRCLE, np.full(4, 0.25))
    c = np.array([0.3, -1.1])
    base = mz_ratio_diffusion(sp, part, part.representatives(), c)
    scaled = mz_ratio_diffusion(sp, part, part.representatives(), scale * c)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_mz_algebraic_value_oracle():
    spa = build_restricted_space(CIRCLE, 1)
    part = weighted_partition(CIRCLE, np.full(3, 1.0 / 3.0))
    reps = part.representatives()
    grid = np.linspace(0, 2 * math.pi, 733)[:, None]
    coef, *_ = np.linalg.lstsq(spa.evaluate(grid), np.cos(grid.ravel()), rcond=None)
    ratio = mz_ratio_algebraic(spa, part, reps, coef, mode="value")
    sampled = float(np.mean(np.abs(np.cos(reps.ravel()))))
    oracle = abs(2.0 / math.pi - sampled) / (2.0 / math.pi)
    assert ratio == pytest.approx(oracle, abs=2e-3)


def test_mz_input_validation():
    sp = enumerate_basis(CIRCLE, 1.0)
    part = weighted_partition(CIRCLE, np.full(4, 0.25))
    with pytest.raises(ValueError):
        mz_ratio_diffusion(sp, part, np.zeros((3, 1)), np.ones(sp.dim))
    spa = build_restricted_space(CIRCLE, 2)
    with pytest.raises(ValueError):
        mz_ratio_algebraic(spa, part, part.representatives(), np.ones(spa.dim), mode="other")
    with pytest.raises(ValueError):
        mz_ratio_algebraic(sp, part, part.representatives(), np.ones(sp.dim))
    # a space on another manifold: the ellipse's arity matches, the torus's does not
    circle16 = weighted_partition(CIRCLE, np.full(16, 1 / 16))
    for other in (Manifold("ellipse", 2.0, 1.0), TORUS):
        space = enumerate_basis(other, 4.0)
        with pytest.raises(ValueError, match=f"'kind': 'circle'.*'kind': '{other.kind}'"):
            mz_ratio_diffusion(space, circle16, None, np.ones(space.dim))
    torus16 = weighted_partition(TORUS, np.full(16, 1 / 16))
    for space, part16 in ((sp, circle16), (enumerate_basis(TORUS, 2.0), torus16)):
        wrong = np.zeros((16, 3 - space.manifold.dim))
        with pytest.raises(ValueError, match=r"chart column\(s\), got shape \(16, "):
            mz_ratios(space, part16, wrong, np.ones(space.dim), "gradient")


def _mz_case(manifold, kind):
    if kind == "diffusion":
        sp = enumerate_basis(manifold, 2.0 if manifold.kind == "sphere2" else 4.0)
    else:
        sp = build_restricted_space(manifold, 2 if manifold.kind == "sphere2" else 4)
    part = weighted_partition(manifold, random_band_weights(24, 0.5, 2.0, 3))
    coeffs = np.random.default_rng(5).standard_normal((25, sp.dim))
    return sp, part, part.representatives(), coeffs


def _mz_one_row(sp, part, reps, c, mode):
    if sp.kind == "diffusion":
        return mz_ratio_diffusion(sp, part, reps, c)
    return mz_ratio_algebraic(sp, part, reps, c, mode)


@pytest.mark.parametrize("manifold", [CIRCLE, Manifold("sphere2")], ids=lambda m: m.kind)
@pytest.mark.parametrize(
    "kind, mode",
    [("diffusion", "gradient"), ("algebraic", "value"), ("algebraic", "gradient")],
)
def test_mz_batch_matches_one_row(manifold, kind, mode):
    sp, part, reps, coeffs = _mz_case(manifold, kind)
    one = np.array([_mz_one_row(sp, part, reps, c, mode) for c in coeffs])
    batch = mz_ratios(sp, part, reps, coeffs, mode)
    assert batch.shape == (len(coeffs),)
    assert batch.tolist() == one.tolist()
    single = mz_ratios(sp, part, reps, coeffs[0], mode)
    assert isinstance(single, float)
    assert single == one[0]


def test_mz_ratios_keep_their_checks():
    spd, part, reps, _ = _mz_case(CIRCLE, "diffusion")
    sp, _, _, coeffs = _mz_case(CIRCLE, "algebraic")
    nan_row = coeffs.copy()
    nan_row[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        mz_ratios(sp, part, reps, nan_row, "value")
    with pytest.raises(ValueError, match="non-finite"):
        mz_ratio_algebraic(sp, part, reps, nan_row[3], "gradient")
    zero_row = coeffs.copy()
    zero_row[7] = 0.0
    with pytest.raises(ValueError, match="integrand vanishes"):
        mz_ratios(sp, part, reps, zero_row, "gradient")
    with pytest.raises(ValueError, match="integrand vanishes"):
        mz_ratio_diffusion(spd, part, reps, np.zeros(spd.dim))
    for bad in (coeffs[:, :-1], coeffs[:, None, :], np.zeros((4, sp.dim + 1))):
        with pytest.raises(ValueError, match="coefficient count"):
            mz_ratios(sp, part, reps, bad, "value")
    with pytest.raises(ValueError, match="one coefficient vector per call"):
        mz_ratio_algebraic(sp, part, reps, coeffs, "value")
    with pytest.raises(ValueError, match="coefficient count"):
        mz_ratio_diffusion(spd, part, reps, np.ones((2, spd.dim)))
    with pytest.raises(ValueError, match="one sample point per region"):
        mz_ratios(sp, part, reps[:-1], coeffs, "value")
    with pytest.raises(ValueError, match="mode"):
        mz_ratios(sp, part, reps, coeffs, "other")


def _mz_uncached(sp, part, reps, c, mode):
    """One-row ratio from fields evaluated afresh, bypassing both caches."""
    grid = reference_grid(sp.manifold, engine._ABS_BAND_FACTOR * (sp.band + 4.0))
    w = np.asarray(part.weights, dtype=float)
    row = c[None, :]

    def weighted(weights, charts):
        vals = engine._mz_abs(engine._mz_field(sp, charts, mode), row, mode, len(weights))
        return engine._mz_sum(weights, vals)[0]

    integral = weighted(grid.qweights, grid.charts)
    return float(abs(integral - weighted(w, reps)) / integral)


@pytest.mark.parametrize("manifold", [CIRCLE, Manifold("sphere2")], ids=lambda m: m.kind)
@pytest.mark.parametrize(
    "kind, mode",
    [("diffusion", "gradient"), ("algebraic", "value"), ("algebraic", "gradient")],
)
def test_mz_cached_fields_match_uncached_oracle(manifold, kind, mode):
    sp, part, reps, coeffs = _mz_case(manifold, kind)
    for c in coeffs:
        assert _mz_one_row(sp, part, reps, c, mode) == _mz_uncached(sp, part, reps, c, mode)


def test_mz_samples_changed_in_place_get_a_fresh_field():
    sp, part, reps, coeffs = _mz_case(CIRCLE, "diffusion")
    reps = reps.copy()
    before = mz_ratio_diffusion(sp, part, reps, coeffs[0])
    reps += 0.1
    after = mz_ratio_diffusion(sp, part, reps, coeffs[0])
    assert after != before
    assert after == _mz_uncached(sp, part, reps, coeffs[0], "gradient")


def test_mz_spaces_and_modes_interleave():
    """Equal-dimension spaces and both modes on one point set keep apart."""
    spd = enumerate_basis(CIRCLE, 4.0)
    spa = build_restricted_space(CIRCLE, 4)
    assert spd.dim == spa.dim
    _, part, reps, _ = _mz_case(CIRCLE, "diffusion")
    coeffs = np.random.default_rng(8).standard_normal((3, spd.dim))
    for c in coeffs:
        for sp, mode in ((spd, "gradient"), (spa, "value"), (spa, "gradient"), (spd, "gradient")):
            got = mz_ratios(sp, part, reps, c, mode)
            assert got == _mz_uncached(sp, part, reps, c, mode)


def test_mz_cached_fields_are_read_only():
    sp, part, reps, coeffs = _mz_case(CIRCLE, "algebraic")
    mz_ratios(sp, part, reps, coeffs, "value")
    field = engine._mz_samples(sp, "value", reps.shape, reps.tobytes())
    grid_field = engine._mz_grid(sp, "value")[1]
    for f in (field, grid_field):
        assert not f.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f[0, 0] = 1.0


def test_mz_interleaved_partitions_match_each_alone():
    sp = enumerate_basis(CIRCLE, 4.0)
    parts = [weighted_partition(CIRCLE, random_band_weights(n, 0.5, 2.0, s)) for n, s in ((24, 1), (24, 2), (40, 3))]
    coeffs = np.random.default_rng(9).standard_normal((6, sp.dim))
    alone = [[mz_ratio_diffusion(sp, p, p.representatives(), c) for c in coeffs] for p in parts]
    mixed = [[] for _ in parts]
    for c in coeffs:
        for p, out in zip(parts, mixed):
            out.append(mz_ratio_diffusion(sp, p, p.representatives(), c))
    assert mixed == alone


def _cold_memo(sp, mode):
    """The empty integral memo of a fresh (sp, mode) slot: another key
    evicts the slot, so earlier tests leave no rows behind."""
    engine._mz_grid(sp, "value" if mode == "gradient" else "gradient")
    memo = engine._mz_grid(sp, mode)[2]
    assert memo == {}
    return memo


def test_mz_block_memory_is_bounded_per_chunk():
    """A 200-row block on a grid whose values exceed the chunk cap holds one
    chunk at a time, and its ratios equal the one-row ratios bit for bit."""
    sp = enumerate_basis(TORUS, 2.0)
    part = weighted_partition(TORUS, random_band_weights(24, 0.5, 2.0, 4))
    reps = part.representatives()
    coeffs = np.random.default_rng(10).standard_normal((200, sp.dim))
    one = [mz_ratio_diffusion(sp, part, reps, c) for c in coeffs]  # fills both caches
    _cold_memo(sp, "gradient")  # so that the block contracts every row on the grid
    rows = engine._mz_grid(sp, "gradient")[1].shape[0]
    block_bytes = len(coeffs) * rows * 8
    assert block_bytes > 3 * engine._BLOCK_BYTES
    tracemalloc.start()
    try:
        block = mz_ratios(sp, part, reps, coeffs, "gradient")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * engine._BLOCK_BYTES
    assert block.tolist() == one


def test_mz_empty_block_gives_empty_ratios():
    part = weighted_partition(CIRCLE, np.full(16, 1 / 16))
    for sp, mode in ((enumerate_basis(CIRCLE, 4.0), "gradient"), (build_restricted_space(CIRCLE, 4), "value")):
        ratios = mz_ratios(sp, part, None, np.zeros((0, sp.dim)), mode)
        assert ratios.shape == (0,) and ratios.dtype == np.float64


@pytest.mark.parametrize("manifold", [CIRCLE, Manifold("sphere2")], ids=lambda m: m.kind)
@pytest.mark.parametrize(
    "kind, mode",
    [("diffusion", "gradient"), ("algebraic", "value"), ("algebraic", "gradient")],
)
@pytest.mark.parametrize("block_first", [True, False], ids=["block-first", "one-row-first"])
def test_mz_memo_matches_uncached_oracle(manifold, kind, mode, block_first):
    sp, part, reps, coeffs = _mz_case(manifold, kind)
    oracle = [_mz_uncached(sp, part, reps, c, mode) for c in coeffs]
    memo = _cold_memo(sp, mode)
    if block_first:
        first = mz_ratios(sp, part, reps, coeffs, mode).tolist()
        second = [_mz_one_row(sp, part, reps, c, mode) for c in coeffs]
    else:
        first = [_mz_one_row(sp, part, reps, c, mode) for c in coeffs]
        second = mz_ratios(sp, part, reps, coeffs, mode).tolist()
    assert first == oracle and second == oracle
    assert set(memo) == {c.tobytes() for c in coeffs}


def test_mz_memo_misses_a_row_changed_in_place():
    sp, part, reps, coeffs = _mz_case(CIRCLE, "diffusion")
    _cold_memo(sp, "gradient")
    coeffs = coeffs.copy()
    mz_ratios(sp, part, reps, coeffs, "gradient")
    coeffs[0] += 0.5  # the ratio is scale invariant, so shift, not scale
    got = mz_ratios(sp, part, reps, coeffs, "gradient")
    assert got[0] == _mz_uncached(sp, part, reps, coeffs[0], "gradient")
    assert got[1:].tolist() == [_mz_uncached(sp, part, reps, c, "gradient") for c in coeffs[1:]]


def test_mz_memo_stores_nothing_from_a_non_finite_block():
    sp, part, reps, coeffs = _mz_case(CIRCLE, "algebraic")
    memo = _cold_memo(sp, "value")
    bad = coeffs.copy()
    bad[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        mz_ratios(sp, part, reps, bad, "value")
    assert memo == {}
    finite = np.delete(bad, 3, axis=0)
    got = mz_ratios(sp, part, reps, finite, "value")
    assert got.tolist() == [_mz_uncached(sp, part, reps, c, "value") for c in finite]


def test_mz_memo_holds_at_most_its_cap(monkeypatch):
    sp, part, reps, coeffs = _mz_case(Manifold("sphere2"), "diffusion")
    monkeypatch.setattr(engine, "_MZ_MEMO_ROWS", 8)
    memo = _cold_memo(sp, "gradient")
    oracle = [_mz_uncached(sp, part, reps, c, "gradient") for c in coeffs]
    assert len(coeffs) > 8
    for _ in range(2):
        assert mz_ratios(sp, part, reps, coeffs, "gradient").tolist() == oracle
        assert len(memo) == 8
    # once full, the memo keeps what it holds and one-row calls still answer
    assert [mz_ratio_diffusion(sp, part, reps, c) for c in coeffs[::-1]] == oracle[::-1]
    assert set(memo) == {c.tobytes() for c in coeffs[:8]}
