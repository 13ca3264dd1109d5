"""End-to-end acceptance checks: analytic anchors and measured gates.

Each test prints exactly one [PASS]/[FAIL] line naming the property it
gates, then asserts.  Values with no closed form were frozen from
independent oracles kept next to the assertions.
"""

import math
import time

import numpy as np
import scipy.integrate

from cubaflow.algebraic import build_restricted_space, restriction_fit_residual
from cubaflow.engine import (
    FlowConfig,
    flow_run,
    mz_ratios,
    residual_vector,
    smooth_cutoff,
    solve,
)
from cubaflow.geometry import Manifold, circumference, reference_integrate
from cubaflow.partition import verify_partition, weighted_partition
from cubaflow.spectra import enumerate_basis
from cubaflow.weights import (
    block_aggregate,
    concentrated_weights,
    random_band_weights,
)

CIRCLE = Manifold("circle")
TORUS = Manifold("torus2")
SPHERE = Manifold("sphere2")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_solver_reaches_tolerance_on_model_manifolds():
    """Prescribed band weights admit node sets at machine-level residual."""
    configs = [
        ("circle", CIRCLE, "diffusion", 8.0, 128, 1e-9, 10.0),
        ("torus2", TORUS, "diffusion", 4.0, 512, 1e-8, 60.0),
        ("sphere2", SPHERE, "diffusion", 3.0, 256, 1e-8, 120.0),
        ("circle-algebraic", CIRCLE, "algebraic", 8, 128, 1e-9, None),
    ]
    ok = True
    parts = []
    for tag, manifold, space_kind, L, n, tol, limit in configs:
        w = random_band_weights(n, 0.5, 2.0, 42)
        t0 = time.perf_counter()
        rule = solve(manifold, space_kind, L, w, FlowConfig(seed=0))
        dt = time.perf_counter() - t0
        good = rule.converged and rule.residual_linf <= tol
        if limit is not None:
            good = good and dt < limit
        ok = ok and good
        parts.append(f"{tag} {rule.residual_linf:.1e}/{dt:.1f}s")
    _report("solver tolerance on model manifolds", ok, "; ".join(parts))


def test_three_point_half_mass_family():
    """Half mass at one node forces the other two to the antipode."""
    rule = solve(CIRCLE, "diffusion", 1.0, np.array([0.5, 0.25, 0.25]),
                 FlowConfig(tol=1e-12, seed=0))
    offsets = []
    t1 = rule.points[0, 0]
    for t in rule.points[1:, 0]:
        gap = (t - t1 - math.pi) % (2.0 * math.pi)
        offsets.append(min(gap, 2.0 * math.pi - gap))
    ok = rule.converged and rule.residual_linf <= 1e-12 and max(offsets) <= 1e-6
    _report(
        "three-point antipodal family",
        ok,
        f"residual {rule.residual_linf:.1e}, antipode offsets {max(offsets):.2e}",
    )


def test_concentrated_weights_hit_analytic_floor():
    """One weight above half total mass blocks even first-mode exactness."""
    w = concentrated_weights(16)
    floor = 2.0 * w.values[0] - 1.0  # first-mode residual lower bound
    rule = solve(CIRCLE, "diffusion", 4.0, w,
                 FlowConfig(restarts=100, seed=0))
    ok = (not rule.converged) and rule.residual_linf >= floor - 1e-9
    _report(
        "concentrated-weight obstruction floor",
        ok,
        f"best residual {rule.residual_linf:.4f} >= floor {floor:.4f}, "
        f"converged={rule.converged}",
    )


def test_underdetermined_node_count_floor():
    """Too few nodes for the space dimension leaves a macroscopic residual."""
    w8 = random_band_weights(8, 0.5, 2.0, 42)
    rule8 = solve(CIRCLE, "diffusion", 8.0, w8,
                  FlowConfig(restarts=50, seed=0))
    part_a = (not rule8.converged) and rule8.residual_linf >= 1e-3

    # two nodes, cutoff 2: scan every node pair on a dense grid so the
    # solver's floor is certified against an exhaustive oracle
    w2 = random_band_weights(2, 0.5, 2.0, 42)
    sp = enumerate_basis(CIRCLE, 2.0)
    thetas = np.linspace(0.0, 2.0 * math.pi, 721, endpoint=False)
    E = sp.evaluate(thetas[:, None])
    res = np.abs(w2.values[0] * E[:, None, :] + w2.values[1] * E[None, :, :])
    grid_floor = float(res.max(axis=2).min())
    rule2 = solve(CIRCLE, "diffusion", 2.0, w2,
                  FlowConfig(restarts=100, seed=0))
    part_b = (
        grid_floor >= 1e-3
        and rule2.residual_linf >= grid_floor - 2e-3
        and rule2.residual_linf <= 1.25 * grid_floor
    )
    ok = part_a and part_b
    _report(
        "infeasible node-count floor",
        ok,
        f"n=8 best {rule8.residual_linf:.4f}; n=2 grid {grid_floor:.6f} "
        f"vs solver {rule2.residual_linf:.6f}",
    )


def test_partition_measures_and_radius_scaling():
    """Region measures match weights; radii scale like n^(-1/2) on the torus."""
    w = random_band_weights(100, 0.5, 2.0, 7)
    part = weighted_partition(TORUS, w)
    report = verify_partition(part)
    base_ok = report.passed and report.max_measure_error <= 1e-10

    c3s, c4s, rmax, ns = [], [], [], [64, 256, 1024]
    for n in ns:
        p = weighted_partition(TORUS, random_band_weights(n, 0.5, 2.0, 42))
        c3s.append(p.c3)
        c4s.append(p.c4)
        rmax.append(max(r.outer_radius for r in p.regions))
    c3s, c4s = np.array(c3s), np.array(c4s)
    spread3 = float((c3s.max() - c3s.min()) / c3s.mean())
    spread4 = float((c4s.max() - c4s.min()) / c4s.mean())
    slope = float(np.polyfit(np.log(ns), np.log(rmax), 1)[0])
    stable_ok = (
        np.all(c3s > 0.0)
        and np.all(np.isfinite(c4s))
        and spread3 <= 0.10
        and spread4 <= 0.10
        and -0.575 <= slope <= -0.425
    )
    _report(
        "partition measures and radius scaling",
        base_ok and stable_ok,
        f"measure err {report.max_measure_error:.1e}, c3 spread {spread3:.3f}, "
        f"c4 spread {spread4:.3f}, radius slope {slope:.3f}",
    )


def test_sampling_ratio_threshold_sweep():
    """Fraction of unit members with sample ratio > 1/2 dies off in n."""
    sweep_ns = [8 * 2**k for k in range(10)]  # 8 .. 4096

    def sweep(space, mode):
        rng = np.random.default_rng(606)
        coeffs = rng.standard_normal((200, space.dim))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        fracs, n_star = [], None
        for n in sweep_ns:
            w = random_band_weights(n, 0.5, 2.0, 1000 + n)
            part = weighted_partition(CIRCLE, w)
            ratios = mz_ratios(space, part, part.representatives(), coeffs, mode)
            fracs.append(float(np.mean(ratios > 0.5)))
            if n_star is None and fracs[-1] == 0.0:
                n_star = n
        mono = all(b <= a + 1e-12 for a, b in zip(fracs, fracs[1:]))
        return fracs, n_star, mono

    spd = enumerate_basis(CIRCLE, 8.0)
    spa = build_restricted_space(CIRCLE, 8)
    results = {
        "gradient-sample": sweep(spd, "gradient"),
        "algebraic-value": sweep(spa, "value"),
        "algebraic-gradient": sweep(spa, "gradient"),
    }
    ok = all(mono and n_star is not None and n_star <= 4096
             for _, n_star, mono in results.values())
    detail = ", ".join(
        f"{k}: N*={n_star} start {fr[0]:.3f}"
        for k, (fr, n_star, _) in results.items()
    )
    _report("sampling ratio threshold sweep", ok, detail)


def test_flow_is_monotone_and_integrator_converged():
    """Sampled functional never drops along the flow; halving drift is tiny."""
    sp = enumerate_basis(TORUS, 3.0)
    rng = np.random.default_rng(77)
    worst_dip, worst_drift = 0.0, 0.0
    for _ in range(50):
        c = rng.standard_normal(sp.dim)
        c /= np.linalg.norm(c)
        seeds = rng.uniform(0.0, 2.0 * math.pi, (6, 2))
        r1 = flow_run(sp, c, seeds, 0.5, eps=2.0, steps_per_unit=384)
        r2 = flow_run(sp, c, seeds, 0.5, eps=2.0, steps_per_unit=768)
        dips = np.diff(r1.functional)
        worst_dip = max(worst_dip, float(max(0.0, -dips.min())))
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(r1.endpoints - r2.endpoints))))
    ok = worst_dip <= 1e-9 and worst_drift <= 1e-8
    _report(
        "flow monotonicity and step-halving drift",
        ok,
        f"max dip {worst_dip:.2e}, max endpoint drift {worst_drift:.2e}",
    )


def test_kernel_reproduces_point_values():
    """Integrating the localized kernel against a band member returns its value."""
    worst = 0.0
    rng = np.random.default_rng(8)
    for manifold, L in [(CIRCLE, 8.0), (TORUS, 4.0)]:
        sp = enumerate_basis(manifold, L)
        sp2 = enumerate_basis(manifold, 2.0 * L)
        h = smooth_cutoff(sp2.freqs / L)
        lo = np.zeros(manifold.dim)
        hi = np.full(manifold.dim, 2.0 * math.pi)
        for _ in range(50):
            x = rng.uniform(lo, hi)
            c = rng.standard_normal(sp.dim)
            vx = sp2.evaluate(x[None, :])[0]
            f = lambda ch: ((sp2.evaluate(ch) * h) @ vx) * (sp.evaluate(ch) @ c)
            ip = reference_integrate(manifold, f, 4.0 * L)
            val = float((sp.evaluate(x[None, :]) @ c)[0])
            worst = max(worst, abs(ip - val))
    ok = worst <= 1e-8
    _report("kernel point-value reproduction", ok, f"max error {worst:.2e}")


def _ellipse_mode_fit_oracle(a: float, b: float, max_deg: int) -> np.ndarray:
    """Relative L2(ds) fit residuals of cos(2 pi s/l) by trig polynomials in t.

    On (a cos t, b sin t), ambient polynomials of degree <= m restrict to
    exactly the trigonometric polynomials of degree <= m in t, so the fit
    is a speed-weighted least-squares problem on cos jt, sin jt (j <= m).
    Arc length comes from the FFT antiderivative of the speed; the uniform
    periodic grid integrates the analytic integrands spectrally.
    """
    n = 4096
    t = 2.0 * math.pi * np.arange(n) / n
    speed = np.hypot(a * np.sin(t), b * np.cos(t))
    coef = np.fft.rfft(speed)
    mean = coef[0].real / n
    anti = np.zeros_like(coef)
    anti[1:] = coef[1:] / (1j * np.arange(1, len(coef)))
    periodic = np.fft.irfft(anti, n)
    s = mean * t + periodic - periodic[0]
    vals = np.cos(s / mean)  # 2 pi s / l with l = 2 pi * mean
    sw = np.sqrt(speed)
    norm = np.linalg.norm(sw * vals)
    out = np.empty(max_deg)
    for m in range(1, max_deg + 1):
        j = np.arange(1, m + 1)
        design = np.hstack([np.ones((n, 1)), np.cos(np.outer(t, j)), np.sin(np.outer(t, j))])
        c, *_ = np.linalg.lstsq(sw[:, None] * design, sw * vals, rcond=None)
        out[m - 1] = np.linalg.norm(sw * (vals - design @ c)) / norm
    return out


def test_ellipse_first_mode_resists_polynomial_fit():
    """The first arc-length mode on the 2:1 ellipse is not a restricted polynomial.

    Its fit residual is nonzero at every degree 1..12 but shrinks
    geometrically: the mode is analytic and periodic in the angle t, and
    restricted polynomials of degree <= m are the trig polynomials of
    degree <= m in t.  A uniform 1e-2 floor through degree 12 is
    therefore false (the curve reaches about 5.7e-7).  The check asserts
    agreement with an independent trig-fit oracle to a relative 1e-6,
    every residual above the sqrt(eps) level 1e-8 where an exact fit would
    bottom out, and strictly decreasing odd-degree residuals.
    """
    m = Manifold("ellipse", 2.0, 1.0)
    sp = enumerate_basis(m, 1.0)
    idx = sp.labels.index((1, "cos"))
    f1 = lambda ch: sp.evaluate(ch)[:, idx]
    residuals = restriction_fit_residual(m, f1, 12)
    oracle = _ellipse_mode_fit_oracle(2.0, 1.0, 12)
    disagreement = float(np.max(np.abs(residuals - oracle) / oracle))
    odd = residuals[::2]
    curve = ", ".join(f"deg{d}={r:.3e}" for d, r in enumerate(residuals, 1))
    ok = (
        disagreement <= 1e-6
        and bool(np.all(residuals >= 1e-8))
        and bool(np.all(np.diff(odd) < 0.0))
    )
    _report(
        "first mode on the 2:1 ellipse resists polynomial fit",
        ok,
        f"{curve}; worst oracle disagreement {disagreement:.1e}",
    )


def test_equal_axes_modes_are_polynomial():
    """With equal axes, mode k is an ambient polynomial of degree exactly k."""
    m = Manifold("ellipse", 1.0, 1.0)
    sp = enumerate_basis(m, 3.2)
    worst = 0.0
    for k in (1, 2, 3):
        idx = sp.labels.index((k, "cos"))
        fk = lambda ch: sp.evaluate(ch)[:, idx]
        worst = max(worst, restriction_fit_residual(m, fk, k)[-1])
    ok = worst <= 1e-10
    _report("equal-axes cosine modes fit exactly", ok, f"max residual {worst:.2e}")


def test_ellipse_arc_length_matches_quadrature():
    """Closed-form circumference against adaptive quadrature of the speed."""
    ell = circumference(2.0, 1.0)
    speed = lambda t: math.hypot(2.0 * math.sin(t), math.cos(t))
    oracle, err = scipy.integrate.quad(speed, 0.0, 2.0 * math.pi, epsabs=1e-12)
    ok = abs(ell - oracle) <= 1e-6 and abs(ell - 9.688448220547675) <= 1e-12
    _report(
        "2:1 ellipse arc length",
        ok,
        f"closed form {ell:.12f} vs quadrature {oracle:.12f} (quad err {err:.1e})",
    )


def test_block_aggregation_bounds_and_expansion():
    """Sorted-run blocks stay in the target band; repetition keeps residuals."""
    rng = np.random.default_rng(10)
    bounds_ok = True
    min_ratio = math.inf
    for i in range(1000):
        n = int(rng.integers(8, 257))
        lo = float(rng.uniform(0.05, 1.0))
        w = random_band_weights(n, lo, 4.0, 2000 + i)
        agg = block_aggregate(w.values)
        s = agg.block_sums
        bounds_ok = bounds_ok and bool(
            np.all(s >= 1.0 / n - 1e-12) and np.all(s <= 5.0 / n + 1e-12)
        )
        bounds_ok = bounds_ok and agg.m >= n / 5.0 - 1e-12
        min_ratio = min(min_ratio, agg.m / (n / 5.0))

    w = random_band_weights(48, 0.5, 4.0, 9)
    agg = block_aggregate(w.values)
    rule = solve(CIRCLE, "diffusion", 2.0, agg.block_sums,
                 FlowConfig(tol=1e-12, seed=0))
    sp = enumerate_basis(CIRCLE, 2.0)
    expanded = residual_vector(sp, rule.points[agg.block_of], w.values)
    gap = float(np.max(np.abs(expanded - rule.residual)))
    ok = bounds_ok and rule.converged and gap <= 1e-14
    _report(
        "block aggregation bounds and expansion",
        ok,
        f"10^3 vectors in band, min m/(n/5) {min_ratio:.2f}, "
        f"expansion residual gap {gap:.1e}",
    )
