"""Benchmark workloads: the operations of one pass, their inputs and checks.

Every operation mirrors a ``cubaflow`` subcommand (``solve``, ``partition``,
``mz``) and calls the library through its module attributes, so that the
tracer's patched names are the ones called.  ``build`` generates every input
from the workload seed; the library sees only the generated inputs.

Sizes are scaled down from the paper-scale acceptance configurations so that
one pass fits several times into a benchmark run.  The flow horizon grows as
N shrinks, so the smallest cases are not the cheapest ones.  On the sphere a
hybrid solve (a flow of over 3000 RK4 steps) and a tree-branch partition (the
level-9 cell tree) each take longer than a whole pass may, so the sphere
enters through a direct-branch partition and a descent-mode solve.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cubaflow import algebraic, engine, geometry, partition, spectra, weights

# (case name, manifold args, space kind, band L, node count N)
SOLVE_CASES = (
    ("circle-diffusion-L8-N128", ("circle",), "diffusion", 8.0, 128),
    ("ellipse2-diffusion-L4-N256", ("ellipse", 2.0, 1.0), "diffusion", 4.0, 256),
    ("torus2-diffusion-L2-N100", ("torus2",), "diffusion", 2.0, 100),
    ("circle-algebraic-deg6-N128", ("circle",), "algebraic", 6.0, 128),
)
SOLVE_TOL = 1e-8

# (case name, manifold args, N); the torus pair exposes scaling in N, and
# sphere N16 stays clear of the tree-branch threshold near N28
PARTITION_CASES = (
    ("torus2-N128", ("torus2",), 128),
    ("torus2-N256", ("torus2",), 256),
    ("circle-N1024", ("circle",), 1024),
    ("ellipse3-N128", ("ellipse", 3.0, 1.0), 128),
    ("sphere2-N16", ("sphere2",), 16),
)
PARTITION_SEED_SHIFT = 7
MEASURE_TOL = 1e-10

# the `cubaflow mz` sweep on the circle at L8, one operation per (variant, N)
MZ_VARIANTS = ("diffusion", "algebraic-value", "algebraic-gradient")
MZ_BAND = 8.0
MZ_TRIALS = 200
MZ_NS = tuple(8 * 2**k for k in range(8))  # 8 .. 1024
MZ_LIMIT = 0.5

# (case name, manifold, L, weight source, N, restarts): ill-posed inputs that
# must stay unconverged above the acceptance tests' floors.  On the circle,
# torus and sphere the lowest modes, rescaled, send each point to a unit
# vector, so one weight w0 > 1/2 keeps the residual's max norm >= 2 w0 - 1.
# The cost of a too-few-nodes case depends on its random weights (how long
# each descent takes to stall), so the torus one runs few restarts.
RESTART_CASES = (
    ("circle-conc16-L4", "circle", 4.0, "concentrated", 16, 100),
    ("circle-N8-L8", "circle", 8.0, "band", 8, 50),
    ("torus2-conc32-L3", "torus2", 3.0, "concentrated", 32, 100),
    ("torus2-N16-L6", "torus2", 6.0, "band", 16, 5),
    ("sphere2-conc16-L1.5", "sphere2", 1.5, "concentrated", 16, 30),
)
TOO_FEW_NODES_FLOOR = 1e-3
FLOOR_SLACK = 1e-9


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` returns (passed, reason, output fingerprint)."""

    name: str
    run: Callable[[], tuple[bool, str, str]]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _band(n: int, seed: int):
    return weights.random_band_weights(n, 0.5, 2.0, seed)


def _solve_op(name, manifold, kind, band, w, seed) -> Op:
    def run():
        rule = engine.solve(manifold, kind, band, w, engine.FlowConfig(seed=seed))
        text = engine.rule_to_json(rule)
        report = engine.verify_rule(rule, SOLVE_TOL)
        ok = rule.converged and rule.residual_linf <= SOLVE_TOL and report.passed
        reason = "" if ok else (
            f"converged={rule.converged} residual_linf={rule.residual_linf:.3e} "
            f"verify_passed={report.passed}"
        )
        return ok, reason, _sha(text)

    return Op(name, run)


def _partition_op(name, manifold, w) -> Op:
    def run():
        part = partition.weighted_partition(manifold, w)
        report = partition.verify_partition(part)
        text = partition.partition_to_json(part)
        ok = report.passed and report.max_measure_error <= MEASURE_TOL
        reason = "" if ok else (
            f"passed={report.passed} max_measure_error="
            f"{report.max_measure_error:.3e} notes={list(report.notes)}"
        )
        return ok, reason, _sha(text)

    return Op(name, run)


def _mz_ops(variant: str, seed: int, band_weights: dict) -> list[Op]:
    circle = geometry.Manifold("circle")
    state: dict = {"fracs": []}

    def setup_space():
        # as in the CLI: the space and the unit coefficient vectors are built
        # once per sweep, inside the first step
        if variant == "diffusion":
            space = spectra.enumerate_basis(circle, MZ_BAND)
            state["ratio"] = lambda part, reps, c: engine.mz_ratio_diffusion(
                space, part, reps, c)
        else:
            space = algebraic.build_restricted_space(circle, int(MZ_BAND))
            mode = "gradient" if variant == "algebraic-gradient" else "value"
            state["ratio"] = lambda part, reps, c: engine.mz_ratio_algebraic(
                space, part, reps, c, mode)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((MZ_TRIALS, space.dim))
        state["coeffs"] = coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)

    def step(n: int):
        def run():
            if n == MZ_NS[0]:
                setup_space()
                state["fracs"] = []
            part = partition.weighted_partition(circle, band_weights[n])
            reps = part.representatives()
            ratios = np.array([state["ratio"](part, reps, c) for c in state["coeffs"]])
            frac = float(np.mean(ratios > MZ_LIMIT))
            state["fracs"].append(frac)
            row = f"{n},{frac!r},{float(ratios.max())!r}"
            if not np.all(np.isfinite(ratios)):
                return False, "non-finite sampling ratio", _sha(row)
            # sampling must have converged by the end of the sweep.  At N 8-16
            # the fail fractions are 0-2 trials of 200 and rise again for some
            # seeds, so the acceptance test's non-increasing check, which holds
            # for its fixed seed, is not required here.
            if n == MZ_NS[-1] and frac != 0.0:
                return False, f"sweep fail fractions {state['fracs']}", _sha(row)
            return True, "", _sha(row)

        return Op(f"mz-{variant}-N{n}", run)

    return [step(n) for n in MZ_NS]


def _restart_op(name, manifold, band, w, restarts, floor, seed) -> Op:
    def run():
        cfg = engine.FlowConfig(mode="descent", restarts=restarts, seed=seed)
        rule = engine.solve(manifold, "diffusion", band, w, cfg)
        text = engine.rule_to_json(rule)
        ok = (not rule.converged) and rule.residual_linf >= floor - FLOOR_SLACK
        reason = "" if ok else (
            f"converged={rule.converged} residual_linf={rule.residual_linf:.3e} "
            f"floor={floor:.3e}"
        )
        return ok, reason, _sha(text)

    return Op(name, run)


def _manifold(args) -> geometry.Manifold:
    return geometry.Manifold(*args)


def build(workload: str, seed: int) -> list[Op]:
    """Generate the workload's inputs from ``seed`` and return its operations."""
    if workload == "solve":
        return [
            _solve_op(name, _manifold(m), kind, band, _band(n, seed), seed)
            for name, m, kind, band, n in SOLVE_CASES
        ]
    if workload == "partition":
        return [
            _partition_op(name, _manifold(m), _band(n, seed + PARTITION_SEED_SHIFT))
            for name, m, n in PARTITION_CASES
        ]
    if workload == "mz":
        band_weights = {n: _band(n, seed + n) for n in MZ_NS}
        return [op for v in MZ_VARIANTS for op in _mz_ops(v, seed, band_weights)]
    if workload == "restarts":
        # too few nodes for the basis dimension is the point of these cases
        warnings.filterwarnings("ignore", message=r".*nodes for a dimension")
        ops = []
        for name, kind, band, source, n, restarts in RESTART_CASES:
            if source == "concentrated":
                w = weights.concentrated_weights(n)
                floor = 2.0 * w.values[0] - 1.0
            else:
                w = _band(n, seed)
                floor = TOO_FEW_NODES_FLOOR
            ops.append(_restart_op(name, geometry.Manifold(kind), band, w,
                                   restarts, floor, seed))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def case_names() -> list[str]:
    """Every operation name of every workload, in workload order."""
    names = [c[0] for c in SOLVE_CASES] + [c[0] for c in PARTITION_CASES]
    names += [f"mz-{v}-N{n}" for v in MZ_VARIANTS for n in MZ_NS]
    return names + [c[0] for c in RESTART_CASES]
