"""Batch command-line front-end.

Subcommands build partitions, solve for cubature nodes, verify stored
rules, sweep the sampling-ratio diagnostic, fit the ellipse restriction
curve, and generate or inspect weight vectors.  Every command that takes
weights reads them through ``--weights`` and ``--N`` with one grammar
(:func:`parse_weights`), and ``mz`` builds its space with the switch
``solve`` uses.  Everything is written to files (JSON for machine use,
CSV for plotting, a short text summary); there is no interactive mode.
Runs are deterministic for a fixed seed.

Exit codes: 0 success / all checks passed, 2 unconverged or failed
verification, 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import engine
from .algebraic import restriction_fit_residual
from .geometry import Manifold, circumference
from .partition import _json_text, partition_to_json, verify_partition, weighted_partition
from .spectra import enumerate_basis
from .weights import WeightVector, block_aggregate, concentrated_weights, random_band_weights

OUT_ENV = "CUBAFLOW_OUT"


def parse_manifold(token: str) -> Manifold:
    """circle | torus2 | sphere2 | ellipse:A:B"""
    parts = token.split(":")
    if parts[0] == "ellipse":
        if len(parts) != 3:
            raise ValueError("ellipse takes two semi-axes, e.g. ellipse:2:1")
        return Manifold("ellipse", float(parts[1]), float(parts[2]))
    if len(parts) != 1 or parts[0] not in ("circle", "torus2", "sphere2"):
        raise ValueError(f"unknown manifold {token!r}")
    return Manifold(parts[0])


def parse_weights(token: str, n: int | None) -> WeightVector:
    """uniform | band:A:B:SEED | ex1 | file:PATH"""
    parts = token.split(":", 1)
    kind = parts[0]
    if kind == "file":
        if len(parts) != 2:
            raise ValueError("file weights need a path, file:PATH")
        path = parts[1]
        values = json.loads(Path(path).read_text())
        if isinstance(values, dict):
            if "weights" not in values:
                raise ValueError(f"weights file {path} has no 'weights' field")
            values = values["weights"]
        if not isinstance(values, list):
            raise ValueError(
                f"weights file {path}: expected a list of weights, got {type(values).__name__}"
            )
        return WeightVector(np.asarray(values, dtype=float))
    if n is None:
        raise ValueError(f"--N is required for {kind!r} weights")
    if kind == "uniform":
        return WeightVector(np.full(n, 1.0 / n))
    if kind == "ex1":
        return concentrated_weights(n)
    if kind == "band":
        fields = token.split(":")
        if len(fields) != 4:
            raise ValueError("band weights take band:A:B:SEED")
        return random_band_weights(n, float(fields[1]), float(fields[2]), int(fields[3]))
    raise ValueError(f"unknown weight source {token!r}")


def _out_dir(args) -> Path:
    root = args.out or os.environ.get(OUT_ENV) or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _mtag(manifold: Manifold) -> str:
    if manifold.kind == "ellipse":
        return f"ellipse_{manifold.a_ax:g}_{manifold.b_ax:g}"
    return manifold.kind


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_partition(args) -> int:
    manifold = parse_manifold(args.manifold)
    w = parse_weights(args.weights, args.N)
    part = weighted_partition(manifold, w)
    report = verify_partition(part)
    out = _out_dir(args)
    tag = f"{_mtag(manifold)}_N{w.n}"
    _write(out / f"partition_{tag}.json", partition_to_json(part))
    lines = [
        f"manifold {manifold.descriptor()}",
        f"regions {part.n}  branch {part.branch}  levels {part.coarse_level}->{part.fine_level}",
        f"c3 {part.c3:.6g}  c4 {part.c4:.6g}",
        f"max measure error {report.max_measure_error:.3e}",
        f"max cover gap {report.max_cover_gap:.3e}",
        f"checks: measures={report.measures_ok} cover={report.cover_ok} "
        f"disjoint={report.disjoint_ok} inner={report.inner_ok} outer={report.outer_ok}",
        f"passed {report.passed}",
    ]
    _write(out / f"partition_{tag}_report.txt", "\n".join(lines) + "\n")
    print(lines[-1])
    return 0 if report.passed else 2


def _cmd_solve(args) -> int:
    manifold = parse_manifold(args.manifold)
    w = parse_weights(args.weights, args.N)
    cfg = engine.FlowConfig(tol=args.tol, restarts=args.restarts, seed=args.seed)
    rule = engine.solve(manifold, args.space, args.L, w, cfg)
    out = _out_dir(args)
    tag = f"{_mtag(manifold)}_{args.space}_L{args.L:g}_N{w.n}"
    _write(out / f"rule_{tag}.json", engine.rule_to_json(rule))
    _write(out / f"rule_{tag}.csv", engine.rule_to_csv(rule))
    summary = [
        f"manifold {manifold.descriptor()}  space {args.space}  L {args.L:g}  N {w.n}",
        f"restarts used {rule.stats['restarts_used']}",
        f"stop reason {rule.stats['stop_reason']}  restarts by reason: "
        + ", ".join(f"{k} {v}" for k, v in rule.stats["stop_reasons"].items()),
        f"residual_linf {rule.residual_linf:.6e}",
        f"residual_l2 {rule.residual_l2:.6e}",
        f"converged {rule.converged}",
    ]
    _write(out / f"rule_{tag}_summary.txt", "\n".join(summary) + "\n")
    print(f"residual_linf {rule.residual_linf:.6e}  converged {rule.converged}")
    return 0 if rule.converged else 2


def _cmd_verify(args) -> int:
    path = Path(args.rule)
    if not path.exists():
        raise ValueError(f"no such rule file: {path}")
    try:
        rule = engine.rule_from_json(path.read_text())
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    # outside the try: an unusable --tol is a usage error (exit 1), not a failed rule
    report = engine.verify_rule(rule, args.tol)
    print(
        f"residual_linf {report.residual_linf:.6e}  "
        f"random-band error {report.max_random_error:.6e}  "
        f"weight-sum error {report.weight_sum_error:.3e}  "
        f"stored-consistent {report.stored_consistent}  passed {report.passed}"
    )
    return 0 if report.passed else 2


def _dyadic(n_max: int):
    n = 8
    while n <= n_max:
        yield n
        n *= 2


def _cmd_mz(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.nmax < 8:
        raise ValueError(f"--nmax must be at least 8, the first sweep size, got {args.nmax}")
    manifold = parse_manifold(args.manifold)
    space = engine._make_space(manifold, args.space.split("-")[0], args.L)
    mode = "value" if args.space == "algebraic-value" else "gradient"
    rng = np.random.default_rng(args.seed)
    coeffs = rng.standard_normal((args.trials, space.dim))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)

    rows = []
    n_star = None
    for n in _dyadic(args.nmax):
        w = random_band_weights(n, args.a, args.b, args.seed + n)
        part = weighted_partition(manifold, w)
        ratios = engine.mz_ratios(space, part, part.representatives(), coeffs, mode)
        frac = float(np.mean(ratios > 0.5))
        rows.append((n, frac, float(ratios.max())))
        if n_star is None and frac == 0.0:
            n_star = n
        print(f"N {n:6d}  fail_fraction {frac:.4f}  max_ratio {ratios.max():.4f}")

    out = _out_dir(args)
    tag = f"{_mtag(manifold)}_{args.space}_L{args.L:g}"
    csv_lines = ["N,fail_fraction,max_ratio"] + [
        f"{n},{f:.6g},{m:.6g}" for n, f, m in rows
    ]
    _write(out / f"mz_{tag}.csv", "\n".join(csv_lines) + "\n")
    doc = {
        "manifold": manifold.descriptor(),
        "space": args.space,
        "L": args.L,
        "band": [args.a, args.b],
        "trials": args.trials,
        "seed": args.seed,
        "n_star": n_star,
        "rows": [{"N": n, "fail_fraction": f, "max_ratio": m} for n, f, m in rows],
    }
    _write(out / f"mz_{tag}.json", _json_text(doc))
    print(f"threshold N* = {n_star}")
    return 0 if n_star is not None else 2


def _cmd_ellipse(args) -> int:
    manifold = Manifold("ellipse", args.a, args.b)
    ell = circumference(args.a, args.b)
    space = enumerate_basis(manifold, 1.0)
    f1 = lambda ch: space.evaluate(ch)[:, 0]
    residuals = restriction_fit_residual(manifold, f1, args.max_deg)
    out = _out_dir(args)
    tag = f"{args.a:g}_{args.b:g}"
    lines = ["degree,residual"] + [
        f"{d},{r:.12e}" for d, r in enumerate(residuals, start=1)
    ]
    _write(out / f"ellipse_{tag}_fit.csv", "\n".join(lines) + "\n")
    print(f"semi-axes ({args.a:g}, {args.b:g})  arc length {ell:.12f}")
    print(f"first-mode fit residual at degree {args.max_deg}: {residuals[-1]:.6e}")
    return 0


def _cmd_weights(args) -> int:
    w = parse_weights(args.weights, args.N)
    if args.weights == "ex1":
        print(f"({Fraction(w.n, w.n + 1)}, {Fraction(1, (w.n + 1) * (w.n - 1))} x{w.n - 1})")
    a_fit, b_fit = w.fitted_band()
    print(f"n {w.n}  sum {math.fsum(w.values):.17g}  band [{a_fit:.6g}, {b_fit:.6g}]")
    if args.aggregate:
        agg = block_aggregate(w.values)
        print(
            f"aggregated blocks m {len(agg.block_sums)}  "
            f"min {agg.block_sums.min():.6g}  max {agg.block_sums.max():.6g}"
        )
    if args.save:
        out = _out_dir(args)
        doc = {"weights": [float(x) for x in w.values]}
        _write(out / args.save, _json_text(doc))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubaflow",
        description="Cubature rules with prescribed weights on model manifolds.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, weights=True):
        sp.add_argument("--out", default=None, help=f"output dir (default ${OUT_ENV} or .)")
        if weights:
            sp.add_argument("--N", type=int, default=None)
            sp.add_argument("--weights", default="uniform",
                            help="uniform | band:A:B:SEED | ex1 | file:PATH")

    sp = sub.add_parser("partition", help="build and verify a weighted partition")
    sp.add_argument("--manifold", required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_partition)

    sp = sub.add_parser("solve", help="find cubature nodes for prescribed weights")
    sp.add_argument("--manifold", required=True)
    sp.add_argument("--space", choices=["diffusion", "algebraic"], default="diffusion")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--restarts", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify", help="re-check a stored rule file")
    sp.add_argument("--rule", required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("mz", help="sweep the weighted sampling ratio over N")
    sp.add_argument("--manifold", default="circle")
    sp.add_argument("--space",
                    choices=["diffusion", "algebraic-value", "algebraic-gradient"],
                    default="diffusion")
    sp.add_argument("--L", type=float, default=8.0)
    sp.add_argument("--a", type=float, default=0.5)
    sp.add_argument("--b", type=float, default=2.0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--nmax", type=int, default=4096)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, weights=False)
    sp.set_defaults(fn=_cmd_mz)

    sp = sub.add_parser("ellipse", help="restriction-fit residual curve of the first mode")
    sp.add_argument("--a", type=float, default=2.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--max-deg", type=int, default=12)
    common(sp, weights=False)
    sp.set_defaults(fn=_cmd_ellipse)

    sp = sub.add_parser("weights", help="generate / validate / aggregate weight vectors")
    sp.add_argument("--aggregate", action="store_true")
    sp.add_argument("--save", default=None, help="file name for the generated vector")
    common(sp)
    sp.set_defaults(fn=_cmd_weights)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
