"""Solve one prescribed-weight cubature problem and re-verify the result.

Usage: python3 scripts/run_solve_demo.py [--manifold circle] [--L 8] [--N 128]
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cubaflow import (
    FlowConfig,
    random_band_weights,
    rule_to_json,
    solve,
    verify_rule,
)
from cubaflow.cli import parse_manifold


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifold", default="circle")
    ap.add_argument("--space", choices=["diffusion", "algebraic"], default="diffusion")
    ap.add_argument("--L", type=float, default=8.0)
    ap.add_argument("--N", type=int, default=128)
    ap.add_argument("--a", type=float, default=0.5)
    ap.add_argument("--b", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--save", default=None, help="write the rule JSON here")
    args = ap.parse_args()

    manifold = parse_manifold(args.manifold)
    w = random_band_weights(args.N, args.a, args.b, args.seed)
    t0 = time.perf_counter()
    rule = solve(manifold, args.space, args.L, w, FlowConfig(seed=args.seed))
    dt = time.perf_counter() - t0

    print(f"{manifold.kind}  space={args.space}  L={args.L:g}  N={args.N}")
    print(f"solve: {dt:.2f}s  restarts used {rule.stats['restarts_used']}")
    print(f"residual linf {rule.residual_linf:.3e}  l2 {rule.residual_l2:.3e}")
    report = verify_rule(rule, 1e-8)
    print(f"independent check: random-band error {report.max_random_error:.3e}  "
          f"passed {report.passed}")
    if args.save:
        pathlib.Path(args.save).write_text(rule_to_json(rule))
        print(f"wrote {args.save}")
    return 0 if rule.converged and report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
