"""Print the time of one basis ``evaluate`` and ``gradients`` call per kind and band.

Usage: python3 scripts/basis_timing.py

One line per case: the kind, the space, the band (the degree of a
restricted space), the number of points and of basis columns, then
microseconds per ``evaluate`` and per ``gradients`` call, each the best of
five repeats of a loop long enough to take at least 0.2 s
(``timeit.Timer.autorange``).  The points are uniform in
the measure (``engine._uniform_points``, generator seed 0).  The torus L3
case has the 3168 points of the ``restarts`` workload's 99-restart
``torus2-conc32-L3`` stack; the others span the bands the solver and the MZ
sweep use and one high band per kind, and the ellipse's restricted spaces
of axes 2:1 degree 12 and 3:1 degree 24.  Run it with ``OPENBLAS_NUM_THREADS=1``
for numbers comparable with the benchmark.  The package comes from this
checkout's ``src``.  Takes about 40 s on one core.
"""

import pathlib
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from cubaflow import Manifold  # noqa: E402
from cubaflow.engine import _make_space, _uniform_points  # noqa: E402

# (name, manifold args, space, band, points)
CASES = (
    ("circle", ("circle",), "diffusion", 8.0, 500),
    ("circle", ("circle",), "diffusion", 512.0, 500),
    ("ellipse2", ("ellipse", 2.0, 1.0), "diffusion", 4.0, 256),
    ("torus2", ("torus2",), "diffusion", 3.0, 3168),
    ("torus2", ("torus2",), "diffusion", 30.0, 500),
    ("sphere2", ("sphere2",), "diffusion", 4.5, 500),
    ("sphere2", ("sphere2",), "diffusion", 12.5, 500),
    ("ellipse2", ("ellipse", 2.0, 1.0), "algebraic", 12.0, 500),
    ("ellipse3", ("ellipse", 3.0, 1.0), "algebraic", 24.0, 500),
)
REPEATS = 5


def _best_us(call) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number * 1e6


def main() -> int:
    print(f"{'kind':10} {'space':9} {'band':>6} {'points':>6} {'dim':>5} "
          f"{'evaluate_us':>12} {'gradients_us':>13}")
    for name, args, kind, band, n in CASES:
        manifold = Manifold(*args)
        space = _make_space(manifold, kind, band)
        charts = _uniform_points(manifold, n, np.random.default_rng(0))
        ev = _best_us(lambda: space.evaluate(charts))
        gr = _best_us(lambda: space.gradients(charts))
        print(f"{name:10} {kind:9} {band:6g} {n:6d} {space.dim:5d} {ev:12.1f} {gr:13.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
