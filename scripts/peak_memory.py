"""Print the traced memory peak of each partition stage, and the process peak RSS.

Usage: python3 scripts/peak_memory.py

One line per case: the ``tracemalloc`` peak, in MB above what was traced
when the stage began, of ``weighted_partition``, ``verify_partition`` and
``partition_to_json``, each traced alone, then the size in MB of the
``partition_to_json`` text (so ``to_json`` over ``size`` counts the copies
of the file the writer holds at its peak), then ``ru_maxrss`` of the
process so far (tracing included, so it is above an untraced run's).  The
cases are the benchmark's five partition cases at weights seed 7 (the
``partition`` workload's inputs at seed 0, read from ``PARTITION_CASES``
in ``perfbench/workloads.py``), then N = 8000 on each kind at weights seed
42.  A stage that holds a whole-input temporary shows up here without a
benchmark run.  The package comes from this checkout's ``src``.  Takes about
20 s on one core.
"""

import pathlib
import resource
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from cubaflow import (  # noqa: E402
    Manifold,
    partition_to_json,
    random_band_weights,
    verify_partition,
    weighted_partition,
)

# (case name, manifold args, N, weights seed)
CASES = tuple((name, args, n, workloads.PARTITION_SEED_SHIFT) for name, args, n in workloads.PARTITION_CASES) + (
    ("circle-N8000", ("circle",), 8000, 42),
    ("ellipse3-N8000", ("ellipse", 3.0, 1.0), 8000, 42),
    ("torus2-N8000", ("torus2",), 8000, 42),
    ("sphere2-N8000", ("sphere2",), 8000, 42),
)


def _traced(fn, *args):
    """``fn(*args)`` and its traced peak in MB above the memory traced before."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = fn(*args)
    return out, (tracemalloc.get_traced_memory()[1] - start) / 1e6


def main() -> int:
    print(f"{'case':16s} {'partition':>10s} {'verify':>10s} {'to_json':>10s} {'size':>10s} {'maxrss':>10s}")
    tracemalloc.start()
    for name, args, n, seed in CASES:
        w = random_band_weights(n, 0.5, 2.0, seed)
        part, build = _traced(weighted_partition, Manifold(*args), w)
        report, check = _traced(verify_partition, part)
        text, dump = _traced(partition_to_json, part)
        if not report.passed:
            print(f"{name}: verification failed: {report.notes}", file=sys.stderr)
            return 1
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name:16s} {build:10.2f} {check:10.2f} {dump:10.2f} {len(text) / 1e6:10.2f} {rss:10.1f}",
              flush=True)
        del part, report, text
    return 0


if __name__ == "__main__":
    sys.exit(main())
