"""Time ``import cubaflow; Manifold(kind)`` in fresh interpreters, per kind.

Usage: python3 scripts/cold_start.py

For each manifold kind, starts five interpreters under ``-X importtime`` and
times the import plus one ``Manifold(kind)`` inside each.  Prints the median
time, the ``scipy.*`` modules loaded, whether ``numpy.ma`` was loaded (numpy
imports it lazily, e.g. from ``np.unique``), and the ten largest cumulative
``-X importtime`` lines of the run with the median time.  A module that puts
something heavy back on the import path shows up here without a benchmark
run.  The package comes from this checkout's ``src``.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
KINDS = ("circle", "torus2", "sphere2", "ellipse")
RUNS = 5
TOP = 10

CHILD = """
import json, sys, time
t0 = time.perf_counter()
import cubaflow
cubaflow.Manifold(sys.argv[1])
elapsed = time.perf_counter() - t0
print(json.dumps({"s": elapsed, "scipy": sorted(m for m in sys.modules if m.startswith("scipy.")),
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def _run(kind: str) -> tuple[dict, list[tuple[int, str]]]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD, kind],
                         capture_output=True, text=True, env=env, check=True)
    lines = []
    for line in out.stderr.splitlines():
        # "import time: self [us] | cumulative | imported package"
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            lines.append((int(parts[1]), parts[2].rstrip()))
    return json.loads(out.stdout), lines


def main() -> None:
    for kind in KINDS:
        runs = sorted((_run(kind) for _ in range(RUNS)), key=lambda r: r[0]["s"])
        median, lines = runs[RUNS // 2]
        print(f"{kind}: median {1e3 * median['s']:.0f} ms (min {1e3 * runs[0][0]['s']:.0f}, "
              f"max {1e3 * runs[-1][0]['s']:.0f}) over {RUNS} runs")
        print(f"  scipy modules ({len(median['scipy'])}): {' '.join(median['scipy']) or '-'}; "
              f"numpy.ma loaded: {'yes' if median['numpy.ma'] else 'no'}")
        print("  largest cumulative import times [ms]:")
        for cum, name in sorted(lines, reverse=True)[:TOP]:
            print(f"  {cum / 1e3:9.1f} {name}")


if __name__ == "__main__":
    main()
