"""One pass over a benchmark workload, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload solve --seed 0 --trace 0

Imports cubaflow from the checkout's ``src``, generates the workload's inputs,
then runs its operations one at a time.  Prints one JSON line: the monotonic
time at which set-up ended, peak RSS, each operation's outcome, output
fingerprint, wall and CPU time and the machine speed sampled while it ran
and, with ``--trace 1``, the per-layer metrics.  ``run.py`` starts this script once per pass.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class SpeedProbe:
    """Samples how fast the machine runs: times one fixed unit of interpreter
    work every ``PERIOD_S`` while armed, and on demand.

    ``run.py`` scales each operation's time by the median sample taken while
    it ran, so that other tenants' load drops out of the comparison.  A pure
    interpreter loop tracked the solver's slowdowns more closely than probes
    mixing in small or BLAS-sized NumPy calls.
    """

    PERIOD_S = 0.1
    BOUNDARY = 5

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def unit() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i
        return time.perf_counter() - t0

    def boundary(self) -> None:
        self.samples += [self.unit() for _ in range(self.BOUNDARY)]

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.unit())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas_info() -> dict:
    """BLAS library name and the thread count it reports, where it can."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the raw spans of a traced pass")
    args = ap.parse_args(argv)

    import cubaflow

    if Path(cubaflow.__file__).resolve().parent != ROOT / "src" / "cubaflow":
        print(f"cubaflow imported from {cubaflow.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ops = workloads.build(args.workload, args.seed)
    ready = time.monotonic()

    probe = SpeedProbe()
    probe.boundary()
    setup_probe = statistics.median(probe.samples)
    windows, outcomes = [], []
    probe.start()
    try:
        for op_id, op in enumerate(ops):
            lo = len(probe.samples) - SpeedProbe.BOUNDARY
            cpu0, t0 = _cpu_s(), time.perf_counter()
            if tracer is not None:
                tracer.op = op_id
                idx = tracer.open(f"case.{op.name}")
            try:
                ok, reason, fp = op.run()
            except Exception as exc:  # a failed operation is counted, the pass goes on
                ok, reason, fp = False, f"{type(exc).__name__}: {exc}", None
            finally:
                if tracer is not None:
                    tracer.close(idx)
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            probe.boundary()
            # samples from the boundary before the operation to the one after it
            windows.append((lo, len(probe.samples)))
            outcomes.append({"name": op.name, "ok": bool(ok), "reason": reason, "fp": fp,
                             "wall_s": wall, "cpu_s": cpu})
    finally:
        probe.stop()
    for out, (lo, hi) in zip(outcomes, windows):
        out["probe_s"] = statistics.median(probe.samples[lo:hi])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "ready": ready,
        "setup_probe_s": setup_probe,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": outcomes,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cubaflow": cubaflow.__version__,
            "blas": _blas_info(),
        },
    }
    if tracer is not None:
        cases = workloads.case_names()
        result["layers"] = tracer.metrics(cases)
        result["layer_units"] = dict(tracing.per_layer_metrics(cases))
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
