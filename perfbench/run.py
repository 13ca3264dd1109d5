"""cubaflow benchmark: closed-loop passes over one workload, one caller.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``solve``, ``partition``, ``mz`` and ``restarts``.  Run from the repository
root; the package is imported from ``src``.

Every pass runs in a fresh interpreter (``one_pass.py``), so the package's
caches start cold, as they do for every ``cubaflow`` CLI call, and set-up
(interpreter start, ``import cubaflow``, input generation) is measured once
per pass.  Passes repeat until the next one would overrun ``--seconds``, with
at least ``MIN_PASSES``.  BLAS runs with ``BLAS_THREADS`` threads.

Times are reported at reference machine speed: a fixed unit of interpreter
work is timed around and, every 0.1 s, during every operation, and times are
scaled by ``REFERENCE_PROBE_S`` over that probe (see ``_pass_time``).  ``wall_s`` and
``cpu_s`` sum each operation's median scaled time over passes, ``setup_s``
is the median scaled set-up, ``peak_rss_mb`` the median peak RSS of a pass
process.  Raw medians are printed alongside and kept in the result file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; traced and
untraced passes must give identical output fingerprints.  Human-readable
lines go first; the last line of standard output is the JSON result.  A
full record (environment, every pass, failures) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("solve", "partition", "mz", "restarts")
BLAS_THREADS = 1
MIN_PASSES = 2
# a run stops starting passes here, whatever --seconds says, so that it
# ends well inside the 180 s a run may take
HARD_LIMIT_S = 140.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# the speed probe of one_pass.py takes this long on an uncontended 2-vCPU
# Xeon VM; operation and set-up times are scaled to that speed
REFERENCE_PROBE_S = 6.0e-4
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _run_pass(workload: str, seed: int, traced: bool, budget: float, spans: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {budget:.0f} s") from exc
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"pass exited with code {proc.returncode}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - start
    res["wall_s"] = sum(op["wall_s"] for op in res["ops"])
    res["cpu_s"] = sum(op["cpu_s"] for op in res["ops"])
    for op in res["ops"]:
        op["scale"] = REFERENCE_PROBE_S / op["probe_s"]
    res["setup_scaled_s"] = res["setup_s"] * REFERENCE_PROBE_S / res["setup_probe_s"]
    res["duration_s"] = end - start
    res["traced"] = traced
    return res


def _run(workload: str, seed: int, seconds: float, trace: int, spans: Path) -> list[dict]:
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        elapsed = time.monotonic() - start
        if passes:
            # the next pass should take as long as the last one of its kind
            same = [p for p in passes if p["traced"] == traced] or passes
            predicted = elapsed + same[-1]["duration_s"]
            if predicted > HARD_LIMIT_S or (len(passes) >= MIN_PASSES and predicted > seconds):
                break
        passes.append(_run_pass(workload, seed, traced, HARD_LIMIT_S + 30 - elapsed, spans))
    return passes


def _pass_time(passes: list[dict], key: str) -> float:
    """Time of one pass at reference speed: the sum over operations of each
    one's median scaled time.

    Other tenants of a shared machine slow it down by up to half, in phases
    that last from seconds to minutes, so raw times of identical passes
    differ by tens of percent.  Each operation's time is scaled by the speed
    probe sampled while it ran; the median over passes of each operation
    then draws on operations x passes samples.  The result file keeps every
    raw time.
    """
    per_op = zip(*([op[key] * op["scale"] for op in p["ops"]] for p in passes))
    return sum(statistics.median(times) for times in per_op)


def _check(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Count operations and failures; compare fingerprints across passes."""
    attempted = failed = 0
    problems: list[str] = []
    reference = [(op["name"], op["fp"]) for op in passes[0]["ops"]]
    for i, p in enumerate(passes):
        attempted += len(p["ops"])
        for op in p["ops"]:
            if not op["ok"]:
                failed += 1
                problems.append(f"pass {i}: {op['name']} failed: {op['reason']}")
        fps = [(op["name"], op["fp"]) for op in p["ops"]]
        if fps != reference:
            diff = [a[0] for a, b in zip(reference, fps) if a != b]
            kind = "traced" if p["traced"] else "untraced"
            problems.append(f"pass {i} ({kind}): fingerprints differ from pass 0 on {diff}")
    return attempted, failed, problems


def _layer_metrics(passes: list[dict], problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics: median times, and counts that must repeat exactly."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if not traced or not plain:
        raise BenchError("a traced run needs a traced and an untraced pass")
    units = traced[0]["layer_units"]
    metrics = {}
    for name, value in traced[0]["layers"].items():
        values = [p["layers"][name] for p in traced]
        if units[name] != "s":
            if any(v != value for v in values):
                problems.append(f"count {name} differs across traced passes: {values}")
        else:
            value = statistics.median(values)
        metrics[name] = value
    metrics["trace_overhead_s"] = (_pass_time(traced, "wall_s")
                                   - _pass_time(plain, "wall_s"))
    return metrics, units


def _check_declared(metrics: dict, trace: int, problems: list[str]) -> None:
    """The metrics reported must be exactly those BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"undeclared {extra}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cubaflow benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cubaflow" / "__init__.py").is_file():
        print(f"error: no cubaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        passes = _run(args.workload, args.seed, args.seconds, args.trace,
                      RESULTS / f"spans-{tag}.json")
        attempted, failed, problems = _check(passes)
        if args.trace:
            metrics, units = _layer_metrics(passes, problems)
        else:
            metrics = {
                "wall_s": _pass_time(passes, "wall_s"),
                "cpu_s": _pass_time(passes, "cpu_s"),
                "setup_s": statistics.median(p["setup_scaled_s"] for p in passes),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            }
            units = dict(END_TO_END)
        _check_declared(metrics, args.trace, problems)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in problems:
        print(f"FAIL {line}")
    env = dict(passes[0]["env"], git_sha=_git_sha(), seed=args.seed, nproc=os.cpu_count(),
               blas_threads_requested=BLAS_THREADS)
    samples = {"passes": len(passes), "traced": sum(p["traced"] for p in passes)}
    print(f"workload {args.workload}  seed {args.seed}  passes {samples['passes']} "
          f"(traced {samples['traced']})  nproc {env['nproc']}  "
          f"blas {env['blas']['name']} threads {env['blas']['threads']}  "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    if not args.trace:
        for name in ("wall_s", "cpu_s", "setup_s"):
            raw = statistics.median(p[name] for p in passes)
            print(f"{'raw median ' + name:45s} {raw:14.6g} s")
    print(f"{'fail_frac':45s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} operations)")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "samples": samples,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "setup_s",
                                      "setup_scaled_s", "setup_probe_s", "peak_rss_mb",
                                      "ops")} for p in passes],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
