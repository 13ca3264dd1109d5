"""Print one ``case sha256`` line per benchmark output, to diff two checkouts.

Usage: python3 scripts/fingerprint_outputs.py > fingerprints.txt

Hashes the default-solve ``rule_to_json`` of every ``SOLVE_CASES`` entry at
seeds 0-9, the descent ``rule_to_json`` of every ``RESTART_CASES`` entry at
seed 0, and ``partition_to_json`` of every ``PARTITION_CASES`` entry at seeds
0-9, with the inputs the benchmark workloads generate.  Each ``solve/`` and
``restarts/`` line is followed by a ``solve-stats/...`` line that prints, not
hashes, ``repr`` of the rule's ``restarts_used``, ``stop_reason``,
``stop_reasons`` and ``newton_iters_last``, so a change to which restarts ran
shows in the diff even when the rule does not.  The ``DIGEST_CASES`` (solves that converge at a later
restart) get a ``digest/<case>/restarts<R>`` rule line and its
``solve-stats/...`` line at 8 and 100 restarts.  Each partition is
hashed twice: its document without ``stats`` on the ``partition/...`` line
(likewise ``mz-partition/...`` and ``sphere-partition/...``), and its
``stats`` alone on a ``partition-stats/...`` line (``mz-partition-stats/...``,
``sphere-partition-stats/...``), so a change to the diagnostics alone shows
as one.  Each sphere partition case also gets a
``sphere-centroids/N<n>/seed<s>`` line, the hash of the raw bytes of
``regions._sphere_centroids`` on its regions' whole-cell blocks, so a change
to the centroid rule shows even where no representative moves.  Each partition also
gets a ``verify/<case>/seed<s>`` line, the hash of ``repr`` of its
``verify_partition`` report, and one ``verify-short/<case>/seed<s>/<f>`` line
per ``SHORT_FACTORS`` entry f, the hash of ``repr`` of the miss vector of
``regions._outer_ball_misses`` with every region's outer radius times f, so
a change in the verdicts on failing input shows too.  Last come the circle
partitions of the MZ sweep, one ``mz-partition/N<n>/seed<s>`` line per
``MZ_NS`` entry at seeds 0-9, with the weights the ``mz`` workload draws.  Last, sphere partitions
at N = 40 and 150 (weights seeds 0-2) take the tree branch with fine
levels 9 and 11 (the benchmark's sphere case has 9): one
``sphere-partition/N<n>/seed<s>`` line each and its
``verify/sphere-partition/N<n>/seed<s>`` line.  Then one
``large-partition/<kind>-N2000/seed42`` line and its
``verify/large-partition/<kind>-N2000/seed42`` line per ``LARGE_KINDS``
entry: at N = 2000 region geometry and verification take 16 batches of
``regions._REGION_BATCH`` regions, the benchmark's largest partition 8.  Then the
MZ ratios: one ``mz-ratios/<variant>/N<n>/seed<s>`` line per ``MZ_VARIANTS``
and ``MZ_NS`` entry at seeds 0-1, the hash of ``repr`` of the ``MZ_TRIALS``
one-row ratios (``mz_ratio_diffusion`` or ``mz_ratio_algebraic``) on the
partition and unit coefficient vectors the ``mz`` workload generates.  Each
is followed by its ``mz-block/<variant>/N<n>/seed<s>`` line, the hash of
``repr`` of the same ratios from the one block ``mz_ratios`` call that
``cubaflow mz`` makes, as a list of floats, so the two lines of a pair are
equal.  Each ``MZ_KINDS`` entry then gets one
``mz-block/<kind>-L<band>/N8-64`` line, the hash of ``repr`` of the block
ratios of a ``cubaflow mz`` sweep (``MZ_KIND_TRIALS`` unit rows, seed 0,
N 8-64) on the torus or sphere, so the grid-integral memo is covered beyond
the circle.  The case tables are read from ``perfbench/workloads.py``; the
package comes from this checkout's ``src``.  Run it in two checkouts and
``diff`` the outputs: equal lines mean byte-identical rules, partitions,
verification reports, sampling ratios and algebraic bases.  Last, one
``algebraic-basis/<kind>-deg<L>`` line per ``ALGEBRAIC_BASES`` entry hashes
``repr`` of a restricted space's ``evaluate`` and ``gradients`` on the
reference grid of its degree, so a change to the ellipse or sphere basis
shows as well as one to the circle's.  The ``diffusion-basis/sphere-L<band>``
lines do the same for the sphere harmonics of bands 4.5 and 12.5 (degrees
4 and 12) on the reference grid of that band.  The ``diffusion-basis/<kind>-L<band>``
lines of ``TRIG_BASES`` (circle L8 and L512, ellipse 2:1 L4, torus L3 and
L30) hash the raw bytes of ``evaluate`` and ``gradients`` on the reference
grid of the band, ``BASIS_ROWS`` grid rows at a time, so that the highest
bands fit in memory.  Takes about 30 s on one core.
"""

import dataclasses
import hashlib
import json
import pathlib
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from cubaflow import (  # noqa: E402
    FlowConfig,
    Manifold,
    build_restricted_space,
    concentrated_weights,
    enumerate_basis,
    mz_ratio_algebraic,
    mz_ratio_diffusion,
    build_cell_tree,
    mz_ratios,
    partition_to_json,
    random_band_weights,
    reference_grid,
    rule_to_json,
    solve,
    verify_partition,
    weighted_partition,
)
from cubaflow.regions import (  # noqa: E402
    _cell_blocks,
    _outer_ball_misses,
    _run_parts,
    _sphere_centroids,
)

SEEDS = range(10)
# outer radii scale factors of the verify-short lines: barely and clearly short
SHORT_FACTORS = (1.0 - 1e-4, 0.9)
SPHERE_NS = (40, 150)
LARGE_KINDS = (
    ("circle", ("circle",)),
    ("ellipse3", ("ellipse", 3.0, 1.0)),
    ("torus2", ("torus2",)),
    ("sphere2", ("sphere2",)),
)
LARGE_N, LARGE_SEED = 2000, 42
MZ_RATIO_SEEDS = range(2)
# (kind, band) of the diffusion sweeps beyond the circle
MZ_KINDS = (("torus2", 3.0), ("sphere2", 4.5))
MZ_KIND_TRIALS = 20
MZ_KIND_NS = (8, 16, 32, 64)
ALGEBRAIC_BASES = (
    ("circle", ("circle",), 8),
    ("ellipse2", ("ellipse", 2.0, 1.0), 12),
    ("ellipse3", ("ellipse", 3.0, 1.0), 24),
    ("sphere2", ("sphere2",), 6),
)
SPHERE_BANDS = (4.5, 12.5)
TRIG_BASES = (
    ("circle", ("circle",), 8.0),
    ("circle", ("circle",), 512.0),
    ("ellipse2", ("ellipse", 2.0, 1.0), 4.0),
    ("torus2", ("torus2",), 3.0),
    ("torus2", ("torus2",), 30.0),
)
BASIS_ROWS = 512
# (case name, manifold args, L, N, seed): band-weight solves whose first
# converged restart is restart 5 (circle) and 7 (ellipse)
DIGEST_CASES = (
    ("circle-L8-N19", ("circle",), 8.0, 19, 1),
    ("ellipse2-L3-N9", ("ellipse", 2.0, 1.0), 3.0, 9, 0),
)
DIGEST_RESTARTS = (8, 100)


def _band(n: int, seed: int):
    return random_band_weights(n, 0.5, 2.0, seed)


def _emit(case: str, text: str) -> None:
    print(f"{case} {hashlib.sha256(text.encode()).hexdigest()}", flush=True)


def _emit_partition(case: str, part) -> None:
    """Hash a partition's JSON without its stats under ``case``, and the
    stats alone under ``case`` with ``-stats`` after its first component."""
    doc = json.loads(partition_to_json(part))
    stats = doc.pop("stats")
    _emit(case, json.dumps(doc, sort_keys=True, indent=1))
    head, rest = case.split("/", 1)
    _emit(f"{head}-stats/{rest}", json.dumps(stats, sort_keys=True, indent=1))


def _emit_rule(case: str, rule) -> None:
    """Hash a rule's JSON under ``case``, and print its restart stats under
    ``case`` with ``solve-stats/`` in place of its first component."""
    _emit(case, rule_to_json(rule))
    stats = tuple(rule.stats[key] for key in
                  ("restarts_used", "stop_reason", "stop_reasons", "newton_iters_last"))
    print(f"solve-stats/{case.split('/', 1)[1]} {stats!r}", flush=True)


def _emit_short_verdicts(case: str, part) -> None:
    """Hash the outer-ball misses of ``part`` with its outer radii scaled by
    each of ``SHORT_FACTORS``, under ``verify-short/<case>/<f>``."""
    tree = build_cell_tree(part.manifold, max(part.fine_level, 1))
    for f in SHORT_FACTORS:
        regions = [dataclasses.replace(r, outer_radius=f * r.outer_radius) for r in part.regions]
        miss = _outer_ball_misses(tree, part.fine_level, regions)
        _emit(f"verify-short/{case}/{f!r}", repr(miss.tolist()))


def _emit_sphere_centroids(case: str, part) -> None:
    """Hash the raw bytes of ``regions._sphere_centroids`` on the aligned
    blocks of the whole cells of every region of ``part``."""
    tree = build_cell_tree(part.manifold, max(part.fine_level, 1))
    blocks = _cell_blocks(tree, part.fine_level, *_run_parts([r.runs for r in part.regions])[0])
    goal = _sphere_centroids(part.fine_level, *blocks, part.n)
    print(f"{case} {hashlib.sha256(goal.tobytes()).hexdigest()}", flush=True)


def _mz_ratio_lines(seed: int) -> None:
    circle = Manifold("circle")
    for variant in workloads.MZ_VARIANTS:
        if variant == "diffusion":
            space = enumerate_basis(circle, workloads.MZ_BAND)
        else:
            space = build_restricted_space(circle, int(workloads.MZ_BAND))
        mode = "value" if variant == "algebraic-value" else "gradient"
        coeffs = np.random.default_rng(seed).standard_normal((workloads.MZ_TRIALS, space.dim))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        for n in workloads.MZ_NS:
            part = weighted_partition(circle, _band(n, seed + n))
            reps = part.representatives()
            if variant == "diffusion":
                ratios = [mz_ratio_diffusion(space, part, reps, c) for c in coeffs]
            else:
                ratios = [mz_ratio_algebraic(space, part, reps, c, mode) for c in coeffs]
            _emit(f"mz-ratios/{variant}/N{n}/seed{seed}", repr(ratios))
            block = mz_ratios(space, part, reps, coeffs, mode).tolist()
            _emit(f"mz-block/{variant}/N{n}/seed{seed}", repr(block))


def _mz_kind_lines() -> None:
    for kind, band in MZ_KINDS:
        manifold = Manifold(kind)
        space = enumerate_basis(manifold, band)
        coeffs = np.random.default_rng(0).standard_normal((MZ_KIND_TRIALS, space.dim))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        sweep = []
        for n in MZ_KIND_NS:
            part = weighted_partition(manifold, _band(n, n))
            sweep.append(mz_ratios(space, part, None, coeffs, "gradient").tolist())
        _emit(f"mz-block/{kind}-L{band:g}/N{MZ_KIND_NS[0]}-{MZ_KIND_NS[-1]}", repr(sweep))


def _basis_text(space, band: float) -> str:
    """``repr`` of a space's values and gradients on the reference grid of ``band``."""
    charts = reference_grid(space.manifold, band).charts
    return repr(space.evaluate(charts).tolist()) + repr(space.gradients(charts).tolist())


def _basis_digest(space, band: float) -> str:
    """sha256 of the raw bytes of a space's values and gradients on the
    reference grid of ``band``, ``BASIS_ROWS`` rows at a time."""
    charts = reference_grid(space.manifold, band).charts
    digest = hashlib.sha256()
    for a in range(0, len(charts), BASIS_ROWS):
        rows = charts[a:a + BASIS_ROWS]
        digest.update(space.evaluate(rows).tobytes())
        digest.update(space.gradients(rows).tobytes())
    return digest.hexdigest()


def main() -> int:
    for name, args, kind, band, n in workloads.SOLVE_CASES:
        for seed in SEEDS:
            rule = solve(Manifold(*args), kind, band, _band(n, seed), FlowConfig(seed=seed))
            _emit_rule(f"solve/{name}/seed{seed}", rule)
    warnings.filterwarnings("ignore", message=r".*nodes for a dimension")
    for name, kind, band, source, n, restarts in workloads.RESTART_CASES:
        w = concentrated_weights(n) if source == "concentrated" else _band(n, 0)
        cfg = FlowConfig(restarts=restarts, seed=0)
        _emit_rule(f"restarts/{name}/seed0", solve(Manifold(kind), "diffusion", band, w, cfg))
    for name, args, band, n, seed in DIGEST_CASES:
        for restarts in DIGEST_RESTARTS:
            cfg = FlowConfig(restarts=restarts, seed=seed)
            rule = solve(Manifold(*args), "diffusion", band, _band(n, seed), cfg)
            _emit_rule(f"digest/{name}/restarts{restarts}", rule)
    for name, args, n in workloads.PARTITION_CASES:
        for seed in SEEDS:
            w = _band(n, seed + workloads.PARTITION_SEED_SHIFT)
            part = weighted_partition(Manifold(*args), w)
            _emit_partition(f"partition/{name}/seed{seed}", part)
            _emit(f"verify/{name}/seed{seed}", repr(verify_partition(part)))
            _emit_short_verdicts(f"{name}/seed{seed}", part)
            if args == ("sphere2",):
                _emit_sphere_centroids(f"sphere-centroids/N{n}/seed{seed}", part)
    for seed in SEEDS:
        for n in workloads.MZ_NS:
            part = weighted_partition(Manifold("circle"), _band(n, seed + n))
            _emit_partition(f"mz-partition/N{n}/seed{seed}", part)
    for n in SPHERE_NS:
        for seed in range(3):
            part = weighted_partition(Manifold("sphere2"), _band(n, seed))
            _emit_partition(f"sphere-partition/N{n}/seed{seed}", part)
            _emit(f"verify/sphere-partition/N{n}/seed{seed}", repr(verify_partition(part)))
    for name, args in LARGE_KINDS:
        part = weighted_partition(Manifold(*args), _band(LARGE_N, LARGE_SEED))
        case = f"{name}-N{LARGE_N}/seed{LARGE_SEED}"
        _emit_partition(f"large-partition/{case}", part)
        _emit(f"verify/large-partition/{case}", repr(verify_partition(part)))
    for seed in MZ_RATIO_SEEDS:
        _mz_ratio_lines(seed)
    _mz_kind_lines()
    for name, args, deg in ALGEBRAIC_BASES:
        manifold = Manifold(*args)
        _emit(f"algebraic-basis/{name}-deg{deg}", _basis_text(build_restricted_space(manifold, deg), deg))
    for band in SPHERE_BANDS:
        _emit(f"diffusion-basis/sphere-L{band}", _basis_text(enumerate_basis(Manifold("sphere2"), band), band))
    for name, args, band in TRIG_BASES:
        digest = _basis_digest(enumerate_basis(Manifold(*args), band), band)
        print(f"diffusion-basis/{name}-L{band:g} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
