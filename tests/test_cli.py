"""Command line surface: exit codes, artifacts, and printed summaries."""

import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

import cubaflow
from cubaflow import engine
from cubaflow.cli import main, parse_manifold, parse_weights

ELL_21 = "9.688448220548"  # circumference of the 2:1 ellipse at print precision


def test_package_version_matches_pyproject():
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == cubaflow.__version__


def test_weights_ex1_literal(capsys):
    assert main(["weights", "--weights", "ex1", "--N", "5"]) == 0
    out = capsys.readouterr().out
    assert "(5/6, 1/24 x4)" in out
    assert "sum 1" in out


@pytest.mark.parametrize("flag", [["--ex1"], ["--band", "0.5:2:11"], ["--file", "w.json"]],
                         ids=["ex1", "band", "file"])
def test_weights_reads_one_grammar(capsys, flag):
    """``weights`` takes its source through ``--weights`` as every command
    does; the old source flags are usage errors and not in its help."""
    assert main(["weights", *flag, "--N", "5"]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert main(["weights", "--help"]) == 0
    assert flag[0] not in capsys.readouterr().out


def test_weights_band_and_aggregate(capsys, tmp_path):
    code = main([
        "weights", "--weights", "band:0.5:2:11", "--N", "32",
        "--aggregate", "--save", "w.json", "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "w.json").read_text())
    w = np.array(doc["weights"])
    assert len(w) == 32
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
    assert "aggregated blocks" in capsys.readouterr().out


def test_solve_writes_artifacts(tmp_path, capsys):
    code = main([
        "solve", "--manifold", "circle", "--L", "2", "--N", "8",
        "--seed", "0", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "converged True" in capsys.readouterr().out
    rule_path = tmp_path / "rule_circle_diffusion_L2_N8.json"
    csv_path = tmp_path / "rule_circle_diffusion_L2_N8.csv"
    assert rule_path.exists() and csv_path.exists()
    summary = (tmp_path / "rule_circle_diffusion_L2_N8_summary.txt").read_text()
    assert "stop reason converged  restarts by reason: converged 1, stagnated 0," in summary
    doc = json.loads(rule_path.read_text())
    assert doc["converged"] is True
    assert len(doc["points"]) == 8
    assert csv_path.read_text().splitlines()[0] == "x0,x1,weight"


def test_solve_outputs_reproducible(tmp_path):
    argv = ["solve", "--manifold", "circle", "--L", "2", "--N", "6", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    name = "rule_circle_diffusion_L2_N6.json"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_verify_roundtrip_and_corruption(tmp_path, capsys):
    assert main([
        "solve", "--manifold", "circle", "--L", "2", "--N", "8",
        "--out", str(tmp_path),
    ]) == 0
    rule_path = tmp_path / "rule_circle_diffusion_L2_N8.json"
    assert main(["verify", "--rule", str(rule_path)]) == 0
    assert "passed True" in capsys.readouterr().out

    doc = json.loads(rule_path.read_text())
    doc["points"][0][0] += 0.05
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    assert main(["verify", "--rule", str(bad_path)]) == 2

    doc["schema_version"] = 99
    bad_path.write_text(json.dumps(doc))
    assert main(["verify", "--rule", str(bad_path)]) == 2

    bad_path.write_text("[1, 2]")
    assert main(["verify", "--rule", str(bad_path)]) == 2
    assert "verification failed" in capsys.readouterr().err


def test_verify_prints_the_weight_sum_error(circle_rule_doc, tmp_path, capsys, monkeypatch):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(circle_rule_doc))
    assert main(["verify", "--rule", str(path)]) == 0
    figure = re.search(r"weight-sum error (\S+)", capsys.readouterr().out).group(1)
    assert float(figure) <= 1e-12
    # loading rejects weights that do not sum to one, so the halved rule
    # goes straight to the check
    rule = engine.rule_from_json(path.read_text())
    w = 0.5 * rule.weights
    r = engine.residual_vector(engine.enumerate_basis(rule.manifold, rule.band), rule.points, w)
    linf, l2 = engine.residual_norms(r)
    halved = dataclasses.replace(rule, weights=w, residual=r, residual_linf=linf, residual_l2=l2)
    monkeypatch.setattr(engine, "rule_from_json", lambda text: halved)
    assert main(["verify", "--rule", str(path)]) == 2
    assert "weight-sum error 5.000e-01" in capsys.readouterr().out


@pytest.fixture(scope="module")
def circle_rule_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("rule")
    assert main(["solve", "--manifold", "circle", "--L", "2", "--N", "8", "--out", str(out)]) == 0
    return json.loads((out / "rule_circle_diffusion_L2_N8.json").read_text())


@pytest.mark.parametrize("field,value", [
    ("L", None),
    ("seed", None),
    ("residual_linf", None),
    ("manifold", "circle"),
    ("manifold", {"kind": "ellipse", "a": None, "b": 1.0}),
    ("points", None),
    ("weights", None),
    # weights the residuals cannot see: the band has no constant
    ("weights", [0.0] * 8),
    ("weights", [0.0625] * 8),
    ("weights", [-0.125] * 8),
    ("seed", 1.5),
    ("converged", "false"),
    ("converged", None),
])
def test_verify_malformed_field_names_it(circle_rule_doc, tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(circle_rule_doc, **{field: value})))
    assert main(["verify", "--rule", str(path)]) == 2
    err = capsys.readouterr().err
    assert "verification failed" in err and repr(field) in err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
def test_unusable_tolerance_is_usage_error(circle_rule_doc, tmp_path, capsys, tol):
    out = tmp_path / "out"
    argv = ["solve", "--manifold", "circle", "--L", "8", "--N", "4", f"--tol={tol}"]
    assert main(argv + ["--out", str(out)]) == 1
    assert "error: tolerance must be positive and finite" in capsys.readouterr().err
    assert not out.exists()
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(circle_rule_doc))
    assert main(["verify", "--rule", str(path), f"--tol={tol}"]) == 1
    assert "error: tolerance must be positive and finite" in capsys.readouterr().err


def test_solve_flow_mode_is_gone(tmp_path, capsys):
    argv = ["solve", "--manifold", "circle", "--L", "2", "--N", "8", "--mode", "flow"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --mode flow" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("doc, problem", [
    ({"foo": 1}, " has no 'weights' field"),
    ({"weights": {"a": 1}}, ": expected a list of weights, got dict"),
], ids=["no-field", "dict-field"])
@pytest.mark.parametrize("command", ["weights", "partition"])
def test_malformed_weights_file_is_usage_error(tmp_path, capsys, doc, problem, command):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    if command == "weights":
        argv = ["weights", "--weights", f"file:{path}"]
    else:
        argv = ["partition", "--manifold", "circle", "--weights", f"file:{path}",
                "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: weights file {path}{problem}" in capsys.readouterr().err


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--rule", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_partition_command(tmp_path, capsys):
    code = main([
        "partition", "--manifold", "torus2", "--N", "16",
        "--weights", "band:0.5:2:4", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "passed True" in capsys.readouterr().out
    doc = json.loads((tmp_path / "partition_torus2_N16.json").read_text())
    assert len(doc["regions"]) == 16
    assert (tmp_path / "partition_torus2_N16_report.txt").exists()


def test_mz_sweep_artifacts(tmp_path, capsys):
    code = main([
        "mz", "--manifold", "circle", "--L", "2", "--trials", "10",
        "--nmax", "16", "--seed", "1", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert "threshold N*" in out
    csv_path = tmp_path / "mz_circle_diffusion_L2.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,fail_fraction,max_ratio"
    assert len(lines) == 3  # N = 8 and 16
    doc = json.loads((tmp_path / "mz_circle_diffusion_L2.json").read_text())
    assert doc["trials"] == 10
    assert code == (0 if doc["n_star"] is not None else 2)


def test_mz_sweep_integrates_each_row_once(tmp_path, capsys, monkeypatch):
    """The grid integrals of a sweep depend only on the rows, so only the
    first N contracts them on the grid; later sizes pay for samples only."""
    space = engine._make_space(parse_manifold("circle"), "diffusion", 3.0)
    engine._mz_grid(space, "value")  # evict any earlier memo of this space
    contracted = []
    contract = engine._mz_contract

    def counting(qweights, field, rows, mode):
        contracted.append(rows.copy())
        return contract(qweights, field, rows, mode)

    monkeypatch.setattr(engine, "_mz_contract", counting)
    code = main([
        "mz", "--manifold", "circle", "--L", "3", "--trials", "10",
        "--nmax", "64", "--seed", "4", "--out", str(tmp_path),
    ])
    assert code in (0, 2)
    assert len((tmp_path / "mz_circle_diffusion_L3.csv").read_text().splitlines()) == 5
    assert [len(rows) for rows in contracted] == [10]
    assert len({row.tobytes() for row in contracted[0]}) == 10


def test_every_json_file_is_the_stdlib_text(tmp_path, capsys):
    """Each JSON file the commands write has the bytes of
    ``json.dumps(sort_keys=True, indent=1)`` of what it holds."""
    runs = [
        ["partition", "--manifold", "sphere2", "--N", "12", "--weights", "band:0.5:2:4"],
        ["solve", "--manifold", "circle", "--L", "2", "--N", "8", "--seed", "0"],
        ["mz", "--manifold", "circle", "--L", "2", "--trials", "10", "--nmax", "16", "--seed", "1"],
        ["weights", "--weights", "band:0.5:2:11", "--N", "32", "--save", "w.json"],
    ]
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path)]) in (0, 2)
    files = sorted(tmp_path.glob("*.json"))
    assert [f.name.split("_")[0] for f in files] == ["mz", "partition", "rule", "w.json"]
    for path in files:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1), path.name


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-1"), ("--nmax", "4")])
def test_mz_rejects_empty_sweep(tmp_path, capsys, flag, value):
    code = main(["mz", "--L", "2", flag, value, "--out", str(tmp_path)])
    assert code == 1
    assert f"error: {flag} must be at least" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "--space", "algebraic", "--L", "inf", "--N", "8"],
    ["solve", "--space", "algebraic", "--L", "6.7", "--N", "8"],
    ["mz", "--space", "algebraic-value", "--L", "inf"],
    ["mz", "--space", "algebraic-gradient", "--L", "nan"],
])
def test_algebraic_degree_must_be_integral(tmp_path, capsys, argv):
    assert main(argv + ["--manifold", "circle", "--out", str(tmp_path)]) == 1
    assert "error: degree must be an integer of at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_ellipse_command(tmp_path, capsys):
    code = main(["ellipse", "--a", "2", "--b", "1", "--max-deg", "6",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert ELL_21 in out
    lines = (tmp_path / "ellipse_2_1_fit.csv").read_text().splitlines()
    assert lines[0] == "degree,residual"
    assert len(lines) == 7
    res = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(res, res[1:]))


def test_out_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBAFLOW_OUT", str(tmp_path))
    assert main(["weights", "--N", "4", "--save", "u.json"]) == 0
    doc = json.loads((tmp_path / "u.json").read_text())
    assert doc["weights"] == [0.25, 0.25, 0.25, 0.25]


def test_usage_errors_exit_one(capsys):
    assert main(["--bogus"]) == 1
    assert main([]) == 1
    assert main(["solve", "--manifold", "circle"]) == 1  # missing --L
    assert main(["solve", "--manifold", "klein", "--L", "2", "--N", "4"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "cubaflow" in capsys.readouterr().out


def test_parse_manifold_tokens():
    assert parse_manifold("circle").kind == "circle"
    m = parse_manifold("ellipse:2:1")
    assert m.kind == "ellipse" and m.a_ax == 2.0 and m.b_ax == 1.0
    with pytest.raises(ValueError):
        parse_manifold("ellipse:2")
    with pytest.raises(ValueError):
        parse_manifold("moebius")


def test_parse_weights_tokens(tmp_path):
    w = parse_weights("uniform", 5)
    assert np.allclose(w.values, 0.2)
    w = parse_weights("band:0.5:2:9", 12)
    assert w.n == 12
    w = parse_weights("ex1", 4)
    assert w.values[0] == pytest.approx(0.8, abs=1e-12)
    path = tmp_path / "w.json"
    path.write_text(json.dumps([0.5, 0.5]))
    assert parse_weights(f"file:{path}", None).n == 2
    path.write_text(json.dumps({"weights": [0.25, 0.75]}))
    assert parse_weights(f"file:{path}", None).values[1] == 0.75
    with pytest.raises(ValueError):
        parse_weights("uniform", None)
    with pytest.raises(ValueError):
        parse_weights("band:1:2", 4)
    with pytest.raises(ValueError):
        parse_weights("gauss", 4)
