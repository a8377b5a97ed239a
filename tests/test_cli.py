"""Command-line interface: configs, CSV output, and exit codes."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from kmsolve import cli
from kmsolve.engine import inexact_km
from kmsolve.schedules import delta_threshold

FEASIBLE = {
    "problem": {
        "kind": "affine",
        "matrix": [[0.5, 0.0], [0.0, 0.25]],
        "offset": [0.5, 0.0],
        "z0": [3.0, 2.0],
        "z_star": [1.0, 0.0],
    },
    "schedule": {"alpha": 0.2, "lambda": 0.5},
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_run_converges_and_reports(tmp_path):
    code, out, _ = _main(["run", _write(tmp_path, FEASIBLE)])
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert data["stop_reason"] == "residual-tol"
    assert data["feasibility"]["feasible"] is True
    assert data["certificate"]["valid"] is True
    assert data["consistency"]["verdict"] == "consistent"


def test_run_writes_csv_with_exact_header(tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, out, _ = _main(["run", _write(tmp_path, FEASIBLE), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "k,residual,err_norm,dist_to_star,delta_partial,min_residual_sq,rate_rhs"
    n = json.loads(out)["iterations"]
    assert len(lines) == n + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] == "nan" and first[5] == "nan" and first[6] == "nan"  # no k=0 certificate
    second = lines[2].split(",")
    assert float(second[5]) > 0.0
    assert float(second[6]) >= float(second[5])  # the bound holds row by row
    # every float is round-trippable at .17g
    for ln in lines[1:]:
        for cell in ln.split(",")[1:]:
            float(cell)


def test_run_nonconverged_exits_one(tmp_path):
    cfg = dict(FEASIBLE, engine={"max_iter": 3, "tol": 1e-10})
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 1
    assert json.loads(out)["stop_reason"] == "max-iter"


def test_run_without_solution_skips_certificate(tmp_path):
    cfg = json.loads(json.dumps(FEASIBLE))
    del cfg["problem"]["z_star"]
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 0
    data = json.loads(out)
    assert data["certificate"] is None
    assert data["final_dist"] is None


def test_validate_feasible_and_infeasible(tmp_path):
    code, out, _ = _main(["validate", _write(tmp_path, FEASIBLE)])
    assert code == 0
    assert json.loads(out)["feasible"] is True

    bad = dict(FEASIBLE, schedule={"alpha": 0.2, "lambda": 1.5})
    code, out, _ = _main(["validate", _write(tmp_path, bad, "bad.json")])
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_validate_theta_rescales_the_ceiling(tmp_path):
    cfg = dict(FEASIBLE, schedule={"alpha": 0.0, "lambda": 1.5})
    path = _write(tmp_path, cfg)
    code, plain, _ = _main(["validate", path])
    assert code == 1
    code, out, _ = _main(["validate", path, "--theta", "1"])
    assert code == 1 and out == plain
    code, out, _ = _main(["validate", path, "--theta", "0.5"])
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_validate_regime_ii_config(tmp_path):
    cfg = dict(FEASIBLE, schedule={"alpha": 0.1, "lambda": 0.5, "sigma": 0.01, "delta": 1.0})
    code, out, _ = _main(["validate", _write(tmp_path, cfg)])
    assert code == 0
    data = json.loads(out)
    assert data["condition_set"] == "II"
    assert data["lambda_max"] == pytest.approx(0.8016393442622951)


def test_regime_ii_config_keeps_its_alpha_cap(tmp_path):
    sched = {"alpha": 0.1, "lambda": 0.5, "sigma": 0.01, "delta": 1.0, "alpha_cap": 0.3}
    _, out, _ = _main(["validate", _write(tmp_path, dict(FEASIBLE, schedule=sched))])
    assert json.loads(out)["delta_threshold"] == delta_threshold(0.3, 0.01)


def test_compare_reports_iteration_ratio(tmp_path):
    code, out, _ = _main(["compare", _write(tmp_path, FEASIBLE)])
    assert code == 0
    data = json.loads(out)
    assert data["inertial"]["converged"] and data["plain"]["converged"]
    assert data["iteration_ratio"] == data["plain"]["iterations"] / data["inertial"]["iterations"]


def test_compare_plain_block_is_an_inexact_km_run(tmp_path):
    cfg = dict(
        FEASIBLE,
        schedule={"alpha": 0.2, "lambda": 0.5, "lambda_floor": 0.4, "lambda_ceiling": 0.6},
        errors={"kind": "power-decay", "magnitude": 1e-2, "exponent": 2.0, "seed": 11},
        engine={"tol": 1e-6, "max_iter": 5000},
    )
    code, out, _ = _main(["compare", _write(tmp_path, cfg)])
    assert code == 0
    run = inexact_km(
        cli.problem_from_config(cfg["problem"]),
        0.5,
        cli.errors_from_config(cfg["errors"]),
        tol=1e-6,
        max_iter=5000,
    )
    assert json.loads(out)["plain"] == {
        "stop_reason": run.stop_reason,
        "converged": run.converged,
        "iterations": run.iterations,
        "final_residual": run.residual,
        "final_dist": run.dist_to_star,
    }


def test_soft_threshold_problem_roundtrip(tmp_path):
    cfg = {
        "problem": {"kind": "soft-threshold", "gamma": 0.3, "dim": 4, "z0": [1.0, -2.0, 0.1, 0.6], "z_star": [0.0, 0.0, 0.0, 0.0]},
        "schedule": {"alpha": 0.1, "lambda": 0.8},
        "errors": {"kind": "geometric", "magnitude": 0.01, "ratio": 0.5, "seed": 3},
    }
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_bad_configs_exit_two(tmp_path):
    code, _, err = _main(["run", str(tmp_path / "missing.json")])
    assert code == 2
    assert err.startswith("error:")

    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = _main(["run", str(p)])
    assert code == 2

    cfg = dict(FEASIBLE, problem={"kind": "mystery", "z0": [1.0]})
    code, _, err = _main(["run", _write(tmp_path, cfg, "unknown.json")])
    assert code == 2
    assert "error:" in err


def test_run_rejects_bad_input_before_iterating(tmp_path, monkeypatch):
    def no_iterate(*args, **kwargs):
        raise AssertionError("iterate ran on a rejected config")

    monkeypatch.setattr(cli, "iterate", no_iterate)
    nan_matrix = json.loads(json.dumps(FEASIBLE))
    nan_matrix["problem"]["matrix"][0][1] = float("nan")
    code, out, err = _main(["run", _write(tmp_path, nan_matrix, "nan.json")])
    assert code == 2 and out == ""
    assert err.startswith("error: bad problem:") and "non-finite" in err

    alpha_one = dict(FEASIBLE, schedule={"alpha": 1.0, "lambda": 0.5, "sigma": 0.01, "delta": 1.0})
    code, out, err = _main(["run", _write(tmp_path, alpha_one, "alpha_one.json")])
    assert code == 2 and out == ""
    assert err.startswith("error: alpha_cap must be < 1")

    bad_engines = [
        ({"route": "bogus"}, "error: bad engine options: unknown route 'bogus'"),
        ({"max_iter": -3}, "error: bad engine options: max_iter must be nonnegative"),
        ({"route": "unwrap"}, "error: bad engine options: route 'unwrap' needs an averaged problem"),
        ({"tol": "nan"}, "error: bad engine options: tol must not be NaN"),
        ({"divergence_norm": float("nan")}, "error: bad engine options: divergence_norm must not be NaN"),
    ]
    for i, (engine, message) in enumerate(bad_engines):
        path = _write(tmp_path, dict(FEASIBLE, engine=engine), f"engine{i}.json")
        for command in ("run", "compare"):
            code, out, err = _main([command, path])
            assert code == 2 and out == ""
            assert err.startswith(message)


def test_box_projection_problem(tmp_path):
    cfg = {
        "problem": {"kind": "box-projection", "lo": [-1.0], "hi": [1.0], "z0": [4.0], "z_star": [1.0]},
        "schedule": {"alpha": 0.0, "lambda": 1.0, "lambda_ceiling": 1.0},
    }
    # ceiling pinned at 1.0 is infeasible in its regime but still runs
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 0
    data = json.loads(out)
    assert data["feasibility"]["feasible"] is False
    assert data["certificate"] is None  # no certificate without a feasible schedule
