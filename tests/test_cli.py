"""Command-line interface: configs, CSV output, and exit codes."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from kmsolve import cli
from kmsolve.engine import iterate
from kmsolve.schedules import constant_schedule, delta_threshold

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


def test_engine_route_key_is_ignored(tmp_path):
    # every run takes the one loop: a "route" left in a config is ignored like
    # any unknown key, even "unwrap" on a theta = 1 problem
    for command in ("run", "compare"):
        plain = _main([command, _write(tmp_path, FEASIBLE, "plain.json")])
        assert plain[0] == 0 and plain[2] == ""
        assert "route" not in plain[1]
        for route in ("unwrap", "direct", "bogus"):
            cfg = dict(FEASIBLE, engine={"route": route})
            assert _main([command, _write(tmp_path, cfg, f"{route}.json")]) == plain, (command, route)


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


def test_run_certifies_a_far_start(tmp_path):
    # T z = -0.9 z from (100, 0): dist1 = 5, and at k = 1 the best squared
    # residual 90.25 sits under the bound 5^2 / (1/2 * 1/2) = 100
    cfg = {
        "problem": {
            "kind": "affine",
            "matrix": [[-0.9, 0.0], [0.0, -0.9]],
            "offset": [0.0, 0.0],
            "z0": [100.0, 0.0],
            "z_star": [0.0, 0.0],
        },
        "schedule": {"alpha": 0.0, "lambda": 0.5},
    }
    csv_path = tmp_path / "trace.csv"
    code, out, _ = _main(["run", _write(tmp_path, cfg), "--csv", str(csv_path)])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert set(cert) == {
        "valid",
        "reason",
        "ceiling",
        "lambda_floor",
        "dist1",
        "holds_squared",
        "final_min_residual_sq",
        "final_rhs_squared",
    }
    assert cert["dist1"] == 5.0
    assert cert["holds_squared"] is True
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
    assert rows[0][5:] == ["90.25", "100"]
    assert all(float(row[6]) >= float(row[5]) for row in rows)


def test_run_nonconverged_exits_one(tmp_path):
    cfg = dict(FEASIBLE, engine={"max_iter": 3, "tol": 1e-10})
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 1
    assert json.loads(out)["stop_reason"] == "max-iter"


def test_run_survives_an_error_law_past_the_float_range(tmp_path):
    # norm_at(5) of this summable law needs 6.0 ** 400, which overflows a float
    cfg = {
        "problem": {
            "kind": "affine",
            "matrix": [[0.5, 0], [0, 0.5]],
            "offset": [0, 0],
            "z0": [1, 1],
            "z_star": [0, 0],
        },
        "schedule": {"alpha": 0.0, "lambda": 0.5},
        "errors": {"kind": "power-decay", "magnitude": 1.0, "exponent": 400, "seed": 3},
        "engine": {"tol": 1e-12, "max_iter": 100},
    }
    code, out, err = _main(["run", _write(tmp_path, cfg)])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["stop_reason"] == "residual-tol"
    assert data["certificate"]["holds_squared"] is True


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


def test_regime_ii_config_refuses_a_lambda_ceiling(tmp_path):
    sched = {"alpha": 0.1, "lambda": 0.7, "sigma": 0.01, "delta": 1.0, "lambda_ceiling": 0.5}
    path = _write(tmp_path, dict(FEASIBLE, schedule=sched))
    for command in ("run", "validate", "compare"):
        code, out, err = _main([command, path])
        assert (code, out) == (2, ""), command
        assert err.startswith("error: bad schedule: lambda_ceiling is regime I only"), command
    # a null lambda_ceiling reads as absent
    sched["lambda_ceiling"] = None
    assert _main(["validate", _write(tmp_path, dict(FEASIBLE, schedule=sched))])[0] == 0


def test_compare_reports_iteration_ratio(tmp_path):
    code, out, _ = _main(["compare", _write(tmp_path, FEASIBLE)])
    assert code == 0
    data = json.loads(out)
    assert data["inertial"]["converged"] and data["plain"]["converged"]
    assert data["iteration_ratio"] == data["plain"]["iterations"] / data["inertial"]["iterations"]


def test_compare_plain_block_is_the_zero_inertia_run(tmp_path):
    cfg = dict(
        FEASIBLE,
        schedule={"alpha": 0.2, "lambda": 0.5, "lambda_floor": 0.4, "lambda_ceiling": 0.6},
        errors={"kind": "power-decay", "magnitude": 1e-2, "exponent": 2.0, "seed": 11},
        engine={"tol": 1e-6, "max_iter": 5000},
    )
    code, out, _ = _main(["compare", _write(tmp_path, cfg)])
    assert code == 0
    run = iterate(
        cli.problem_from_config(cfg["problem"]),
        constant_schedule(0.0, 0.5),
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
        ({"max_iter": -3}, "error: bad engine options: max_iter must be nonnegative"),
        ({"tol": "nan"}, "error: bad engine options: tol must not be NaN"),
        ({"divergence_norm": float("nan")}, "error: bad engine options: divergence_norm must not be NaN"),
    ]
    for i, (engine, message) in enumerate(bad_engines):
        path = _write(tmp_path, dict(FEASIBLE, engine=engine), f"engine{i}.json")
        for command in ("run", "compare"):
            code, out, err = _main([command, path])
            assert code == 2 and out == ""
            assert err.startswith(message)

    nan_exponent = dict(FEASIBLE, errors={"kind": "power-decay", "magnitude": 1e-2, "exponent": "nan"})
    path = _write(tmp_path, nan_exponent, "nan_exponent.json")
    for command in ("run", "compare"):
        code, out, err = _main([command, path])
        assert code == 2 and out == ""
        assert err.startswith("error: bad errors: exponent must be finite")

    false_claim = dict(FEASIBLE["problem"], matrix=[[-0.99, 0.0], [0.0, -0.99]], theta=0.5)
    path = _write(tmp_path, dict(FEASIBLE, problem=false_claim), "false_claim.json")
    for command in ("run", "compare"):
        code, out, err = _main([command, path])
        assert code == 2 and out == ""
        assert err.startswith("error: bad problem: spectral norm certificate failed")

    # integer fields refuse what int() would truncate or read as 0/1
    power = {"kind": "power-decay", "magnitude": 1e-2, "exponent": 2.0}
    soft = {"kind": "soft-threshold", "gamma": 0.3, "z0": [1.0, 2.0]}
    not_integers = [
        ({"engine": {"max_iter": 2.7}}, "error: bad engine options: max_iter must be an integer, got 2.7"),
        ({"engine": {"max_iter": True}}, "error: bad engine options: max_iter must be an integer, got True"),
        ({"errors": dict(power, seed=1.5)}, "error: bad errors: seed must be an integer, got 1.5"),
        ({"errors": dict(power, seed=False)}, "error: bad errors: seed must be an integer, got False"),
        ({"problem": dict(soft, dim=2.5)}, "error: bad problem: dim must be an integer, got 2.5"),
        ({"problem": {"kind": "identity", "dim": True, "z0": [1.0]}}, "error: bad problem: dim must be an integer, got True"),
        ({"errors": dict(power, seed="5")}, "error: bad errors: seed must be an integer, got '5'"),
        ({"errors": dict(power, seed="abc")}, "error: bad errors: seed must be an integer, got 'abc'"),
        ({"engine": {"max_iter": "100"}}, "error: bad engine options: max_iter must be an integer, got '100'"),
        ({"problem": dict(soft, dim="2")}, "error: bad problem: dim must be an integer, got '2'"),
        ({"errors": dict(power, seed=None)}, "error: bad errors: seed must be an integer, got None"),
    ]
    # real fields name themselves when float() cannot read the value
    geometric = {"kind": "geometric", "magnitude": 1e-2, "ratio": 0.5}
    not_numbers = [
        ({"engine": {"tol": "fast"}}, "error: bad engine options: tol must be a number, got 'fast'"),
        ({"engine": {"divergence_norm": [1.0]}}, "error: bad engine options: divergence_norm must be a number, got [1.0]"),
        ({"schedule": {"alpha": 0.2, "lambda": "fast"}}, "error: bad schedule: lambda must be a number, got 'fast'"),
        ({"schedule": {"alpha": "none", "lambda": 0.5}}, "error: bad schedule: alpha must be a number, got 'none'"),
        ({"schedule": {"alpha": 0.0, "lambda": 0.5, "sigma": "x", "delta": 1.0}}, "error: bad schedule: sigma must be a number, got 'x'"),
        ({"schedule": {"alpha": 0.2, "lambda": 0.5, "alpha_cap": {}}}, "error: bad schedule: alpha_cap must be a number, got {}"),
        ({"errors": dict(power, magnitude="big")}, "error: bad errors: magnitude must be a number, got 'big'"),
        ({"errors": dict(power, exponent="steep")}, "error: bad errors: exponent must be a number, got 'steep'"),
        ({"errors": dict(geometric, ratio="half")}, "error: bad errors: ratio must be a number, got 'half'"),
        ({"problem": dict(FEASIBLE["problem"], theta="half")}, "error: bad problem: theta must be a number, got 'half'"),
        ({"problem": dict(soft, gamma="wide", dim=2)}, "error: bad problem: gamma must be a number, got 'wide'"),
    ]
    # array fields name themselves when numpy cannot read them as float arrays
    affine = FEASIBLE["problem"]
    box = {"kind": "box-projection", "lo": [0.0, 0.0], "hi": [1.0, 1.0], "z0": [3.0, 2.0]}
    no_float = "could not convert string to float"
    not_arrays = [
        ({"problem": dict(affine, z0=[3.0, "a"])}, f"error: bad problem: z0 must be an array of numbers: {no_float}: 'a'"),
        ({"problem": dict(affine, z_star=[1.0, "b"])}, f"error: bad problem: z_star must be an array of numbers: {no_float}: 'b'"),
        ({"problem": dict(affine, matrix="x")}, f"error: bad problem: matrix must be an array of numbers: {no_float}: 'x'"),
        ({"problem": dict(affine, matrix=[[0.5, "x"], [0.0, 0.25]])}, f"error: bad problem: matrix must be an array of numbers: {no_float}: 'x'"),
        ({"problem": dict(affine, offset=[0.5, "y"])}, f"error: bad problem: offset must be an array of numbers: {no_float}: 'y'"),
        ({"problem": dict(box, lo=["low", 0.0])}, f"error: bad problem: lo must be an array of numbers: {no_float}: 'low'"),
        ({"problem": dict(box, hi=[1.0, "high"])}, f"error: bad problem: hi must be an array of numbers: {no_float}: 'high'"),
        ({"errors": {"kind": "custom-list", "norms": 5}}, "error: bad errors: norms must be a list of numbers, got 5"),
        ({"errors": {"kind": "custom-list", "norms": "12"}}, "error: bad errors: norms must be a list of numbers, got '12'"),
        ({"errors": {"kind": "custom-list", "norms": [0.1, "a"]}}, f"error: bad errors: norms must be an array of numbers: {no_float}: 'a'"),
    ]
    # shape and finiteness errors of the affine arrays name the config field
    bad_shapes = [
        ({"problem": dict(affine, matrix=[[0.5, 0.0, 1.0]])}, "error: bad problem: matrix must be a square matrix, got shape (1, 3)"),
        ({"problem": dict(affine, matrix=[0.5, 0.0])}, "error: bad problem: matrix must be a square matrix, got shape (2,)"),
        ({"problem": dict(affine, offset=[1.0])}, "error: bad problem: offset has dimension 1, expected 2"),
        ({"problem": dict(affine, offset=[[1.0], [0.0]])}, "error: bad problem: offset must be a vector, got shape (2, 1)"),
        ({"problem": dict(affine, offset=[1.0, None])}, "error: bad problem: offset contains non-finite entries"),
        ({"problem": dict(affine, matrix=[[0.5, None], [0.0, 0.25]])}, "error: bad problem: matrix contains non-finite entries"),
    ]
    for i, (section, message) in enumerate(not_integers + not_numbers + not_arrays + bad_shapes):
        path = _write(tmp_path, dict(FEASIBLE, **section), f"not_integer{i}.json")
        for command in ("run", "compare"):
            code, out, err = _main([command, path])
            assert (code, out) == (2, ""), (section, command)
            assert err == message + "\n"


def test_integral_floats_read_as_integers(tmp_path):
    ints = {
        "problem": {"kind": "soft-threshold", "gamma": 0.3, "dim": 4, "z0": [1.0, -2.0, 0.1, 0.6]},
        "schedule": {"alpha": 0.1, "lambda": 0.8},
        "errors": {"kind": "geometric", "magnitude": 0.01, "ratio": 0.5, "seed": 3},
        "engine": {"max_iter": 100000},
    }
    floats = json.loads(json.dumps(ints))
    floats["problem"]["dim"] = 4.0
    floats["errors"]["seed"] = 3.0
    floats["engine"]["max_iter"] = 1e5
    expected = _main(["run", _write(tmp_path, ints, "ints.json")])
    assert expected[0] == 0
    assert _main(["run", _write(tmp_path, floats, "floats.json")]) == expected


def test_non_object_sections_exit_two(tmp_path, monkeypatch):
    def no_iterate(*args, **kwargs):
        raise AssertionError("iterate ran on a rejected config")

    monkeypatch.setattr(cli, "iterate", no_iterate)
    cases = [
        ("schedule", [1, 2], ("run", "validate", "compare")),
        ("schedule", None, ("run", "validate", "compare")),
        ("problem", "affine", ("run", "compare")),
        ("errors", [1], ("run", "compare")),
        ("engine", [1], ("run", "compare")),
        ("engine", "fast", ("run", "compare")),
    ]
    for i, (key, section, commands) in enumerate(cases):
        path = _write(tmp_path, dict(FEASIBLE, **{key: section}), f"section{i}.json")
        for command in commands:
            code, out, err = _main([command, path])
            assert (code, out) == (2, ""), (key, section, command)
            assert err == f"error: {key!r} must be a JSON object\n"

    # validate reads only the schedule
    code, out, _ = _main(["validate", _write(tmp_path, dict(FEASIBLE, problem="affine"), "validate.json")])
    assert code == 0 and json.loads(out)["feasible"] is True


def test_null_optional_sections_read_as_empty(tmp_path):
    code, out, _ = _main(["run", _write(tmp_path, dict(FEASIBLE, errors=None, engine=None))])
    assert code == 0
    assert out == _main(["run", _write(tmp_path, FEASIBLE, "plain.json")])[1]


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


# zero inertia, a relaxation that overflows the state in a few steps
DIVERGING = {
    "problem": {"kind": "affine", "matrix": [[-1.0]], "offset": [0.0], "z0": [1.0]},
    "schedule": {"alpha": 0.0, "lambda": 1e100},
    "engine": {"max_iter": 5, "divergence_norm": 1e308},
}


def test_stdout_is_strict_json_on_non_finite_values(tmp_path):
    code, out, _ = _main(["run", _write(tmp_path, DIVERGING)])
    assert code == 1
    data = _strict_json(out)
    assert data["stop_reason"] == "diverged"
    items = {item["name"]: item for item in data["consistency"]["items"]}
    assert items["bounded-iterates"]["verdict"] == "not-consistent"
    assert items["bounded-iterates"]["value"] is None
    assert items["inertia-weighted-step-sum"]["detail"] == "no inertia"
    _strict_json(_main(["compare", _write(tmp_path, DIVERGING, "compare.json")])[1])

    nan_lambda = _write(tmp_path, dict(FEASIBLE, schedule={"alpha": 0.0, "lambda": "nan"}), "nan.json")
    for argv in (["run", nan_lambda], ["validate", nan_lambda], ["compare", nan_lambda]):
        code, out, _ = _main(argv)
        assert code == 1
        _strict_json(out)
    assert _strict_json(_main(["validate", nan_lambda])[1])["feasible"] is False


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_a_lost_state_is_not_reported_as_convergence(tmp_path, lam):
    # the identity's residual is 0 at every point, and lambda * 0 is NaN
    cfg = {"problem": {"kind": "identity", "dim": 2, "z0": [1.0, 2.0]}, "schedule": {"alpha": 0.0, "lambda": lam}}
    path = _write(tmp_path, cfg)
    code, out, _ = _main(["run", path])
    assert code == 1
    data = _strict_json(out)
    assert (data["stop_reason"], data["converged"]) == ("diverged", False)
    code, out, _ = _main(["compare", path])
    assert code == 1
    data = _strict_json(out)
    assert data["inertial"]["stop_reason"] == data["plain"]["stop_reason"] == "diverged"


def test_an_infinite_gamma_is_a_bad_config(tmp_path):
    problem = {"kind": "soft-threshold", "gamma": "inf", "dim": 2, "z0": [1.0, 2.0]}
    path = _write(tmp_path, dict(FEASIBLE, problem=problem))
    for command in ("run", "compare"):
        code, out, err = _main([command, path])
        assert code == 2 and out == ""
        assert err.startswith("error: bad problem: gamma must be a finite positive real, got inf")


def test_csv_cells_are_the_run_arrays_at_17_digits(tmp_path, monkeypatch):
    runs = []
    write_csv = cli.write_csv

    def keep(path, result, cert):
        runs.append((result, cert))
        write_csv(path, result, cert)

    monkeypatch.setattr(cli, "write_csv", keep)
    no_star = json.loads(json.dumps(FEASIBLE))
    del no_star["problem"]["z_star"]
    for i, cfg in enumerate((FEASIBLE, no_star, DIVERGING)):
        csv_path = tmp_path / f"trace{i}.csv"
        _main(["run", _write(tmp_path, cfg, f"cfg{i}.json"), "--csv", str(csv_path)])
        result, cert = runs[-1]
        n = result.iterations
        nan = float("nan")
        mrs = [nan] + [min(r * r for r in result.residuals[1 : k + 1]) for k in range(1, n)]
        bound = dict(zip(cert.ks.tolist(), zip(cert.delta, cert.rhs_squared))) if cert else {}
        want = [cli.CSV_HEADER]
        for k in range(n):
            d = result.dists[k] if result.dists is not None else nan
            delta, rhs = bound.get(k, (nan, nan))
            row = [result.residuals[k], result.err_norms[k], d, delta, mrs[k], rhs]
            want.append(",".join([str(k)] + [format(float(x), ".17g") for x in row]))
        assert csv_path.read_text().split("\n") == want + [""]
    assert runs[0][1].valid and runs[1][1] is None and runs[2][1] is None


def test_bench_prints_one_timed_line_per_criterion(monkeypatch):
    from kmsolve import acceptance

    passing = ((1, "first", lambda: (True, "one"), None), (2, "second", lambda: (True, "two"), 60.0))
    monkeypatch.setattr(acceptance, "CRITERIA", passing)
    code, out, _ = _main(["bench"])
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2
    assert lines[0].startswith("criterion 1 (first): PASS [one; ")
    assert lines[1].startswith("criterion 2 (second): PASS [two; ")
    assert all(re.fullmatch(r".*; \d+\.\d\ds\]", line) for line in lines)

    monkeypatch.setattr(acceptance, "CRITERIA", (passing[0], (2, "second", lambda: (False, "two"), None)))
    code, out, _ = _main(["bench"])
    assert code == 1
    assert out.splitlines()[1].startswith("criterion 2 (second): FAIL [two; ")


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
