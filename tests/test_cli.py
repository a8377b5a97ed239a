"""Command-line interface: configs, CSV output, and exit codes."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from kmsolve import cli
from kmsolve.applications import lasso_fbs_pieces, plant_lasso, solve_fbs
from kmsolve.diagnostics import rate_certificate
from kmsolve.engine import Problem, iterate
from kmsolve.operators import make_soft_threshold, quadratic_gradient
from kmsolve.schedules import ErrorModel, constant_schedule, delta_threshold

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
    # an inertial run: its inertia sum is a series, which no finite run settles
    assert data["consistency"]["verdict"] == "unjudged"


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


def test_run_without_solution_names_why_the_certificate_is_missing(tmp_path):
    cfg = json.loads(json.dumps(FEASIBLE))
    del cfg["problem"]["z_star"]
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 0
    data = json.loads(out)
    assert data["certificate"] == {"valid": False, "reason": "needs a known solution"}
    assert data["final_dist"] is None


def test_an_inertial_run_without_solution_reads_unjudged_and_exits_zero(tmp_path):
    cfg = json.loads(json.dumps(FEASIBLE))
    del cfg["problem"]["z_star"]
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 0
    consistency = json.loads(out)["consistency"]
    items = {item["name"]: item for item in consistency["items"]}
    assert consistency["verdict"] == items["inertia-weighted-step-sum"]["verdict"] == "unjudged"
    assert items["inertia-weighted-step-sum"]["detail"] == "no finite run settles the series"
    assert items["bounded-iterates"]["verdict"] == items["weighted-error-sum"]["verdict"] == "consistent"


def test_run_prints_the_library_certificate_on_every_run(tmp_path):
    # the summary's certificate is rate_certificate's own verdict, valid or refused, never null
    problem, schedule, errors, opts = cli._load_run(FEASIBLE)
    cert = rate_certificate(iterate(problem, schedule, errors, **opts))
    code, out, _ = _main(["run", _write(tmp_path, FEASIBLE)])
    assert code == 0
    assert json.loads(out)["certificate"] == cert.to_dict()
    for steps in (0, 1):
        code, out, _ = _main(["run", _write(tmp_path, dict(FEASIBLE, engine={"max_iter": steps}), f"{steps}.json")])
        assert code == 1
        assert json.loads(out)["certificate"] == {"valid": False, "reason": "needs at least two iterations"}


def test_a_regime_ii_alpha_outside_zero_one_reads_infeasible(tmp_path):
    # regime II's formulas are undefined there: validate exits 1 with a report, run iterates and reports
    undefined = [
        "delta threshold undefined (needs 0 <= alpha_k < 1)",
        "lambda_max undefined (needs 0 <= alpha_k < 1, sigma >= 0 and delta > 0)",
    ]
    for alpha, broken in (
        (1.0, ["alpha_of(k) must be < 1 (max 1)"]),
        (-1.0, ["alpha_of(k) must be >= 0 (min -1)", "alpha_of must be nondecreasing"]),
    ):
        path = _write(tmp_path, dict(FEASIBLE, schedule={"alpha": alpha, "lambda": 0.5, "sigma": 0.01, "delta": 1.0}))
        code, out, err = _main(["validate", path])
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["violations"] == broken + undefined
        assert report["delta_threshold"] is None and report["lambda_max"] is None
        code, out, err = _main(["run", path])
        assert err == ""
        data = json.loads(out)
        assert data["iterations"] > 1 and code == (0 if data["converged"] else 1)
        assert data["feasibility"] == report


def test_a_traced_run_sees_every_layer_of_run(tmp_path):
    # the benchmark's traced run patches module globals of kmsolve.cli, .engine, .applications and
    # .operators; a call taken out of them goes unmeasured
    from perfbench import spans

    def traced(go):
        tracer = spans.Tracer()
        with spans.patched(tracer):
            value = go()
        return value, {span[0] for span in tracer.spans}

    (code, out, err), names = traced(
        lambda: _main(["run", _write(tmp_path, FEASIBLE), "--csv", str(tmp_path / "trace.csv")])
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["certificate"]["valid"] is True
    layers = {"engine", "operators.apply", "schedules.validate", "diagnostics.certificate", "diagnostics.consistency"}
    assert names >= layers | {"cli.write_csv"}

    # the lasso path: the SVD of its set-up, and the error draws of the engine and of solve_fbs; the
    # matrix is one no other test passes, so quadratic_gradient's memo misses and takes the SVD
    unseen = np.diag([3.0, 2.0, 1.0])
    assert "operators.spectral_norm" in traced(lambda: quadratic_gradient(unseen, np.zeros(3)))[1]
    prob = Problem(operator=make_soft_threshold(0.2, 2), z0=[1.0, -1.0])
    schedule, errors = constant_schedule(0.0, 0.5), ErrorModel.power_decay(1e-2, 2.0, seed=1)
    run, names = traced(lambda: iterate(prob, schedule, errors, max_iter=5))
    assert run.err_norms[0] > 0.0 and "schedules.emit_error" in names
    inst = plant_lasso(30, 20, 3, 0.5)
    rho = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    run, names = traced(
        lambda: solve_fbs(resolvent, forward, rho, inst.x_star, schedule, forward_errors=errors, max_iter=5)
    )
    assert run.err_norms[0] > 0.0 and "schedules.emit_error" in names


def test_validate_feasible_and_infeasible(tmp_path):
    code, out, _ = _main(["validate", _write(tmp_path, FEASIBLE)])
    assert code == 0
    assert json.loads(out)["feasible"] is True

    bad = dict(FEASIBLE, schedule={"alpha": 0.2, "lambda": 1.5})
    code, out, _ = _main(["validate", _write(tmp_path, bad, "bad.json")])
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_validate_theta_rescales_the_ceiling(tmp_path):
    # diag(0.5, 0.25) is certified 1/2-averaged, so the ceiling 1 becomes 2 and lambda = 1.5 is feasible
    schedule = {"alpha": 0.0, "lambda": 1.5}
    code, plain, _ = _main(["validate", _write(tmp_path, dict(FEASIBLE, schedule=schedule), "plain.json")])
    assert code == 1 and json.loads(plain)["scaling_theta"] == 1.0
    path = _write(tmp_path, dict(FEASIBLE, schedule=schedule, problem=dict(FEASIBLE["problem"], theta=0.5)))
    code, out, _ = _main(["validate", path])
    assert code == 0
    report = json.loads(out)
    assert (report["feasible"], report["scaling_theta"], report["lambda_max"]) == (True, 0.5, 2.0)
    # the operator is theta's only source: a flag for it is a usage error
    err = io.StringIO()
    with pytest.raises(SystemExit) as usage, redirect_stderr(err):
        cli.main(["validate", path, "--theta", "0.5"])
    assert usage.value.code == 2 and "unrecognized arguments: --theta 0.5" in err.getvalue()


def test_validate_without_a_problem_judges_at_theta_one(tmp_path):
    for lam, code in ((0.5, 0), (1.5, 1)):
        with_problem = dict(FEASIBLE, schedule={"alpha": 0.0, "lambda": lam})
        without = {"schedule": with_problem["schedule"]}
        want = _main(["validate", _write(tmp_path, with_problem, "with.json")])
        assert want[0] == code and json.loads(want[1])["scaling_theta"] == 1.0
        assert _main(["validate", _write(tmp_path, without, "without.json")]) == want


def test_run_prints_what_validate_prints_at_the_operator_theta(tmp_path):
    # a soft threshold is 1/2-averaged by construction: lambda = 1.5 sits under its ceiling 2
    soft = {"kind": "soft-threshold", "gamma": 0.3, "dim": 4, "z0": [1.0, -2.0, 0.1, 0.6], "z_star": [0.0] * 4}
    path = _write(tmp_path, {"problem": soft, "schedule": {"alpha": 0.0, "lambda": 1.5}})
    code, out, err = _main(["validate", path])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["feasible"], report["scaling_theta"], report["lambda_max"]) == (True, 0.5, 2.0)
    code, out, err = _main(["run", path])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["converged"] is True
    assert data["feasibility"] == report


def test_validate_regime_ii_config(tmp_path):
    cfg = dict(FEASIBLE, schedule={"alpha": 0.1, "lambda": 0.5, "sigma": 0.01, "delta": 1.0})
    code, out, _ = _main(["validate", _write(tmp_path, cfg)])
    assert code == 0
    data = json.loads(out)
    assert data["condition_set"] == "II"
    assert data["lambda_max"] == pytest.approx(0.8016393442622951)


def test_a_config_alpha_cap_is_ignored(tmp_path):
    # a schedule declares no cap; an "alpha_cap" left in a config changes nothing, whatever its value
    for sched in ({"alpha": 0.1, "lambda": 0.5, "sigma": 0.01, "delta": 1.0}, {"alpha": 0.2, "lambda": 0.5}):
        plain = dict(FEASIBLE, schedule=sched)
        for cap in (0.3, -1.0, "x", {}, None):
            capped = dict(FEASIBLE, schedule=dict(sched, alpha_cap=cap))
            for command in ("run", "validate", "compare"):
                want = _main([command, _write(tmp_path, plain, "plain.json")])
                assert want[0] in (0, 1) and want[2] == ""
                assert _main([command, _write(tmp_path, capped, "capped.json")]) == want, (sched, cap, command)
    regime_ii = {"alpha": 0.1, "lambda": 0.5, "sigma": 0.01, "delta": 1.0, "alpha_cap": 0.3}
    _, out, _ = _main(["validate", _write(tmp_path, dict(FEASIBLE, schedule=regime_ii))])
    assert json.loads(out)["delta_threshold"] == delta_threshold(0.1, 0.01)


def test_compare_reports_iteration_ratio(tmp_path):
    code, out, _ = _main(["compare", _write(tmp_path, FEASIBLE)])
    assert code == 0
    data = json.loads(out)
    assert data["inertial"]["converged"] and data["plain"]["converged"]
    assert data["iteration_ratio"] == data["plain"]["iterations"] / data["inertial"]["iterations"]


def test_compare_plain_block_is_the_zero_inertia_run(tmp_path):
    cfg = dict(
        FEASIBLE,
        schedule={"alpha": 0.2, "lambda": 0.5},
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

    bad_engines = [
        ({"max_iter": -3}, "error: bad engine options: max_iter must be a nonnegative integer, got -3\n"),
        ({"tol": "nan"}, "error: bad engine options: tol must be a real number other than NaN, got nan\n"),
        (
            {"divergence_norm": float("nan")},
            "error: bad engine options: divergence_norm must be a real number other than NaN, got nan\n",
        ),
    ]
    for i, (engine, message) in enumerate(bad_engines):
        path = _write(tmp_path, dict(FEASIBLE, engine=engine), f"engine{i}.json")
        for command in ("run", "compare"):
            code, out, err = _main([command, path])
            assert code == 2 and out == ""
            assert err == message

    nan_exponent = dict(FEASIBLE, errors={"kind": "power-decay", "magnitude": 1e-2, "exponent": "nan"})
    path = _write(tmp_path, nan_exponent, "nan_exponent.json")
    for command in ("run", "compare"):
        code, out, err = _main([command, path])
        assert code == 2 and out == ""
        assert err == "error: bad errors: exponent must be a finite real, got nan\n"

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
        ({"errors": dict(power, magnitude="big")}, "error: bad errors: magnitude must be a number, got 'big'"),
        ({"errors": dict(power, exponent="steep")}, "error: bad errors: exponent must be a number, got 'steep'"),
        ({"errors": dict(geometric, ratio="half")}, "error: bad errors: ratio must be a number, got 'half'"),
        ({"problem": dict(FEASIBLE["problem"], theta="half")}, "error: bad problem: theta must be a number, got 'half'"),
        ({"problem": dict(soft, gamma="wide", dim=2)}, "error: bad problem: gamma must be a number, got 'wide'"),
        # JSON true and false are not numbers, though float() reads them as 1 and 0
        ({"engine": {"tol": True}}, "error: bad engine options: tol must be a number, got True"),
        ({"engine": {"divergence_norm": False}}, "error: bad engine options: divergence_norm must be a number, got False"),
        ({"schedule": {"alpha": 0.2, "lambda": True}}, "error: bad schedule: lambda must be a number, got True"),
        ({"schedule": {"alpha": False, "lambda": 0.5}}, "error: bad schedule: alpha must be a number, got False"),
        ({"errors": dict(power, magnitude=True)}, "error: bad errors: magnitude must be a number, got True"),
        ({"errors": dict(geometric, ratio=True)}, "error: bad errors: ratio must be a number, got True"),
        ({"problem": dict(FEASIBLE["problem"], theta=True)}, "error: bad problem: theta must be a number, got True"),
        ({"problem": dict(soft, gamma=True, dim=2)}, "error: bad problem: gamma must be a number, got True"),
        ({"errors": {"kind": "custom-list", "norms": [0.1, True]}}, "error: bad errors: norms must be an array of numbers, got True"),
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
        ({"problem": dict(affine, matrix=[0.5, 0.0])}, "error: bad problem: matrix must be a matrix, got shape (2,)"),
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


def test_every_array_field_reads_numeric_strings_alike(tmp_path):
    # "norms": ["0.01", 0.001] exited 2 naming norms[0], while "z0": ["3.0", 2.0] ran
    numbers = {
        "problem": {"kind": "box-projection", "lo": [0.0, 0.0], "hi": [1.0, 1.0], "z0": [3.0, 2.0], "z_star": [1.0, 1.0]},
        "schedule": {"alpha": 0.1, "lambda": 0.5},
        "errors": {"kind": "custom-list", "norms": [0.01, 0.001], "seed": 3},
    }
    strings = json.loads(json.dumps(numbers))
    for section, key in [("problem", "lo"), ("problem", "hi"), ("problem", "z0"), ("problem", "z_star"), ("errors", "norms")]:
        strings[section][key] = [str(v) for v in numbers[section][key]]
    expected = _main(["run", _write(tmp_path, numbers, "numbers.json")])
    assert expected[0] == 0
    assert _main(["run", _write(tmp_path, strings, "strings.json")]) == expected


HUGE = 10**400  # a JSON integer that float() cannot convert


def test_numbers_outside_the_float_range_exit_two_by_name(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "iterate", lambda *args, **kwargs: pytest.fail("iterate ran on a rejected config"))
    power = {"kind": "power-decay", "magnitude": 1e-2, "exponent": 2.0}
    soft = {"kind": "soft-threshold", "gamma": 0.3, "dim": 2, "z0": [1.0, 2.0]}
    regime_ii = {"alpha": 0.0, "lambda": 0.5, "sigma": 0.01, "delta": 1.0}
    numbers = [
        ({"engine": {"tol": HUGE}}, "bad engine options: tol"),
        ({"engine": {"divergence_norm": HUGE}}, "bad engine options: divergence_norm"),
        ({"schedule": {"alpha": HUGE, "lambda": 0.5}}, "bad schedule: alpha"),
        ({"schedule": {"alpha": 0.2, "lambda": HUGE}}, "bad schedule: lambda"),
        ({"schedule": dict(regime_ii, sigma=HUGE)}, "bad schedule: sigma"),
        ({"schedule": dict(regime_ii, delta=HUGE)}, "bad schedule: delta"),
        ({"errors": dict(power, magnitude=HUGE)}, "bad errors: magnitude"),
        ({"errors": dict(power, exponent=HUGE)}, "bad errors: exponent"),
        ({"errors": {"kind": "geometric", "magnitude": 1e-2, "ratio": HUGE}}, "bad errors: ratio"),
        ({"problem": dict(FEASIBLE["problem"], theta=HUGE)}, "bad problem: theta"),
        ({"problem": dict(soft, gamma=HUGE)}, "bad problem: gamma"),
    ]
    cases = [(section, f"error: {field} must be a number, got {HUGE}") for section, field in numbers]
    affine = FEASIBLE["problem"]
    box = {"kind": "box-projection", "lo": [0.0, 0.0], "hi": [1.0, 1.0], "z0": [3.0, 2.0]}
    arrays = [
        ({"problem": dict(affine, z0=[HUGE, 2.0])}, "bad problem: z0"),
        ({"problem": dict(affine, z_star=[1.0, HUGE])}, "bad problem: z_star"),
        ({"problem": dict(affine, offset=[HUGE, 0.0])}, "bad problem: offset"),
        ({"problem": dict(affine, matrix=[[0.5, 0.0], [HUGE, 0.25]])}, "bad problem: matrix"),
        ({"problem": dict(box, lo=[HUGE, 0.0])}, "bad problem: lo"),
        ({"problem": dict(box, hi=[1.0, HUGE])}, "bad problem: hi"),
        ({"errors": {"kind": "custom-list", "norms": [0.1, HUGE]}}, "bad errors: norms"),
    ]
    cases += [
        (section, f"error: {field} contains an entry outside the float range")
        for section, field in arrays
    ]
    for i, (section, message) in enumerate(cases):
        path = _write(tmp_path, dict(FEASIBLE, **section), f"huge{i}.json")
        for command in ("run", "compare"):
            assert _main([command, path]) == (2, "", message + "\n"), (section, command)


def test_booleans_inside_array_fields_exit_two_by_name(tmp_path):
    # numpy reads true and false as 1 and 0; this config used to run from [1, 0] and exit 0
    found = dict(FEASIBLE["problem"], z0=[True, 0.0], z_star=[False, 0.0])
    affine = FEASIBLE["problem"]
    box = {"kind": "box-projection", "lo": [0.0, 0.0], "hi": [1.0, 1.0], "z0": [3.0, 2.0]}
    cases = [
        (found, "z0 must be an array of numbers, got True"),
        (dict(affine, z_star=[False, 0.0]), "z_star must be an array of numbers, got False"),
        (dict(affine, offset=[0.5, True]), "offset must be an array of numbers, got True"),
        (dict(affine, matrix=[[0.5, False], [0.0, 0.25]]), "matrix must be an array of numbers, got False"),
        (dict(affine, matrix=True), "matrix must be an array of numbers, got True"),
        (dict(box, lo=[False, 0.0]), "lo must be an array of numbers, got False"),
        (dict(box, hi=[1.0, True]), "hi must be an array of numbers, got True"),
    ]
    for i, (problem, message) in enumerate(cases):
        path = _write(tmp_path, dict(FEASIBLE, problem=problem), f"bool{i}.json")
        for command in ("run", "compare"):
            assert _main([command, path]) == (2, "", f"error: bad problem: {message}\n"), (problem, command)


def test_an_unreadable_config_exits_two(tmp_path):
    digits = tmp_path / "digits.json"  # json.loads refuses an integer of more than 4300 digits
    digits.write_text('{"engine": {"tol": 1' + "0" * 5000 + "}}")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"schedule": "\xe9"}')
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    for path in (digits, latin1, broken):
        code, out, err = _main(["run", str(path)])
        assert (code, out) == (2, "") and err.startswith("error: config is not valid JSON: "), path


def test_non_object_sections_exit_two(tmp_path, monkeypatch):
    def no_iterate(*args, **kwargs):
        raise AssertionError("iterate ran on a rejected config")

    monkeypatch.setattr(cli, "iterate", no_iterate)
    cases = [
        ("schedule", [1, 2], ("run", "validate", "compare")),
        ("schedule", None, ("run", "validate", "compare")),
        ("problem", "affine", ("run", "validate", "compare")),
        ("problem", None, ("run", "validate", "compare")),
        ("errors", [1], ("run", "validate", "compare")),
        ("engine", [1], ("run", "validate", "compare")),
        ("engine", "fast", ("run", "validate", "compare")),
    ]
    for i, (key, section, commands) in enumerate(cases):
        path = _write(tmp_path, dict(FEASIBLE, **{key: section}), f"section{i}.json")
        for command in commands:
            code, out, err = _main([command, path])
            assert (code, out) == (2, ""), (key, section, command)
            assert err == f"error: {key!r} must be a JSON object\n"

    # validate builds the problem for its theta, so a malformed problem exits 2 there as in run and compare
    bad_problem = _write(tmp_path, dict(FEASIBLE, problem=dict(FEASIBLE["problem"], theta="half")), "problem.json")
    for command in ("run", "validate", "compare"):
        assert _main([command, bad_problem]) == (2, "", "error: bad problem: theta must be a number, got 'half'\n")


@pytest.mark.parametrize(
    "cfg, commands, message",
    [
        ([1, 2], ("run", "validate", "compare"), "config must be a JSON object"),
        (dict(FEASIBLE, schedule={"alpha": 0.2}), ("run", "validate", "compare"), "missing 'lambda' in schedule"),
        ({"schedule": FEASIBLE["schedule"]}, ("run", "compare"), "missing 'problem' in config"),
        (dict(FEASIBLE, errors={"kind": "bogus"}), ("run", "validate", "compare"), "unknown error kind 'bogus'"),
    ],
)
def test_config_refusals_exit_two_with_their_message(tmp_path, monkeypatch, cfg, commands, message):
    monkeypatch.setattr(cli, "iterate", lambda *args, **kwargs: pytest.fail("iterate ran on a rejected config"))
    path = _write(tmp_path, cfg)
    for command in commands:
        assert _main([command, path]) == (2, "", f"error: {message}\n"), command


def test_validate_refuses_the_errors_and_engine_sections_run_refuses(tmp_path):
    soft = {"problem": {"kind": "soft-threshold", "gamma": 0.5, "dim": 3, "z0": [1.0, -2.0, 0.5]}, "schedule": {"lambda": 0.5}}
    cases = {
        "errors": ({"kind": "bogus"}, "error: unknown error kind 'bogus'\n"),
        "engine": ({"max_iter": -3}, "error: bad engine options: max_iter must be a nonnegative integer, got -3\n"),
    }
    assert _main(["validate", _write(tmp_path, soft, "soft.json")])[0] == 0
    for key, (section, message) in cases.items():
        path = _write(tmp_path, dict(soft, **{key: section}), f"{key}.json")
        for command in ("run", "validate", "compare"):
            assert _main([command, path]) == (2, "", message), (key, command)
        # without a problem, validate still checks the other sections
        path = _write(tmp_path, {"schedule": soft["schedule"], key: section}, f"{key}-alone.json")
        assert _main(["validate", path]) == (2, "", message), key


def test_null_optional_sections_read_as_empty(tmp_path):
    code, out, _ = _main(["run", _write(tmp_path, dict(FEASIBLE, errors=None, engine=None))])
    assert code == 0
    assert out == _main(["run", _write(tmp_path, FEASIBLE, "plain.json")])[1]


@pytest.mark.parametrize(
    "section",
    ["absent", None, {}, {"kind": "zero"}, {"kind": "zero", "seed": 3}],
    ids=["absent", "null", "empty", "zero", "zero-seeded"],
)
def test_an_exact_config_declares_no_error_law(tmp_path, section):
    cfg = dict(FEASIBLE) if section == "absent" else dict(FEASIBLE, errors=section)
    problem, schedule, errors, opts = cli._load_run(cfg)
    assert errors is None and iterate(problem, schedule, errors, **opts).errors == ()
    items = {item["name"]: item for item in json.loads(_main(["run", _write(tmp_path, cfg)])[1])["consistency"]["items"]}
    assert items["weighted-error-sum"] == {
        "name": "weighted-error-sum",
        "value": 0.0,
        "verdict": "consistent",
        "detail": "no errors recorded",
    }


def test_a_zero_error_law_prints_what_no_errors_prints(tmp_path):
    # a zero law has no directions to draw, so its seed changes nothing
    zero = dict(FEASIBLE, errors={"kind": "zero", "seed": 3})
    for command in ("run", "compare"):
        want = _main([command, _write(tmp_path, FEASIBLE, "plain.json")])
        assert want[0] == 0
        assert _main([command, _write(tmp_path, zero, "zero.json")]) == want


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
    # no error was recorded, though lambda * 0 is NaN: the weighted-error sum is 0 by definition
    items = {item["name"]: item for item in data["consistency"]["items"]}
    error_sum = items["weighted-error-sum"]
    assert (error_sum["value"], error_sum["verdict"], error_sum["detail"]) == (0.0, "consistent", "no errors recorded")
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
    assert runs[0][1].valid
    assert runs[1][1].to_dict() == {"valid": False, "reason": "needs a known solution"}
    out_of_range = "needs 0 < lambda_k < 1 on steps 1..1 (min 1e+100, max 1e+100)"
    assert runs[2][1].to_dict() == {"valid": False, "reason": out_of_range}


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
    # lambda = 1 is feasible under the projection's ceiling 1/theta = 2
    code, out, _ = _main(["run", _write(tmp_path, cfg)])
    assert code == 0
    data = json.loads(out)
    assert (data["feasibility"]["feasible"], data["feasibility"]["scaling_theta"]) == (True, 0.5)
    # no certificate where a lambda_k it sums is 1
    assert data["certificate"] == {
        "valid": False,
        "reason": f"needs 0 < lambda_k < 1 on steps 1..{data['iterations'] - 1} (min 1, max 1)",
    }
