"""Self-tests of the benchmark: every checker catches a wrong answer, and every
workload passes a tiny smoke pass on the current code.

Run from the checkout root:  python3 -m pytest -q perfbench/selftest.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import kmsolve  # noqa: E402
import kmsolve.engine  # noqa: E402
from perfbench import harness, spans, workloads  # noqa: E402

SEED = 5


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _run(job):
    out = job.run()
    return out, job.check(out)


def test_small_exact_checker_catches_one_ulp_change():
    rng = np.random.default_rng(0)
    q_orth, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    q = 0.9 * q_orth
    b = rng.standard_normal(8)
    z_star = np.linalg.solve(np.eye(8) - q, b)
    z0 = z_star + rng.standard_normal(8)
    run = kmsolve.iterate(
        kmsolve.Problem(operator=kmsolve.make_affine(q, b), z0=z0),
        kmsolve.constant_schedule(0.2, 0.5),
        tol=-1.0,
        max_iter=workloads.SMALL_STEPS,
    )
    z_ref, res_ref = workloads.reference_affine_km(q, b, z0, 0.2, 0.5, workloads.SMALL_STEPS)
    assert workloads.check_small_affine(run, (z_ref, res_ref), z_star)["ok"]

    z_bad = z_ref.copy()
    z_bad[3] = np.nextafter(z_bad[3], np.inf)
    assert not workloads.check_small_affine(run, (z_bad, res_ref), z_star)["ok"]
    res_bad = res_ref.copy()
    res_bad[-1] = np.nextafter(res_bad[-1], 0.0)
    assert not workloads.check_small_affine(run, (z_ref, res_bad), z_star)["ok"]
    assert not workloads.check_small_affine(run, (z_ref, res_ref), z_star + 1e-6)["ok"]


def test_small_exact_ppa_checker_catches_nonzero_limit():
    job = workloads.setup_small_exact(SEED, 2)[1]  # job 1 is a PPA job
    out, fact = _run(job)
    assert fact["ok"]
    out.z = out.z + 1e-6
    assert not workloads.check_small_ppa(out)["ok"]


def test_lasso_checker_catches_shifted_x_star():
    inst_job = workloads.setup_lasso_perturbed(SEED, 1)[0]
    out, fact = _run(inst_job)
    assert fact["ok"]
    x_star = out.problem.z_star
    assert workloads.check_lasso(out, x_star)["ok"]
    assert not workloads.check_lasso(out, x_star + 1e-3)["ok"]
    out.stop_reason = "max-iter"
    assert not workloads.check_lasso(out, x_star)["ok"]


def test_cli_checker_catches_truncated_csv(workdir):
    job = workloads.setup_cli_report(SEED, 1, workdir)[0]
    (code, stdout), fact = _run(job)
    assert fact["ok"]
    csv_path = os.path.join(workdir, "run.csv")
    with open(csv_path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(csv_path, "wb") as fh:
        fh.writelines(lines[:-1])
    assert not workloads.check_cli(code, stdout, csv_path)["ok"]


def test_cli_checker_catches_failed_certificate_and_exit_code(workdir):
    job = workloads.setup_cli_report(SEED, 1, workdir)[0]
    (code, stdout), fact = _run(job)
    assert fact["ok"]
    csv_path = os.path.join(workdir, "run.csv")
    summary = json.loads(stdout)
    summary["certificate"]["holds_squared"] = False
    assert not workloads.check_cli(code, json.dumps(summary), csv_path)["ok"]
    assert not workloads.check_cli(1, stdout, csv_path)["ok"]


def test_tally_counts_raised_jobs_as_failed():
    def boom():
        raise ValueError("bad input")

    tally = harness.Tally()
    ok = workloads.Job(run=lambda: 1, check=lambda out: {"ok": True})
    wrong = workloads.Job(run=lambda: 1, check=lambda out: {"ok": False})
    result = tally.run_pass([workloads.Job(run=boom, check=lambda out: {"ok": True}), wrong, ok])
    assert (tally.attempted, tally.failed, len(result.raw)) == (3, 2, 1)
    assert result.times[:2] == [None, None] and result.times[2] > 0.0


@pytest.mark.parametrize("workload", ["small-exact", "lasso-perturbed", "cli-report"])
def test_smoke_pass(workload, workdir):
    tally = harness.Tally(harness.Calibration(harness.CAL_KIND[workload]))
    result = tally.run_pass(harness.build(workload, SEED, workdir, n_jobs=2))
    assert tally.failed == 0, tally.messages
    assert len(result.raw) == 2 and all(f["ok"] for f in result.facts)


def test_job_seeds_do_not_depend_on_job_count():
    a = workloads.job_seeds(SEED, 3)
    b = workloads.job_seeds(SEED, 10)
    assert [s.generate_state(2).tolist() for s in a] == [s.generate_state(2).tolist() for s in b[:3]]


@pytest.mark.parametrize("workload", ["small-exact", "lasso-perturbed", "cli-report"])
def test_traced_run_bypass_predictions(workload, workdir, monkeypatch):
    monkeypatch.setitem(harness.TRACED_JOBS, workload, 2)
    original = kmsolve.engine.emit_error
    tally = harness.Tally()
    metrics, samples = harness.measure_per_layer(workload, SEED, 0.0, workdir, tally)
    assert tally.failed == 0, tally.messages
    assert kmsolve.engine.emit_error is original
    assert set(metrics) == set(spans.PER_LAYER_UNITS)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values()), metrics
    for name in ("engine.steps", "engine.self_us_per_step", "operators.us_per_call", "operators.spectral_norm_s"):
        assert metrics[name] > 0, name
    times = {name: entry["value"] for name, entry in samples["layer_times"].items()}
    assert set(times) == set(spans.LAYER_TIME_UNITS)
    if workload == "lasso-perturbed":
        assert metrics["schedules.emit_error_calls"] > 0
        assert metrics["applications.forward_per_step"] == pytest.approx(2.0, abs=0.01)
        assert times["schedules.emit_error_us_per_call"] > 0
    else:
        assert metrics["schedules.emit_error_calls"] == 0
        assert metrics["operators.forward_calls"] == metrics["applications.forward_per_step"] == 0
        assert times["schedules.emit_error_us_per_call"] is None
    cli_times = [n for n in times if n.startswith(("cli.", "diagnostics.", "schedules.validate"))]
    if workload == "cli-report":
        assert all(times[n] > 0 for n in cli_times)
        assert metrics["cli.csv_bytes"] > 0
    else:
        assert all(times[n] is None for n in cli_times)
        assert metrics["cli.csv_bytes"] == 0
    if workload == "small-exact":
        assert metrics["engine.steps"] == 2 * workloads.SMALL_STEPS
        assert times["operators.forward_us_per_call"] is None


def test_launcher_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-exact", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
