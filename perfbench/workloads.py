"""The benchmark workloads: set-up, jobs and answer checks.

A workload's set-up turns the benchmark seed into a fixed job list
through kmsolve's public constructors.  Each job is a `Job`: `run()`
produces the answer and is the only timed part, `check(out)` verifies
that answer and returns a dict of facts (`ok`, plus counts such as
`steps` for the traced run).  The checkers are plain functions so the
self-tests can hand them wrong answers.

`wrap(name, fn)` is applied to every callable the benchmark hands to
the library and to every call the benchmark makes into it.  Untraced
runs pass `no_wrap`, which returns the callable itself, so the untraced
jobs run exactly the objects a user would build.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import kmsolve
from kmsolve import cli

WORKLOADS = ("small-exact", "lasso-perturbed", "cli-report")

# Short job lists, so that a run makes several passes and still holds
# well over 100 job samples.
JOBS_PER_PASS = {"small-exact": 40, "lasso-perturbed": 20, "cli-report": 40}

# Set-up repetitions per run; `setup_s` is their median.
SETUP_REPS = {"small-exact": 31, "lasso-perturbed": 15, "cli-report": 25}

# small-exact: dim-8 jobs at a pinned horizon (tol < 0 disables the residual stop).
SMALL_DIM = 8
SMALL_STEPS = 2000
SMALL_FACTOR = 0.9  # affine contraction factor of the scaled rotation
SMALL_GAMMA = 0.3  # soft-threshold level of the PPA jobs
SMALL_TOL = 1e-10  # final distance to the planted fixed point

# lasso-perturbed: planted lasso solved by perturbed forward-backward splitting.
LASSO_SHAPE = (300, 200)
LASSO_SUPPORT = 20
LASSO_REG = 0.5
LASSO_START_DIST = 0.8
LASSO_TOL = 1e-8
LASSO_MATCH_TOL = 1e-6

# cli-report: `kmsolve run --csv` on a slowly contracting affine prox.
CLI_DIM = 20
CLI_LOG10_EIG_MIN = -2.5
CLI_START_DIST = 0.8
CLI_TOL = 1e-10


def no_wrap(name: str, fn: Callable) -> Callable:
    return fn


@dataclass
class Job:
    run: Callable[[], object]
    check: Callable[[object], dict]


def job_seeds(seed: int, n_jobs: int) -> list[np.random.SeedSequence]:
    """One independent SeedSequence per job, spawned from the workload seed."""
    return np.random.SeedSequence(seed).spawn(n_jobs)


def _int_seeds(ss: np.random.SeedSequence, n: int) -> list[int]:
    """n distinct nonnegative ints for the library's integer seed arguments."""
    words = ss.generate_state(4 * n)
    out: list[int] = []
    for w in words:
        if int(w) not in out:
            out.append(int(w))
        if len(out) == n:
            return out
    raise RuntimeError("could not draw distinct seeds")


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / math.sqrt(float(v @ v))


def _traced_spec(spec, name: str, wrap):
    if wrap is no_wrap:
        return spec
    return replace(spec, apply=wrap(name, spec.apply))


# --- small-exact -----------------------------------------------------------


def reference_affine_km(q, b, z0, alpha: float, lam: float, steps: int):
    """Plain-numpy restatement of the engine step on x -> q x + b.

        mu^k    = z^k + alpha (z^k - z^{k-1})
        z^{k+1} = mu^k + lambda (T mu^k - mu^k)

    with the residual ||T mu^k - mu^k|| recorded before the update, as the
    engine does on its direct route with zero errors.  Returns the final
    state and the residuals.
    """
    z_prev = z0
    z = z0
    residuals = np.empty(steps)
    for k in range(steps):
        mu = z if alpha == 0.0 else z + alpha * (z - z_prev)
        t_mu = q @ mu + b
        d = t_mu - mu
        residuals[k] = math.sqrt(float(np.dot(d, d)))
        z_prev = z
        z = mu + lam * (t_mu - mu)
    return z, residuals


def check_small_affine(run, ref, z_star) -> dict:
    """Bit-identity against the reference loop, then convergence to z_star."""
    z_ref, res_ref = ref
    identical = bool(np.array_equal(run.z, z_ref)) and bool(np.array_equal(run.residuals, res_ref))
    converged = float(np.max(np.abs(run.z - z_star))) <= SMALL_TOL
    return {"ok": identical and converged and run.iterations == SMALL_STEPS, "steps": run.iterations}


def check_small_ppa(run) -> dict:
    """The soft threshold's only fixed point is 0."""
    converged = float(np.max(np.abs(run.z))) <= SMALL_TOL
    return {"ok": converged and run.iterations == SMALL_STEPS, "steps": run.iterations}


def setup_small_exact(seed: int, n_jobs: int, wrap=no_wrap) -> list[Job]:
    """Even jobs: affine scaled rotation through `iterate`, alpha 0.2, lambda 0.5, direct.
    Odd jobs: soft-threshold proximal point through `solve_ppa`, alpha 0.1, lambda 1.5, unwrap."""
    iterate = wrap("engine", kmsolve.iterate)
    solve_ppa = wrap("engine", kmsolve.solve_ppa)
    jobs = []
    for i, ss in enumerate(job_seeds(seed, n_jobs)):
        rng = np.random.default_rng(ss)
        if i % 2 == 0:
            q_orth, _ = np.linalg.qr(rng.standard_normal((SMALL_DIM, SMALL_DIM)))
            q = SMALL_FACTOR * q_orth
            z_star = _unit(rng, SMALL_DIM)
            b = z_star - q @ z_star
            z0 = z_star + 0.8 * _unit(rng, SMALL_DIM)
            spec = _traced_spec(kmsolve.make_affine(q, b), "operators.apply", wrap)
            problem = kmsolve.Problem(operator=spec, z0=z0)
            schedule = kmsolve.constant_schedule(0.2, 0.5)
            jobs.append(_small_affine_job(iterate, problem, schedule, q, b, z_star))
        else:
            spec = _traced_spec(
                kmsolve.make_soft_threshold(SMALL_GAMMA, SMALL_DIM), "operators.apply", wrap
            )
            z0 = rng.uniform(-2.0, 2.0, SMALL_DIM)
            schedule = kmsolve.constant_schedule(0.1, 1.5)

            def run(spec=spec, z0=z0, schedule=schedule):
                return solve_ppa(spec, z0, schedule, route="unwrap", tol=-1.0, max_iter=SMALL_STEPS)

            jobs.append(Job(run=run, check=check_small_ppa))
    return jobs


def _small_affine_job(iterate, problem, schedule, q, b, z_star) -> Job:
    ref = []  # computed on first check, outside the timed region

    def run():
        return iterate(problem, schedule, tol=-1.0, max_iter=SMALL_STEPS)

    def check(out):
        if not ref:
            ref.append(reference_affine_km(q, b, problem.z0, 0.2, 0.5, SMALL_STEPS))
        return check_small_affine(out, ref[0], z_star)

    return Job(run=run, check=check)


# --- lasso-perturbed -------------------------------------------------------


def check_lasso(run, x_star) -> dict:
    gap = float(np.max(np.abs(run.z - x_star)))
    return {"ok": run.stop_reason == "residual-tol" and gap <= LASSO_MATCH_TOL, "steps": run.iterations}


def setup_lasso_perturbed(seed: int, n_jobs: int, wrap=no_wrap) -> list[Job]:
    """One planted 300x200 lasso per job, solved by `solve_fbs` with alpha 0.2,
    lambda 1.2 and power_decay(1e-2, 2) errors on both channels."""
    solve_fbs = wrap("engine", kmsolve.solve_fbs)
    schedule = kmsolve.constant_schedule(0.2, 1.2)
    jobs = []
    for ss in job_seeds(seed, n_jobs):
        inst_seed, fwd_seed, res_seed = _int_seeds(ss, 3)
        inst = kmsolve.plant_lasso(*LASSO_SHAPE, LASSO_SUPPORT, LASSO_REG, seed=inst_seed)
        rho = kmsolve.quadratic_gradient(inst.matrix, inst.rhs).beta
        resolvent, forward = kmsolve.lasso_fbs_pieces(inst, rho)
        resolvent = _traced_spec(resolvent, "operators.resolvent", wrap)
        if wrap is not no_wrap:
            forward = kmsolve.IsmOperator(apply=wrap("operators.forward", forward.apply), beta=forward.beta)
        rng = np.random.default_rng(ss)
        z0 = inst.x_star + LASSO_START_DIST * _unit(rng, LASSO_SHAPE[1])
        fe = kmsolve.ErrorModel.power_decay(1e-2, 2.0, seed=fwd_seed)
        re = kmsolve.ErrorModel.power_decay(1e-2, 2.0, seed=res_seed)

        def run(resolvent=resolvent, forward=forward, rho=rho, z0=z0, fe=fe, re=re, inst=inst):
            return solve_fbs(
                resolvent,
                forward,
                rho,
                z0,
                schedule,
                forward_errors=fe,
                resolvent_errors=re,
                z_star=inst.x_star,
                tol=LASSO_TOL,
            )

        def check(out, x_star=inst.x_star):
            return check_lasso(out, x_star)

        jobs.append(Job(run=run, check=check))
    return jobs


# --- cli-report ------------------------------------------------------------


def cli_config(rng: np.random.Generator) -> dict:
    """Affine prox (I + Q)^-1 of a quadratic with eigenvalues in [10^-2.5, 1],
    declared 1/2-averaged, with its planted solution and a regime-II schedule."""
    u, _ = np.linalg.qr(rng.standard_normal((CLI_DIM, CLI_DIM)))
    eigs = np.logspace(CLI_LOG10_EIG_MIN, 0.0, CLI_DIM)
    qmat = (u * eigs) @ u.T
    c = rng.standard_normal(CLI_DIM)
    z_star = np.linalg.solve(qmat, c)
    a = np.linalg.inv(np.eye(CLI_DIM) + qmat)
    z0 = z_star + CLI_START_DIST * _unit(rng, CLI_DIM)
    return {
        "problem": {
            "kind": "affine",
            "matrix": a.tolist(),
            "offset": (a @ c).tolist(),
            "theta": 0.5,
            "z0": z0.tolist(),
            "z_star": z_star.tolist(),
        },
        "schedule": {"alpha": 0.1, "lambda": 0.8, "sigma": 0.01, "delta": 1.0},
        "engine": {"tol": CLI_TOL, "max_iter": 200_000},
    }


def check_cli(code: int, stdout: str, csv_path: str) -> dict:
    """Exit 0, the squared-rate certificate holds, one CSV row per iteration plus the header."""
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError:
        return {"ok": False}
    cert = summary.get("certificate") or {}
    with open(csv_path, "rb") as fh:
        data = fh.read()
    lines = data.count(b"\n")
    iterations = int(summary.get("iterations", -1))
    ok = code == 0 and cert.get("holds_squared") is True and lines == iterations + 1
    return {"ok": ok, "steps": iterations, "csv_rows": iterations, "csv_bytes": len(data)}


def setup_cli_report(seed: int, n_jobs: int, workdir: str, wrap=no_wrap) -> list[Job]:
    """Write one JSON config per job; each job is `kmsolve run CONFIG --csv OUT` in-process."""
    main = wrap("cli.main", cli.main)
    csv_path = os.path.join(workdir, "run.csv")
    jobs = []
    for i, ss in enumerate(job_seeds(seed, n_jobs)):
        cfg_path = os.path.join(workdir, f"job{i:03d}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cli_config(np.random.default_rng(ss)), fh)

        def run(cfg_path=cfg_path):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["run", cfg_path, "--csv", csv_path])
            return code, buf.getvalue()

        def check(out):
            code, stdout = out
            return check_cli(code, stdout, csv_path)

        jobs.append(Job(run=run, check=check))
    return jobs
