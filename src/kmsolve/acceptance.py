"""Built-in end-to-end acceptance checks.

Nine numbered criteria, each a check returning its verdict and a detail
string.  The CRITERIA table gives each check its number, name and
wall-clock budget; `run_all` times every check against its budget and
returns one CriterionResult per criterion, whose line ends with the time
taken.  `kmsolve bench` prints those lines, and the test suite asserts
them one test per criterion through `run_all`, so the pass/fail surface
is identical in both places.  Tolerances are pinned as module constants
next to the criteria that use them.

The checks favor independent oracles over self-agreement: the loop is
compared against a plain-numpy restatement of it, the prox against a
brute-force grid minimizer, the lasso solver against
a hand-rolled proximal-gradient loop plus a planted exact solution, and
the regime-II validator against the raw feasibility inequality it was
derived from.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from . import cli
from .applications import (
    lasso_fbs_pieces,
    lasso_kkt_gap,
    plant_lasso,
    solve_fbs,
    solve_ppa,
)
from .diagnostics import consistency_report, quasi_fejer_violations, rate_certificate
from .engine import Problem, iterate
from .operators import make_affine, make_box_projection, make_identity, make_soft_threshold, norm, quadratic_gradient
from .schedules import (
    ErrorModel,
    ParamSchedule,
    constant_schedule,
    delta_threshold,
    emit_error,
    lambda_ceiling_ii,
    validate_run,
    validate_schedule,
)

RATE_START_DIST = 0.8  # criterion 2: start distance
RATE_FAR_START_DIST = 3.0  # criterion 2: a start with dist1 > 1
FAR_SOLUTION_NORM = 5e6  # criterion 3: ||z*|| of the exact contraction, where a fixed slack of 1e-10 is too tight
GRID_DRAWS = 1000  # criterion 4: alpha in [0, 0.95]
WIDE_DRAWS = 200  # criterion 4: alpha in [-1.2, 1.2], -1 and 1 among them
PROX_ORACLE_TOL = 1e-6  # criterion 5
PROX_ORACLE_CASES = 100
LASSO_KKT_TOL = 1e-8  # criterion 6
LASSO_MATCH_TOL = 1e-6
LASSO_PERTURBED_TOL = 1e-10  # residual stop of the perturbed run, and its gate on the planted gap
LASSO_PERTURBED_BUDGET = 15_000  # below the run's max_iter of 30_000
FOLDED_BOUND_SLACK = 1e-12  # relative rounding allowance on ||e-bar|| <= rho ||e1|| + ||e2||
SWEEP_RUNS = 300  # criterion 7: seeded feasible runs, seeds 500..799
SWEEP_FAR_RUNS = 100  # criterion 7: at least this many start with dist1 > 1
BROKEN_RUNS = 100  # criterion 7: seeded runs that break their declared regime, seeds 900..999
TRANSLATION_RESIDUAL_FLOOR = 1e-6  # criterion 8

THRESHOLD_PIN = 0.012121212121212123  # smallest delta at alpha=0.1, sigma=0.01
CEILING_PIN = 0.8016393442622951  # relaxation ceiling at alpha=0.1, sigma=0.01, delta=1
COLLAPSE_PIN = 0.7692307692307692  # ceiling at alpha=0, sigma=0.3, delta=1: 1/(1+sigma)
INFEASIBLE_THRESHOLD_PIN = 0.5  # threshold at alpha=0.5, sigma=0: delta=0.4 cannot work


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.name}): {verdict} [{self.detail}; {self.seconds:.2f}s]"


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / norm(v)


def _contraction(dim: int, factor: float, seed: int, start_dist: float = RATE_START_DIST):
    """Matrix, offset, start and fixed point of a scaled rotation with a planted fixed point."""
    rng = np.random.default_rng(seed)
    q = factor * np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    z_star = _unit(rng, dim)
    return q, z_star - q @ z_star, z_star + start_dist * _unit(rng, dim), z_star


def _quadratic_prox(dim: int, cond: float, rho: float, seed: int, start_dist: float):
    """Matrix, offset, start and fixed point of the prox of a random quadratic of condition `cond`.

    The prox of x -> 0.5 x'Qx - c'x with parameter rho is
    (I + rho Q)^{-1} (x + rho c); its unique fixed point is Q^{-1} c.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.logspace(0.0, math.log10(cond), dim)
    qmat = (u * eigs) @ u.T
    c = rng.standard_normal(dim)
    z_star = np.linalg.solve(qmat, c)
    a = np.linalg.inv(np.eye(dim) + rho * qmat)
    offset = rho * (a @ c)
    z0 = z_star + start_dist * _unit(rng, dim)
    return a, offset, z0, z_star


def _restated_affine_run(q, b, z0, alpha: float, lam: float, errors: ErrorModel | None, steps: int):
    """States and residuals of the loop on x -> q x + b, written out in plain numpy, z^{-1} = z^0."""
    z_prev = z = z0
    states, residuals, cache = [z0], [], {}
    for k in range(steps):
        mu = z + alpha * (z - z_prev)
        t = q.dot(mu) + b
        residuals.append(np.linalg.norm(t - mu))
        if errors is not None and errors.norm_at(k) != 0.0:
            t = t + emit_error(errors, k, z.shape[0], cache)
        z_prev, z = z, mu + lam * (t - mu)
        states.append(z)
    return states, residuals


def criterion_1() -> tuple[bool, str]:
    """`iterate` matches a plain-numpy restatement bit for bit: plain, inexact and inertial."""
    q, b, z0, _ = _contraction(dim=50, factor=0.9, seed=101)
    prob = Problem(operator=make_affine(q, b), z0=z0)
    cases = {
        "plain": (0.0, None),
        "inexact": (0.0, ErrorModel.power_decay(1e-2, 2.0, seed=11)),
        "inertial": (0.2, None),
    }
    failed, finals = [], []
    for name, (alpha, errors) in cases.items():
        run = iterate(prob, constant_schedule(alpha, 0.5), errors, tol=-1.0, max_iter=1000, record_states=True)
        states, residuals = _restated_affine_run(q, b, prob.z0, alpha, 0.5, errors, 1000)
        same = len(run.states) == len(states) and all(map(np.array_equal, run.states, states))
        if not (same and np.array_equal(run.residuals, residuals) and run.residuals[-1] < 1e-6 * run.residuals[0]):
            failed.append(name)
        finals.append(f"{name} {run.residuals[-1]:.1e}")
    return not failed, (
        f"3 cases x 1000 steps vs a plain-numpy restatement, failed: {', '.join(failed) or 'none'}; "
        f"final residuals {', '.join(finals)}"
    )


def criterion_2() -> tuple[bool, str]:
    """The residual rate certificate holds at every computable step on six problems, one far out."""
    cases = []

    q_a, b_a, z0_a, star_a = _contraction(dim=50, factor=0.9, seed=202)
    prob_a = Problem(operator=make_affine(q_a, b_a), z0=z0_a, z_star=star_a)
    cases.append(("contraction", lambda: iterate(prob_a, constant_schedule(0.2, 0.5), max_iter=100_000)))

    q_f, b_f, z0_f, star_f = _contraction(dim=50, factor=0.9, seed=206, start_dist=RATE_FAR_START_DIST)
    prob_f = Problem(operator=make_affine(q_f, b_f), z0=z0_f, z_star=star_f)
    cases.append(("contraction-far", lambda: iterate(prob_f, constant_schedule(0.1, 0.6), max_iter=100_000)))

    # the prox of a strongly convex quadratic is a 1/2-averaged affine operator
    a_b, offset_b, z0_b, star_b = _quadratic_prox(dim=30, cond=50.0, rho=1.0, seed=7, start_dist=RATE_START_DIST)
    prob_b = Problem(operator=make_affine(a_b, offset_b, theta=0.5), z0=z0_b, z_star=star_b)
    cases.append(("quad-prox", lambda: iterate(prob_b, constant_schedule(0.15, 0.9), max_iter=100_000)))

    # projection onto [-0.5, 0.5] from outside; the limit is the endpoint 0.5
    prob_c = Problem(operator=make_box_projection([-0.5], [0.5]), z0=[1.2], z_star=[0.5])
    sched_c = constant_schedule(0.1, CEILING_PIN, sigma=0.01, delta=1.0)
    cases.append(("interval-at-ceiling", lambda: iterate(prob_c, sched_c, max_iter=100_000)))

    resolvent_d = make_soft_threshold(0.3, 1)
    cases.append(
        (
            "ppa-abs",
            lambda: solve_ppa(
                resolvent_d, [0.8], constant_schedule(0.0, 0.9), z_star=[0.0], max_iter=100_000
            ),
        )
    )

    inst = plant_lasso(n_samples=300, n_features=200, support_size=20, reg=0.5, seed=11)
    rho_e = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent_e, forward_e = lasso_fbs_pieces(inst, rho_e)
    rng_e = np.random.default_rng(12)
    z0_e = inst.x_star + RATE_START_DIST * _unit(rng_e, inst.x_star.shape[0])
    cases.append(
        (
            "fbs-lasso",
            lambda: solve_fbs(
                resolvent_e,
                forward_e,
                rho_e,
                z0_e,
                constant_schedule(0.15, 0.5),
                z_star=inst.x_star,
                max_iter=100_000,
            ),
        )
    )

    details = []
    ok = True
    dist1s = []
    for name, go in cases:
        run = go()
        cert = rate_certificate(run)
        ok &= cert.valid and cert.ks.size >= 1 and cert.holds()
        margin = float(np.min(cert.rhs_squared - cert.min_residual_sq)) if cert.valid else math.nan
        dist1s.append(cert.dist1)
        details.append(f"{name} n={run.iterations} dist1={cert.dist1:.2g} margin={margin:.1e}")
    ok &= max(dist1s) > 1.0
    return ok, "; ".join(details)


def criterion_3() -> tuple[bool, str]:
    """Distances to a fixed point grow by at most lambda_k ||e^k|| per step (no inertia), up to rounding.

    No step may fail on two inexact runs and an exact contraction with
    ||z*|| = 5e6.  Every step must fail on the identity when the perturb
    callback adds 1e-12 to each entry but declares a zero error.
    """
    q, b, z0, z_star = _contraction(dim=40, factor=0.9, seed=303)
    prob = Problem(operator=make_affine(q, b), z0=z0, z_star=z_star)
    run_a = iterate(
        prob,
        constant_schedule(0.0, 0.7),
        ErrorModel.power_decay(1e-2, 2.0, seed=5),
        tol=-1.0,
        max_iter=10_000,
    )
    va = quasi_fejer_violations(run_a)

    rng = np.random.default_rng(31)
    resolvent = make_soft_threshold(0.3, 5)
    run_b = solve_ppa(
        resolvent,
        1.5 * _unit(rng, 5),
        constant_schedule(0.0, 1.3),
        ErrorModel.power_decay(1e-2, 2.0, seed=9),
        z_star=np.zeros(5),
        tol=-1.0,
        max_iter=10_000,
    )
    vb = quasi_fejer_violations(run_b)

    q, b, z0, z_star = _contraction(dim=20, factor=0.9, seed=304)
    s = FAR_SOLUTION_NORM
    far = Problem(operator=make_affine(q, s * b), z0=s * z0, z_star=s * z_star)
    vc = quasi_fejer_violations(iterate(far, constant_schedule(0.0, 0.7), tol=-1.0, max_iter=3000))

    ident = make_identity(5)
    t = ident.apply
    centre = _unit(rng, 5)
    run_d = iterate(
        Problem(operator=ident, z0=centre, z_star=centre),
        constant_schedule(0.0, 0.5),
        perturb=lambda mu, k: (t(mu), t(mu) + 1e-12, 0.0),
        tol=-1.0,
        max_iter=20,
    )
    vd = quasi_fejer_violations(run_d)
    passed = va.size == vb.size == vc.size == 0 and vd.size == 20
    return passed, (
        f"violations: contraction {va.size}/10000, resolvent {vb.size}/10000, "
        f"far contraction {vc.size}/3000, undeclared drift {vd.size}/20"
    )


def criterion_4() -> tuple[bool, str]:
    """The regime-II validator agrees with the raw feasibility inequality on seeded draws, some alpha outside [0, 1)."""
    rng = np.random.default_rng(404)
    draws = [
        (rng.uniform(0.0, 0.95), rng.uniform(1e-3, 2.0), rng.uniform(1e-3, 3.0), rng.uniform(0.01, 1.2))
        for _ in range(GRID_DRAWS)
    ]
    wide = np.random.default_rng(405)
    alphas = [-1.0, 1.0, *wide.uniform(-1.2, 1.2, WIDE_DRAWS - 2).tolist()]
    draws += [(a, wide.uniform(1e-3, 2.0), wide.uniform(1e-3, 3.0), wide.uniform(0.01, 1.2)) for a in alphas]
    mismatches = 0
    for a, sg, dl, lm in draws:
        rep = validate_schedule(constant_schedule(a, lm, sigma=sg, delta=dl), horizon=8)
        c = a * (1.0 + a) + a * dl + sg
        # the inequality is regime II's for 0 <= alpha < 1 only; outside it no schedule is feasible
        direct = 0.0 <= a < 1.0 and dl > delta_threshold(a, sg) and (a + dl * lm) * c + dl * lm <= dl
        mismatches += rep.feasible != direct
    pins_ok = (
        delta_threshold(0.1, 0.01) == THRESHOLD_PIN
        and lambda_ceiling_ii(0.1, 0.01, 1.0) == CEILING_PIN
        and lambda_ceiling_ii(0.0, 0.3, 1.0) == COLLAPSE_PIN
        and lambda_ceiling_ii(0.0, 0.3, 1.0) == 1.0 / 1.3
        and delta_threshold(0.5, 0.0) == INFEASIBLE_THRESHOLD_PIN
    )
    at_ceiling = validate_schedule(constant_schedule(0.1, CEILING_PIN, sigma=0.01, delta=1.0), horizon=8).feasible
    infeasible = not validate_schedule(constant_schedule(0.5, 0.3, sigma=0.0, delta=0.4), horizon=8).feasible
    passed = mismatches == 0 and pins_ok and at_ceiling and infeasible
    return (
        passed,
        f"{len(draws)} draws, {mismatches} disagreements; pinned constants "
        f"{'match' if pins_ok else 'MISMATCH'}; boundary feasible={at_ceiling}",
    )


def criterion_5() -> tuple[bool, str]:
    """Soft threshold agrees with a brute-force grid minimizer of its defining objective."""
    gamma = 0.25
    op = make_soft_threshold(gamma, 1)
    rng = np.random.default_rng(505)
    xs = np.round(rng.uniform(-2.0, 2.0, PROX_ORACLE_CASES), 4)
    grid = np.arange(-30000, 30001, dtype=float) * 1e-4
    penalty = gamma * np.abs(grid)
    worst = 0.0
    for x in xs:
        objective = 0.5 * (grid - x) ** 2 + penalty
        u = float(grid[int(np.argmin(objective))])
        p = float(op.apply(np.array([x]))[0])
        worst = max(worst, abs(u - p))
    passed = worst <= PROX_ORACLE_TOL
    return passed, f"{PROX_ORACLE_CASES} inputs, grid step 1e-4, worst gap {worst:.2e}"


def criterion_6() -> tuple[bool, str]:
    """Lasso end to end: planted optimality, an independent baseline, and a perturbed run."""
    inst = plant_lasso(n_samples=300, n_features=200, support_size=20, reg=0.5, seed=606)
    gap = lasso_kkt_gap(inst)
    ok_kkt = gap <= LASSO_KKT_TOL

    gram = inst.matrix.T @ inst.matrix
    lin = inst.matrix.T @ inst.rhs
    step = 1.0 / float(np.linalg.eigvalsh(gram)[-1])
    thr = step * inst.reg
    x = np.zeros(inst.x_star.shape[0])
    oracle_iters = 0
    for k in range(1_000_000):
        v = x - step * (gram @ x - lin)
        x_new = np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)
        moved = float(np.max(np.abs(x_new - x)))
        x = x_new
        oracle_iters = k + 1
        if moved <= 1e-14:
            break
    ok_oracle = float(np.max(np.abs(x - inst.x_star))) <= LASSO_MATCH_TOL

    rho = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    rng = np.random.default_rng(607)
    z0 = inst.x_star + RATE_START_DIST * _unit(rng, inst.x_star.shape[0])

    run_exact = solve_fbs(
        resolvent,
        forward,
        rho,
        z0,
        constant_schedule(0.2, 0.9),
        z_star=inst.x_star,
        max_iter=100_000,
    )
    gap_star = float(np.max(np.abs(run_exact.z - inst.x_star)))
    gap_oracle = float(np.max(np.abs(run_exact.z - x)))
    ok_exact = gap_star <= LASSO_MATCH_TOL and gap_oracle <= LASSO_MATCH_TOL

    fe = ErrorModel.power_decay(1e-2, 2.0, seed=61)
    re = ErrorModel.power_decay(1e-2, 2.0, seed=62)
    run_pert = solve_fbs(
        resolvent,
        forward,
        rho,
        z0,
        constant_schedule(0.2, 1.2),
        forward_errors=fe,
        resolvent_errors=re,
        z_star=inst.x_star,
        tol=LASSO_PERTURBED_TOL,
        max_iter=30_000,
    )
    gap_pert = float(np.max(np.abs(run_pert.z - inst.x_star)))
    folded = np.array([rho * fe.norm_at(k) + re.norm_at(k) for k in range(run_pert.iterations)])
    fold_ratio = float(np.max(run_pert.err_norms / folded))
    ok_pert = (
        run_pert.stop_reason == "residual-tol"
        and run_pert.iterations <= LASSO_PERTURBED_BUDGET
        and gap_pert <= LASSO_PERTURBED_TOL
        and fold_ratio <= 1.0 + FOLDED_BOUND_SLACK
    )

    passed = ok_kkt and ok_oracle and ok_exact and ok_pert
    return (
        passed,
        f"kkt gap {gap:.1e}; baseline {oracle_iters} steps; exact n={run_exact.iterations} "
        f"(vs planted {gap_star:.1e}, vs baseline {gap_oracle:.1e}); perturbed "
        f"n={run_pert.iterations} stop={run_pert.stop_reason} (vs planted {gap_pert:.1e}, "
        f"folded error bound ratio {fold_ratio:.3f})",
    )


def _sweep_run(seed: int):
    """A run of criterion 7 on a scaled orthogonal map: feasible schedules of both regimes below seed 900.

    From 900 on, a regime-II schedule breaks its regime: alpha_k jumps between a level up to 1.2 and
    draws below it, lambda_k varies in the 10% below a level in (0.1, 0.95), delta is half its threshold.
    """
    rng = np.random.default_rng(seed)
    broken = seed >= 900
    dim = int(rng.integers(2, 30))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= rng.uniform(0.9 if broken else 0.5, 1.0)
    z_star = rng.standard_normal(dim)
    v = rng.standard_normal(dim)
    start = 10.0 ** rng.uniform(-2.0, 2.0)
    z0 = z_star + start / np.linalg.norm(v) * v
    prob = Problem(operator=make_affine(q, z_star - q @ z_star), z0=z0, z_star=z_star)
    if broken:
        level, top = rng.uniform(0.0, 1.2), rng.uniform(0.1, 0.95)
        alphas = np.where(rng.random(300) < 0.5, level, rng.uniform(0.0, level, 300)).tolist()
        lambdas = rng.uniform(0.9 * top, top, 300).tolist()
        cap, sigma = min(level, 0.95), rng.uniform(0.0, 0.1)
        delta = 0.5 * delta_threshold(cap, sigma)
        sched = ParamSchedule(alphas.__getitem__, lambdas.__getitem__, sigma, delta)
    elif seed % 2:
        alpha, sigma = rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.1)
        delta = delta_threshold(alpha, sigma) + rng.uniform(0.1, 1.0)
        lam = rng.uniform(0.1, 1.0) * lambda_ceiling_ii(alpha, sigma, delta)
        sched = constant_schedule(alpha, lam, sigma=sigma, delta=delta)
    else:
        sched = constant_schedule(rng.uniform(0.0, 0.6), rng.uniform(0.05, 0.95))
    errors = None
    if (seed // 2) % 2:
        errors = ErrorModel.power_decay(start * 10.0 ** rng.uniform(-3.0, -1.0), 2.0, seed=seed - 500)
    return iterate(prob, sched, errors, max_iter=300)


def criterion_7() -> tuple[bool, str]:
    """The rate certificate is valid and holds on feasible runs, many far out, and on runs that break their regime."""
    sweeps = []
    for seeds in (range(500, 500 + SWEEP_RUNS), range(900, 900 + BROKEN_RUNS)):
        failed = far = feasible = worst = 0
        for seed in seeds:
            run = _sweep_run(seed)
            feasible += validate_run(run).feasible
            cert = rate_certificate(run)
            failed += not (cert.valid and cert.holds())
            if cert.valid:
                worst = max(worst, float(np.max(cert.min_residual_sq / cert.rhs_squared)))
                far += cert.dist1 > 1.0
        sweeps.append((failed, far, feasible, worst))
    (failed, far, feasible, worst), (broken_failed, _, broken_feasible, broken_worst) = sweeps
    passed = failed == broken_failed == 0 and far >= SWEEP_FAR_RUNS and feasible == SWEEP_RUNS and broken_feasible == 0
    return (
        passed,
        f"{SWEEP_RUNS} runs, {far} with dist1 > 1, {failed} refused or violated, "
        f"largest residual-to-bound ratio {worst:.2f}; {BROKEN_RUNS} runs breaking their declared regime, "
        f"{broken_feasible} feasible as run, {broken_failed} refused or violated, largest ratio {broken_worst:.2f}",
    )


def criterion_8() -> tuple[bool, str]:
    """No fixed point means no convergence claim; divergent error laws get flagged, undeclared sums never pass."""
    # z -> z + v with v != 0: nonexpansive, fixed-point free
    rng = np.random.default_rng(808)
    v = 0.01 * _unit(rng, 8)
    prob = Problem(operator=make_affine(np.eye(8), v), z0=rng.standard_normal(8))
    run = iterate(
        prob,
        constant_schedule(0.2, 0.5),
        ErrorModel.power_decay(1e-2, 1.0, seed=808),
        max_iter=5000,
    )
    report = consistency_report(run)
    floor = float(np.min(run.residuals))

    # a perturb callback declares no law.  Harmonic errors leave a finite partial sum, which no run
    # settles; an exact evaluation that records an error bound of 1e308 a step overflows the sum
    t, u = prob.operator.apply, _unit(rng, 8)
    harmonic = iterate(
        prob,
        constant_schedule(0.0, 0.5),
        perturb=lambda mu, k: (t(mu), t(mu) + (1e-2 / (k + 1)) * u, 1e-2 / (k + 1)),
        max_iter=5000,
    )
    overflow = iterate(prob, constant_schedule(0.0, 0.5), perturb=lambda mu, k: (t(mu), t(mu), 1e308), max_iter=8)
    reports = [consistency_report(r) for r in (harmonic, overflow)]
    undeclared = [(r.item("weighted-error-sum").verdict, r.verdict) for r in reports]
    passed = (
        run.stop_reason == "max-iter"
        and not run.converged
        and floor > TRANSLATION_RESIDUAL_FLOOR
        and run.errors[0].summability == "not-guaranteed"
        and report.item("weighted-error-sum").verdict == "not-consistent"
        and report.verdict == "not-consistent"
        and undeclared == [("unjudged", "unjudged"), ("not-consistent", "not-consistent")]
    )
    return (
        passed,
        f"stop={run.stop_reason}, residual floor {floor:.1e}, "
        f"error-sum verdict {report.item('weighted-error-sum').verdict}; undeclared harmonic errors "
        f"{undeclared[0][0]}, undeclared overflowing errors {undeclared[1][0]}",
    )


def criterion_9() -> tuple[bool, str]:
    """The compare command runs inertial vs plain on an ill-conditioned prox and logs the ratio."""
    a, offset, z0, z_star = _quadratic_prox(dim=20, cond=1e3, rho=1.0, seed=909, start_dist=RATE_START_DIST)
    config = {
        "problem": {
            "kind": "affine",
            "matrix": a.tolist(),
            "offset": offset.tolist(),
            "theta": 0.5,
            "z0": z0.tolist(),
            "z_star": z_star.tolist(),
        },
        "schedule": {"alpha": 0.3, "lambda": 0.9},
        "engine": {"tol": 1e-10, "max_iter": 200_000},
    }
    fd, path = tempfile.mkstemp(suffix=".json", prefix="kmsolve-compare-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["compare", path])
        data = json.loads(buf.getvalue())
    finally:
        os.unlink(path)
    ratio = data.get("iteration_ratio")
    passed = (
        code == 0
        and data["inertial"]["converged"]
        and data["plain"]["converged"]
        and ratio is not None
        and ratio > 0.0
    )
    return (
        passed,
        f"exit {code}; inertial n={data['inertial']['iterations']}, "
        f"plain n={data['plain']['iterations']}, ratio {ratio:.3g} (logged, not asserted)",
    )


# number, name, check, wall-clock budget in seconds (None: no budget)
CRITERIA = (
    (1, "reduction-bit-identity", criterion_1, 1.0),
    (2, "residual-rate-certificate", criterion_2, 30.0),
    (3, "distance-quasi-monotonicity", criterion_3, None),
    (4, "feasibility-validator-grid", criterion_4, None),
    (5, "prox-grid-oracle", criterion_5, None),
    (6, "lasso-end-to-end", criterion_6, 60.0),
    (7, "rate-certificate-soundness", criterion_7, 10.0),
    (8, "honest-failure-modes", criterion_8, None),
    (9, "inertia-comparison-cli", criterion_9, None),
)


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the listed criteria (all by default), each timed against its budget."""
    out = []
    for number, name, check, budget_s in CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed check, not a skipped one
            passed, detail = False, f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        if budget_s is not None and not seconds < budget_s:
            passed, detail = False, f"{detail}; over its {budget_s:g}s budget"
        out.append(CriterionResult(number, name, bool(passed), detail, seconds))
    return out
