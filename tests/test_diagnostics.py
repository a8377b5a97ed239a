"""Rate certificates, distance monotonicity checks, and run post-mortems."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kmsolve.applications import lasso_fbs_pieces, plant_lasso, solve_fbs
from kmsolve.diagnostics import (
    ConsistencyItem,
    ConsistencyReport,
    consistency_report,
    quasi_fejer_violations,
    rate_certificate,
)
from kmsolve.engine import Problem, OperatorSpec, iterate
from kmsolve.operators import make_affine, make_identity, quadratic_gradient
from kmsolve.schedules import (
    ErrorModel,
    ParamSchedule,
    constant_schedule,
    lambda_ceiling_ii,
    validate_run,
    validate_schedule,
)


def _contraction(dim=12, factor=0.9, seed=21, start_dist=0.8):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = factor * q
    z_star = rng.standard_normal(dim)
    z_star /= np.linalg.norm(z_star)
    v = rng.standard_normal(dim)
    z0 = z_star + start_dist * v / np.linalg.norm(v)
    return Problem(operator=make_affine(q, z_star - q @ z_star), z0=z0, z_star=z_star)


def _varying_schedule():
    # alpha_0 and lambda_0 are the largest values either takes: the certificate's sums start at k = 1
    return ParamSchedule(
        alpha_of=lambda k: 0.1 + 0.1 * math.cos(k),
        lambda_of=lambda k: 0.5 + 0.3 * math.cos(k),
    )


def test_certificate_matches_a_literal_recomputation():
    # an orthogonal map and slowly decaying errors, so that distances to z* also grow on some steps
    run = iterate(
        _contraction(factor=1.0),
        _varying_schedule(),
        ErrorModel.power_decay(1e-2, 1.1, seed=3),
        tol=-1.0,
        max_iter=200,
    )
    cert = rate_certificate(run)
    assert cert.valid
    n = run.iterations
    d, lam, al = run.dists, run.lambdas, run.alphas
    err, st, res = run.err_norms, run.step_norms, run.residuals
    floor, ceiling, cap = min(lam[1:]), max(lam[1:]), max(al[1:])
    assert (cert.lambda_floor, cert.ceiling) == (floor, ceiling)
    assert floor < 0.21 and 0.79 < ceiling < lam[0] and cap < al[0]
    psi = d**2
    for idx, k in enumerate(cert.ks):
        assert k == idx + 1
        drift = sum(max(psi[i] - psi[i - 1], 0.0) for i in range(1, k + 1))
        e_term = sum(2.0 * d[i + 1] * lam[i] * err[i] for i in range(1, k + 1))
        s_term = sum(al[i] * (1.0 + al[i]) * st[i - 1] ** 2 for i in range(1, k + 1))
        want = cap * drift + e_term + s_term
        assert cert.delta[idx] == pytest.approx(want, rel=1e-12, abs=1e-15)
        rhs_sq = (d[1] ** 2 + want) / (k * floor * (1.0 - ceiling))
        assert cert.rhs_squared[idx] == pytest.approx(rhs_sq, rel=1e-12)
        assert cert.min_residual_sq[idx] == min(res[1 : k + 1]) ** 2
    assert cert.ks[-1] == n - 1
    # each term carries weight: the drift, the errors and the steps
    assert drift > 0.0 and e_term > 0.0 and s_term > 0.0
    assert cert.holds()


def test_certificate_reads_only_the_run():
    run = iterate(_contraction(), _varying_schedule(), tol=-1.0, max_iter=200)
    cert = rate_certificate(run)
    other = rate_certificate(replace(run, schedule=constant_schedule(0.9, 0.1)))
    assert cert.valid and other.valid
    assert (other.ceiling, other.lambda_floor, other.dist1) == (cert.ceiling, cert.lambda_floor, cert.dist1)
    for name in ("ks", "min_residual_sq", "delta", "rhs_squared"):
        assert np.array_equal(getattr(other, name), getattr(cert, name)), name


def test_certificate_bound_holds_on_a_clean_run():
    run = iterate(_contraction(seed=22), constant_schedule(0.15, 0.6), max_iter=100_000)
    cert = rate_certificate(run)
    assert cert.valid
    assert cert.holds()
    assert np.all(cert.min_residual_sq <= cert.rhs_squared)


def test_certificate_holds_on_a_feasible_far_start():
    # T z = -0.9 z from (100, 0) with alpha 0, lambda 1/2 runs z^k = 100 / 20^k
    # exactly; at k = 1 the best squared residual is (1.9 * 5)^2 = 90.25 against
    # the bound 5^2 / (1/2 * 1/2) = 100.  The paper's printed form, with dist_1
    # unsquared, would give 5 / (1/4) = 20 and fail this sound run.
    prob = Problem(operator=make_affine(-0.9 * np.eye(2), np.zeros(2)), z0=[100.0, 0.0], z_star=[0.0, 0.0])
    run = iterate(prob, constant_schedule(0.0, 0.5))
    assert (run.stop_reason, run.iterations) == ("residual-tol", 11)
    assert validate_schedule(run.schedule).feasible
    cert = rate_certificate(run)
    assert cert.valid
    assert cert.dist1 == 5.0
    assert cert.min_residual_sq[0] == 90.25
    assert cert.rhs_squared[0] == 100.0
    assert cert.holds()


def test_a_certificate_whose_bound_overflows_is_refused_without_a_warning():
    # the distances overflow, so the error term meets inf * 0: the certificate read
    # valid with a NaN bound, and numpy warned "invalid value encountered in multiply"
    prob = Problem(operator=make_affine([[-1.0]], [0.0]), z0=[1.0], z_star=[0.0])
    run = iterate(prob, constant_schedule(0.99, 0.99), max_iter=2000, divergence_norm=1e308)
    assert (run.stop_reason, run.iterations) == ("diverged", 414)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = rate_certificate(run)
    assert not cert.valid
    assert cert.reason == "needs a finite right-hand side on steps 1..413 (first non-finite at k = 413)"


def test_certificate_refusal_reasons():
    prob = _contraction(seed=24)

    run = iterate(prob, constant_schedule(0.2, 1.0), tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == "needs 0 < lambda_k < 1 on steps 1..9 (min 1, max 1)"

    run = iterate(prob, constant_schedule(0.2, 0.0), tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == "needs 0 < lambda_k < 1 on steps 1..9 (min 0, max 0)"

    # a NaN lambda_k fails the range check, wherever it is
    nan_late = ParamSchedule(lambda k: 0.2, lambda k: 0.5 if k < 5 else math.nan)
    run = iterate(prob, nan_late, tol=-1.0, max_iter=10)
    assert (run.stop_reason, run.iterations) == ("diverged", 6)
    assert rate_certificate(run).reason == "needs 0 < lambda_k < 1 on steps 1..5 (min nan, max nan)"

    run = iterate(prob, constant_schedule(-0.1, 0.5), tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == "needs alpha_k >= 0 on steps 1..9 (min -0.1, max -0.1)"

    # the checks run in order: lambda_k, then alpha_k, then the solution
    anon = Problem(operator=prob.operator, z0=prob.z0)
    run = iterate(anon, constant_schedule(-0.1, 1.0), tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == "needs 0 < lambda_k < 1 on steps 1..9 (min 1, max 1)"
    run = iterate(anon, constant_schedule(-0.1, 0.5), tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == "needs alpha_k >= 0 on steps 1..9 (min -0.1, max -0.1)"
    run = iterate(anon, constant_schedule(0.2, 0.5), tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == "needs a known solution"

    run = iterate(prob, constant_schedule(0.2, 0.5), tol=-1.0, max_iter=1)
    assert rate_certificate(run).reason == "needs at least two iterations"
    run = iterate(prob, constant_schedule(0.2, 0.5), tol=-1.0, max_iter=0)
    assert rate_certificate(run).reason == "needs at least two iterations"

    refused = rate_certificate(iterate(prob, constant_schedule(0.2, 1.0), tol=-1.0, max_iter=10))
    assert not refused.valid
    assert refused.holds() is False
    # a refusal carries NaN scalars and empty arrays: integer ks, float quantities
    assert all(math.isnan(x) for x in (refused.ceiling, refused.lambda_floor, refused.dist1))
    assert refused.ks.shape == (0,) and refused.ks.dtype == np.dtype(int)
    for arr in (refused.min_residual_sq, refused.delta, refused.rhs_squared):
        assert arr.shape == (0,) and arr.dtype == np.float64


def test_certificate_to_dict():
    prob = _contraction(seed=24)
    cert = rate_certificate(iterate(prob, constant_schedule(0.2, 0.5), tol=-1.0, max_iter=10))
    assert cert.to_dict() == {
        "valid": True,
        "reason": "",
        "ceiling": 0.5,
        "lambda_floor": 0.5,
        "dist1": cert.dist1,
        "holds_squared": True,
        "final_min_residual_sq": cert.min_residual_sq[-1],
        "final_rhs_squared": cert.rhs_squared[-1],
    }
    assert list(cert.to_dict()) == [
        "valid",
        "reason",
        "ceiling",
        "lambda_floor",
        "dist1",
        "holds_squared",
        "final_min_residual_sq",
        "final_rhs_squared",
    ]

    anon = Problem(operator=prob.operator, z0=prob.z0)
    refusals = [
        (prob, constant_schedule(0.2, 0.5), 1, "needs at least two iterations"),
        (prob, constant_schedule(0.2, 1.0), 10, "needs 0 < lambda_k < 1 on steps 1..9 (min 1, max 1)"),
        (prob, constant_schedule(0.2, 0.0), 10, "needs 0 < lambda_k < 1 on steps 1..9 (min 0, max 0)"),
        (prob, constant_schedule(-0.1, 0.5), 10, "needs alpha_k >= 0 on steps 1..9 (min -0.1, max -0.1)"),
        (anon, constant_schedule(0.2, 0.5), 10, "needs a known solution"),
    ]
    for problem, schedule, steps, reason in refusals:
        refused = rate_certificate(iterate(problem, schedule, tol=-1.0, max_iter=steps))
        assert refused.to_dict() == {"valid": False, "reason": reason}


def test_certificate_refuses_parameters_past_the_validated_horizon():
    # lambda_k leaves (0, 1) only after the default 1000-step scan
    sched = ParamSchedule(alpha_of=lambda k: 0.0, lambda_of=lambda k: 0.5 if k < 2000 else 1.5)
    assert validate_schedule(sched).feasible
    run = iterate(_contraction(seed=32), sched, tol=-1.0, max_iter=3000)
    assert run.lambdas.max() == 1.5
    as_run = validate_run(run)
    assert as_run.violations == ("lambda_of(k) must be < 1 (max 1.5)",)
    cert = rate_certificate(run)
    assert not cert.valid
    assert cert.reason == f"needs 0 < lambda_k < 1 on steps 1..{run.iterations - 1} (min 0.5, max 1.5)"

    # a schedule infeasible only from k = 500 on certifies a run that stops before it
    late = ParamSchedule(alpha_of=lambda k: 0.2, lambda_of=lambda k: 0.5 if k < 500 else 1.5)
    assert not validate_schedule(late).feasible
    cert = rate_certificate(iterate(_contraction(seed=32), late, tol=-1.0, max_iter=10))
    assert cert.valid and cert.reason == ""
    assert cert.ks.size == 9
    assert cert.holds()


def test_certificate_holds_where_the_declared_regime_fails_as_run():
    # regime II: alpha decreases at k = 1500, past the default scan but inside the run
    drop = ParamSchedule(
        alpha_of=lambda k: 0.0 if k == 0 else (0.1 if k < 1500 else 0.05),
        lambda_of=lambda k: 0.5,
        sigma=0.01,
        delta=1.0,
    )
    assert validate_schedule(drop).feasible
    run = iterate(_contraction(seed=32), drop, tol=-1.0, max_iter=2000)
    as_run = validate_run(run)
    assert as_run.violations == ("alpha_of must be nondecreasing",)
    # the certificate needs only alpha_k >= 0 and 0 < lambda_k < 1 on the steps it sums
    cert = rate_certificate(run)
    assert cert.valid and cert.reason == ""
    assert (cert.lambda_floor, cert.ceiling) == (0.5, 0.5)
    assert cert.ks.size == 1999
    assert cert.holds()


def test_certificate_ceiling_per_regime():
    run_i = iterate(_contraction(seed=25), constant_schedule(0.2, 0.7), tol=-1.0, max_iter=5)
    assert rate_certificate(run_i).ceiling == 0.7
    # regime II's lambda_max(alpha, sigma, delta) is a bound on lambda_k; the certificate takes the lambda_k that ran
    sched = constant_schedule(0.1, 0.5, sigma=0.01, delta=1.0)
    run_ii = iterate(_contraction(seed=25), sched, tol=-1.0, max_iter=5)
    assert lambda_ceiling_ii(0.1, 0.01, 1.0) > 0.5
    assert rate_certificate(run_ii).ceiling == 0.5


def test_quasi_fejer_passes_on_summable_errors():
    run = iterate(
        _contraction(seed=26),
        constant_schedule(0.0, 0.7),
        ErrorModel.power_decay(1e-2, 2.0, seed=4),
        tol=-1.0,
        max_iter=3000,
    )
    assert quasi_fejer_violations(run).size == 0


def test_quasi_fejer_flags_undeclared_drift():
    # the callback lies: it perturbs but declares a zero error norm, so the
    # distance grows with no slack to absorb it
    prob = Problem(operator=make_identity(2), z0=np.zeros(2), z_star=np.zeros(2))
    t = prob.operator.apply
    run = iterate(
        prob,
        constant_schedule(0.0, 0.5),
        perturb=lambda mu, k: (t(mu), t(mu) + 1.0, 0.0),
        tol=-1.0,
        max_iter=20,
    )
    assert quasi_fejer_violations(run).size == 20


def test_quasi_fejer_requires_solution_and_no_inertia():
    prob = _contraction(seed=27)
    run = iterate(prob, constant_schedule(0.3, 0.5), tol=-1.0, max_iter=10)
    with pytest.raises(ValueError):
        quasi_fejer_violations(run)
    # alpha_k = 0, -0.9, -0.9, ...: the largest alpha is 0, yet the run extrapolates
    run = iterate(prob, constant_schedule(-0.9, 0.9, sigma=0.01, delta=1.0), tol=-1.0, max_iter=10)
    assert run.alphas.max() == 0.0
    with pytest.raises(ValueError, match="zero-inertia runs"):
        quasi_fejer_violations(run)
    anon = Problem(operator=prob.operator, z0=prob.z0)
    run = iterate(anon, constant_schedule(0.0, 0.5), tol=-1.0, max_iter=10)
    with pytest.raises(ValueError):
        quasi_fejer_violations(run)


def _honest_sweep(n_runs=60, steps=400):
    """Zero-inertia affine runs, dims 2-200, ||z*|| from 1e-3 to 1e8, theta 1 and 1/2, half inexact."""
    rng = np.random.default_rng(0)
    for i in range(n_runs):
        dim = int(round(10 ** rng.uniform(math.log10(2), math.log10(200))))
        scale = 10.0 ** (-3.0 + 11.0 * (i + rng.uniform()) / n_runs)
        theta = 1.0 if i % 2 == 0 else 0.5
        lam = rng.uniform(0.05, 0.99 / theta)
        u = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        if theta == 1.0:  # a scaled rotation, every fourth an isometry
            q = (1.0 if i % 8 in (0, 2) else rng.uniform(0.5, 1.0)) * u
        else:  # symmetric with spectrum in [0, 1]
            q = (u * rng.uniform(0.0, 1.0, dim)) @ u.T
        z_star = scale * rng.standard_normal(dim) / math.sqrt(dim)
        z0 = z_star + scale * 10 ** rng.uniform(-8, 0) * rng.standard_normal(dim) / math.sqrt(dim)
        # error laws from rounding level up to 1e-3 of the scale
        errors = ErrorModel.power_decay(scale * 10 ** rng.uniform(-17, -3), 2.0, seed=i) if i % 4 >= 2 else None
        prob = Problem(operator=make_affine(q, z_star - q @ z_star, theta=theta), z0=z0, z_star=z_star)
        yield iterate(prob, constant_schedule(0.0, lam), errors, tol=-1.0, max_iter=steps)


def test_quasi_fejer_passes_every_honest_step_at_any_scale():
    # a fixed slack of 1e-10 flags 377 of these 24000 steps: the rounding of runs with large ||z*||
    runs = list(_honest_sweep())
    assert sum(r.iterations for r in runs) == 24000
    assert [quasi_fejer_violations(r).size for r in runs] == [0] * 60


def test_quasi_fejer_slack_shrinks_with_the_run():
    # ||z*|| = 1e-9: an undeclared drift of 1e-20 per entry and step is far above this run's
    # rounding, yet a fixed slack of 1e-10, or one floored at 32 eps, would miss it
    z_star = np.full(4, 5e-10)
    prob = Problem(operator=make_identity(4), z0=z_star, z_star=z_star)
    t = prob.operator.apply
    honest = iterate(prob, constant_schedule(0.0, 0.5), tol=-1.0, max_iter=20)
    assert quasi_fejer_violations(honest).size == 0
    lying = iterate(
        prob,
        constant_schedule(0.0, 0.5),
        perturb=lambda mu, k: (t(mu), t(mu) + 1e-20, 0.0),
        tol=-1.0,
        max_iter=20,
    )
    assert quasi_fejer_violations(lying).size == 20


def test_quasi_fejer_slack_scales_with_the_error_term():
    # started at z* = 0, the first step's only length is lambda_0 ||e^0||, rounded once into
    # d_1 and once into the bound: a slack scaled by ||z*|| + d_k alone flags 84 of these 200
    flagged = 0
    for dim in (1, 2, 5, 40):
        prob = Problem(operator=make_identity(dim), z0=np.zeros(dim), z_star=np.zeros(dim))
        for seed in range(50):
            run = iterate(prob, constant_schedule(0.0, 0.7), ErrorModel.power_decay(1e-2, 2.0, seed=seed), max_iter=1)
            flagged += quasi_fejer_violations(run).size
    assert flagged == 0


def test_consistency_report_clean_run():
    # bounded, exact and inertial: the inertia sum is a series, which the converged run cannot settle
    run = iterate(_contraction(seed=28), constant_schedule(0.2, 0.6), max_iter=100_000)
    rep = consistency_report(run)
    assert run.converged and rep.verdict == "unjudged"
    assert rep.item("bounded-iterates").verdict == "consistent"
    assert rep.item("weighted-error-sum").detail == "no errors recorded"
    inertia = rep.item("inertia-weighted-step-sum")
    assert inertia.value == float(np.cumsum(run.alphas * run.step_norms**2)[-1]) > 0.0
    assert (inertia.verdict, inertia.detail) == ("unjudged", "no finite run settles the series")
    assert {i.name for i in rep.items} == {
        "bounded-iterates",
        "inertia-weighted-step-sum",
        "weighted-error-sum",
    }


def test_consistency_report_flags_divergent_error_law():
    run = iterate(
        _contraction(seed=29),
        constant_schedule(0.0, 0.6),
        ErrorModel.power_decay(1e-2, 1.0, seed=5),  # harmonic: not summable
        tol=-1.0,
        max_iter=500,
    )
    rep = consistency_report(run)
    assert rep.item("weighted-error-sum").verdict == "not-consistent"
    assert rep.verdict == "not-consistent"


@pytest.mark.parametrize(
    "exponent, verdict, detail",
    [
        (1.1, "consistent", "declared error law is summable"),
        (1.0, "not-consistent", "declared error law is not-guaranteed"),
    ],
)
def test_solve_fbs_carries_its_declared_error_laws(exponent, verdict, detail):
    # over 2000 steps the tail heuristic cannot tell these two laws apart: the declared law decides
    inst = plant_lasso(60, 40, 5, 0.5, seed=3)
    rho = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    law = ErrorModel.power_decay(1e-2, exponent, seed=1)
    z0, schedule = inst.x_star + 0.5, constant_schedule(0.0, 0.9)
    run = solve_fbs(resolvent, forward, rho, z0, schedule, forward_errors=law, tol=-1.0, max_iter=2000)
    assert run.errors == (law,)
    item = consistency_report(run).item("weighted-error-sum")
    assert (item.verdict, item.detail) == (verdict, detail)

    resolvent_law = ErrorModel.power_decay(1e-2, 2.0, seed=2)
    both = solve_fbs(
        resolvent, forward, rho, z0, schedule, forward_errors=law, resolvent_errors=resolvent_law, max_iter=50
    )
    assert both.errors == (law, resolvent_law)
    item = consistency_report(both).item("weighted-error-sum")
    assert (item.verdict, item.detail) == (verdict, f"declared error laws are {law.summability}, summable")


def test_run_errors_are_the_declared_laws():
    prob = _contraction(seed=33)
    law = ErrorModel.power_decay(1e-3, 2.0)
    assert iterate(prob, constant_schedule(0.0, 0.5), law, max_iter=3).errors == (law,)
    assert iterate(prob, constant_schedule(0.0, 0.5), max_iter=3).errors == ()
    t = prob.operator.apply
    assert iterate(prob, constant_schedule(0.0, 0.5), perturb=lambda mu, k: (t(mu), t(mu), 0.0), max_iter=3).errors == ()


def test_a_perturb_run_with_recorded_errors_is_unjudged_unless_its_sum_overflows():
    # a perturb callback declares no law: a divergent, a summable and an overflowing sum of its
    # recorded error norms; only the last is a partial sum no convergent series can have
    prob = Problem(operator=make_identity(2), z0=[1.0, 0.0])
    t = prob.operator.apply
    unjudged = ("unjudged", "no declared error law, and no finite run settles the series")
    cases = [
        (lambda k: 1.0 / (k + 1), unjudged),
        (lambda k: 2.0**-k, unjudged),
        (lambda k: 1e308, ("not-consistent", "non-finite total")),
    ]
    for law, verdict in cases:
        run = iterate(
            prob, constant_schedule(0.0, 0.5), perturb=lambda mu, k: (t(mu), t(mu), law(k)), tol=-1.0, max_iter=64
        )
        assert run.errors == () and run.err_norms[1] > 0.0
        rep = consistency_report(run)
        item = rep.item("weighted-error-sum")
        assert (item.verdict, item.detail) == verdict and rep.verdict == verdict[0]
        with np.errstate(over="ignore"):
            assert item.value == float(np.cumsum(run.lambdas * run.err_norms)[-1])


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_a_run_that_records_no_error_has_no_error_sum(lam):
    # lambda_0 * 0 is NaN, but no error entered the run: its weighted-error sum is 0 by definition
    prob = Problem(make_identity(2), [1.0, 0.0])
    exact = iterate(prob, constant_schedule(0.0, lam), max_iter=3)
    t = prob.operator.apply
    silent = iterate(prob, constant_schedule(0.0, lam), perturb=lambda mu, k: (t(mu), t(mu), 0.0), max_iter=3)
    for run in (exact, silent):
        assert run.err_norms.tolist() == [0.0] and run.errors == ()
        item = consistency_report(run).item("weighted-error-sum")
        assert (item.value, item.verdict, item.detail) == (0.0, "consistent", "no errors recorded")
    # a recorded NaN norm is a recorded error, and a recorded error weighted by lambda_k = 0 is one too
    for lam_k, e_norm, verdict in [(0.5, math.nan, "not-consistent"), (0.0, 1.0, "unjudged")]:
        run = iterate(prob, constant_schedule(0.0, lam_k), perturb=lambda mu, k: (t(mu), t(mu), e_norm), max_iter=3)
        assert consistency_report(run).item("weighted-error-sum").verdict == verdict


def test_consistency_report_item_of_an_unknown_name_raises():
    rep = consistency_report(iterate(_contraction(seed=34), constant_schedule(0.0, 0.5), max_iter=3))
    with pytest.raises(KeyError):
        rep.item("no-such-item")


def test_consistency_report_flags_divergence():
    op = OperatorSpec(apply=lambda x: 2.0 * x, theta=1.0, dim=None)
    run = iterate(Problem(operator=op, z0=[1.0]), constant_schedule(0.0, 0.9), tol=-1.0, divergence_norm=1e6)
    rep = consistency_report(run)
    assert rep.item("bounded-iterates").verdict == "not-consistent"
    assert rep.verdict == "not-consistent"


def test_consistency_report_on_a_zero_inertia_overflow():
    # the state overflows to inf in two steps, so alpha_k * ||step||^2 would be 0 * inf
    op = make_affine([[-1.0]], [0.0])
    run = iterate(Problem(operator=op, z0=[1.0]), constant_schedule(0.0, 1e100), max_iter=5, divergence_norm=1e308)
    assert run.stop_reason == "diverged" and math.isinf(run.step_norms[-1])
    rep = consistency_report(run)
    assert rep.item("bounded-iterates").verdict == "not-consistent"
    inertia = rep.item("inertia-weighted-step-sum")
    assert (inertia.value, inertia.verdict, inertia.detail) == (0.0, "consistent", "no inertia")


@pytest.mark.parametrize(
    "magnitude, ratio, steps, verdict, detail",
    [
        # the state overflows in 5 steps, so the inertia-weighted sum is inf
        (1e-3, 1e40, 5, "not-consistent", "non-finite total"),
        # a geometric law with ratio above 1 (1e-3 * 2^k) stops at the budget of 6 steps, its sum finite
        (1e-3, 2.0, 6, "unjudged", "no finite run settles the series"),
    ],
)
def test_inertia_verdict_on_a_short_run(magnitude, ratio, steps, verdict, detail):
    prob = Problem(operator=make_affine(0.5 * np.eye(2), np.zeros(2)), z0=[1.0, 0.0], z_star=[0.0, 0.0])
    run = iterate(
        prob,
        constant_schedule(0.2, 0.5),
        ErrorModel.geometric(magnitude, ratio, seed=1),
        tol=-1.0,
        max_iter=steps,
        divergence_norm=math.inf,
    )
    assert run.iterations == steps
    item = consistency_report(run).item("inertia-weighted-step-sum")
    assert (item.verdict, item.detail) == (verdict, detail)


@pytest.mark.parametrize(
    "verdicts, verdict",
    [
        (("consistent", "consistent", "consistent"), "consistent"),
        (("consistent", "unjudged", "consistent"), "unjudged"),
        (("unjudged", "unjudged", "unjudged"), "unjudged"),
        (("consistent", "consistent", "not-consistent"), "not-consistent"),
        (("not-consistent", "unjudged", "consistent"), "not-consistent"),
        (("unjudged", "not-consistent", "not-consistent"), "not-consistent"),
    ],
)
def test_report_verdict_is_its_worst_item_verdict(verdicts, verdict):
    # any refuted item refutes the report; an unjudged one keeps it from reading consistent
    report = ConsistencyReport(tuple(ConsistencyItem(f"item-{i}", 0.0, v, "") for i, v in enumerate(verdicts)))
    assert report.verdict == report.to_dict()["verdict"] == verdict


def test_consistency_to_dict():
    run = iterate(_contraction(seed=30), constant_schedule(0.0, 0.5), max_iter=100_000)
    d = consistency_report(run).to_dict()
    assert d["verdict"] == "consistent"
    assert len(d["items"]) == 3
