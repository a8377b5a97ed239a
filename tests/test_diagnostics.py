"""Rate certificates, distance monotonicity checks, and run post-mortems."""

import math

import numpy as np
import pytest

from kmsolve.diagnostics import (
    consistency_report,
    quasi_fejer_violations,
    rate_certificate,
)
from kmsolve.engine import Problem, OperatorSpec, iterate
from kmsolve.operators import make_affine, make_identity
from kmsolve.schedules import (
    ErrorModel,
    ParamSchedule,
    constant_schedule,
    lambda_ceiling_ii,
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


def test_certificate_matches_a_literal_recomputation():
    run = iterate(
        _contraction(),
        constant_schedule(0.2, 0.5),
        ErrorModel.power_decay(1e-3, 2.0, seed=3),
        tol=-1.0,
        max_iter=200,
    )
    cert = rate_certificate(run)
    assert cert.valid
    n = run.iterations
    d, lam, al = run.dists, run.lambdas, run.alphas
    err, st, res = run.err_norms, run.step_norms, run.residuals
    ceiling, floor = cert.ceiling, cert.lambda_floor
    psi = d**2
    for idx, k in enumerate(cert.ks):
        assert k == idx + 1
        drift = sum(max(psi[i] - psi[i - 1], 0.0) for i in range(1, k + 1))
        e_term = sum(2.0 * d[i + 1] * lam[i] * err[i] for i in range(1, k + 1))
        s_term = sum(al[i] * (1.0 + al[i]) * st[i - 1] ** 2 for i in range(1, k + 1))
        want = run.schedule.alpha_cap * drift + e_term + s_term
        assert cert.delta[idx] == pytest.approx(want, rel=1e-12, abs=1e-15)
        rhs_sq = (d[1] ** 2 + want) / (k * floor * (1.0 - ceiling))
        assert cert.rhs_squared[idx] == pytest.approx(rhs_sq, rel=1e-12)
        assert cert.min_residual_sq[idx] == min(res[1 : k + 1]) ** 2
    assert cert.ks[-1] == n - 1


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


def test_certificate_refusal_reasons():
    prob = _contraction(seed=24)

    run = iterate(prob, constant_schedule(0.2, 1.0), tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == (
        "schedule infeasible under its declared regime: lambda_ceiling must be < 1"
    )

    sched = constant_schedule(0.2, 0.5, lambda_floor=0.0)
    run = iterate(prob, sched, tol=-1.0, max_iter=10)
    assert rate_certificate(run).reason == "needs a positive relaxation floor"

    anon = Problem(operator=prob.operator, z0=prob.z0)
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


def test_certificate_refuses_parameters_past_the_validated_horizon():
    # lambda_k leaves [lambda_floor, lambda_ceiling] only after the default 1000-step scan
    sched = ParamSchedule(
        alpha_of=lambda k: 0.0,
        lambda_of=lambda k: 0.5 if k < 2000 else 1.5,
        alpha_cap=0.0,
        lambda_floor=0.5,
        lambda_ceiling=0.5,
    )
    assert validate_schedule(sched).feasible
    run = iterate(_contraction(seed=32), sched, tol=-1.0, max_iter=3000)
    assert run.lambdas.max() == 1.5
    cert = rate_certificate(run)
    assert not cert.valid
    assert cert.reason == (
        "schedule infeasible under its declared regime: "
        "lambda_of(k) must be <= lambda_ceiling (max 1.5)"
    )

    # regime II: alpha decreases at k = 1500, past the scan but inside the run
    drop = ParamSchedule(
        alpha_of=lambda k: 0.0 if k == 0 else (0.1 if k < 1500 else 0.05),
        lambda_of=lambda k: 0.5,
        alpha_cap=0.1,
        lambda_floor=0.5,
        lambda_ceiling=0.5,
        sigma=0.01,
        delta=1.0,
    )
    assert validate_schedule(drop).feasible
    run = iterate(_contraction(seed=32), drop, tol=-1.0, max_iter=2000)
    cert = rate_certificate(run)
    assert not cert.valid
    assert cert.reason == (
        "schedule infeasible under its declared regime: alpha_of must be nondecreasing"
    )

    # a schedule infeasible only from k = 500 on certifies a run that stops before it
    late = ParamSchedule(
        alpha_of=lambda k: 0.2,
        lambda_of=lambda k: 0.5 if k < 500 else 1.5,
        alpha_cap=0.2,
        lambda_floor=0.5,
        lambda_ceiling=0.5,
    )
    assert not validate_schedule(late).feasible
    cert = rate_certificate(iterate(_contraction(seed=32), late, tol=-1.0, max_iter=10))
    assert cert.valid and cert.reason == ""
    assert cert.ks.size == 9
    assert cert.holds()


def test_certificate_ceiling_per_regime():
    run_i = iterate(_contraction(seed=25), constant_schedule(0.2, 0.7), tol=-1.0, max_iter=5)
    assert rate_certificate(run_i).ceiling == 0.7
    sched = constant_schedule(0.1, 0.5, sigma=0.01, delta=1.0)
    run_ii = iterate(_contraction(seed=25), sched, tol=-1.0, max_iter=5)
    assert rate_certificate(run_ii).ceiling == lambda_ceiling_ii(0.1, 0.01, 1.0)


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
    anon = Problem(operator=prob.operator, z0=prob.z0)
    run = iterate(anon, constant_schedule(0.0, 0.5), tol=-1.0, max_iter=10)
    with pytest.raises(ValueError):
        quasi_fejer_violations(run)


def test_consistency_report_clean_run():
    run = iterate(_contraction(seed=28), constant_schedule(0.2, 0.6), max_iter=100_000)
    rep = consistency_report(run)
    assert rep.consistent
    assert rep.verdict == "consistent"
    assert rep.item("bounded-iterates").verdict == "consistent"
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
    assert not rep.consistent


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
        # a geometric law with ratio above 1 (1e-3 * 2^k) stops at the budget of 6 steps
        (1e-3, 2.0, 6, "consistent", "too few steps (6) to judge the tail"),
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


def test_consistency_to_dict():
    run = iterate(_contraction(seed=30), constant_schedule(0.0, 0.5), max_iter=100_000)
    d = consistency_report(run).to_dict()
    assert d["verdict"] == "consistent"
    assert len(d["items"]) == 3
