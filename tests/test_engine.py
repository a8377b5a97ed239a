"""The iteration loop: traces, stopping rules, reductions, and routes."""

import math
import warnings

import numpy as np
import pytest

from kmsolve.engine import Problem, inertial_km, inexact_km, iterate, km
from kmsolve.operators import OperatorSpec, make_affine, make_identity, make_soft_threshold
from kmsolve.schedules import ErrorModel, constant_schedule


def _halving_problem(z0=1.0, z_star=0.0):
    # T x = x / 2 in one dimension; fixed point 0
    op = make_affine(np.array([[0.5]]), np.zeros(1))
    return Problem(operator=op, z0=[z0], z_star=[z_star])


def test_inertial_trace_matches_hand_computation():
    # alpha = lambda = 1/2, T x = x/2, z0 = 1: every quantity is dyadic, so
    # the comparison is exact.  mu_k = z_k + a(z_k - z_{k-1}) with z_{-1} = z_0.
    run = inertial_km(
        _halving_problem(), constant_schedule(0.5, 0.5), tol=-1.0, max_iter=3, record_states=True
    )
    zs = [float(s[0]) for s in run.states]
    assert zs == [1.0, 0.75, 0.46875, 0.24609375]
    assert run.residuals.tolist() == [0.5, 0.3125, 0.1640625]
    assert run.alphas.tolist() == [0.5, 0.5, 0.5]
    assert run.lambdas.tolist() == [0.5, 0.5, 0.5]
    assert run.dists.tolist() == [1.0, 0.75, 0.46875, 0.24609375]


def test_perturbed_trace_replays_the_documented_recurrence():
    # replicate z_{k+1} = mu + lam * (T mu + e - mu) with the same float ops
    lam, alpha, e_val = 0.5, 0.25, 0.1
    prob = _halving_problem()

    def perturb(mu, k):
        t_mu = prob.operator.apply(mu)
        return t_mu, t_mu + e_val, e_val

    run = iterate(
        prob,
        constant_schedule(alpha, lam),
        perturb=perturb,
        tol=-1.0,
        max_iter=6,
        record_states=True,
    )
    z_prev = np.array([1.0])
    z = np.array([1.0])
    for k in range(6):
        a = 0.0 if k == 0 else alpha  # z_{-1} = z_0 makes the first pull vanish
        mu = z if a == 0.0 else z + a * (z - z_prev)
        t_mu = np.array([[0.5]]) @ mu + np.zeros(1)
        z_prev, z = z, mu + lam * ((t_mu + e_val) - mu)
        assert np.array_equal(run.states[k + 1], z)
    assert np.all(run.err_norms == e_val)


def test_first_step_ignores_inertia():
    # z_{-1} = z_0, so step one matches the zero-inertia run exactly
    heavy = inertial_km(_halving_problem(), constant_schedule(0.9, 0.5), tol=-1.0, max_iter=2, record_states=True)
    plain = km(_halving_problem(), 0.5, tol=-1.0, max_iter=2, record_states=True)
    assert np.array_equal(heavy.states[1], plain.states[1])
    assert not np.array_equal(heavy.states[2], plain.states[2])


def test_reductions_are_bit_identical():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    prob = Problem(operator=make_affine(0.95 * q, rng.standard_normal(6)), z0=rng.standard_normal(6))
    opts = dict(tol=-1.0, max_iter=400, record_states=True)
    runs = [
        km(prob, 0.6, **opts),
        inexact_km(prob, 0.6, ErrorModel.zero(), **opts),
        inertial_km(prob, constant_schedule(0.0, 0.6), **opts),
        iterate(prob, constant_schedule(0.0, 0.6), ErrorModel.zero(), **opts),
    ]
    for r in runs[1:]:
        assert np.array_equal(runs[0].residuals, r.residuals)
        for a, b in zip(runs[0].states, r.states):
            assert np.array_equal(a, b)


def test_zero_error_model_matches_exact_run_on_both_routes():
    rng = np.random.default_rng(11)
    prob = Problem(
        operator=make_soft_threshold(0.2, 5), z0=rng.uniform(-2, 2, 5), z_star=np.zeros(5)
    )
    sched = constant_schedule(0.1, 1.2)
    for route in ("direct", "unwrap"):
        opts = dict(tol=-1.0, max_iter=200, record_states=True, route=route)
        exact = iterate(prob, sched, None, **opts)
        zero = iterate(prob, sched, ErrorModel.zero(), **opts)
        for name in ("z", "residuals", "err_norms", "step_norms", "dists"):
            assert np.array_equal(getattr(exact, name), getattr(zero, name))
        for a, b in zip(exact.states, zero.states):
            assert np.array_equal(a, b)
        assert np.all(zero.err_norms == 0.0)
        assert zero.max_state_norm == exact.max_state_norm


def test_km_rejects_inertial_schedules():
    with pytest.raises(ValueError):
        km(_halving_problem(), constant_schedule(0.3, 0.5))


def test_residual_measured_before_error_is_added():
    # identity operator: residual 0 at the start point, so the run stops
    # immediately even though the perturbation moves the iterate
    prob = Problem(operator=make_identity(3), z0=np.ones(3))
    t = prob.operator.apply
    run = iterate(
        prob,
        constant_schedule(0.0, 0.5),
        perturb=lambda mu, k: (t(mu), t(mu) + 1.0, np.sqrt(3.0)),
        tol=1e-10,
    )
    assert run.stop_reason == "residual-tol"
    assert run.converged
    assert run.iterations == 1
    assert run.residuals[0] == 0.0
    assert not np.array_equal(run.z, prob.z0)


def test_negative_tol_disables_residual_stop():
    run = km(_halving_problem(), 0.5, tol=-1.0, max_iter=25)
    assert run.stop_reason == "max-iter"
    assert not run.converged
    assert run.iterations == 25


def test_divergence_stop():
    op = OperatorSpec(apply=lambda x: 2.0 * x, theta=1.0, dim=None)
    prob = Problem(operator=op, z0=[1.0])
    run = km(prob, 0.9, tol=-1.0, max_iter=10_000, divergence_norm=1e6)
    assert run.stop_reason == "diverged"
    assert not run.converged
    assert run.iterations < 10_000


@pytest.mark.parametrize(
    "value, divergence_norm",
    [(math.nan, 1e12), (1e200, math.inf), (math.inf, math.inf)],
    ids=["nan-state", "finite-state-overflowing-norm", "inf-state-no-cap"],
)
def test_non_finite_norm_stops_as_diverged(value, divergence_norm):
    # with 1e200 every entry of z^1 is finite, but the sum of squares
    # overflows; numpy's overflow warning must not escape the loop
    op = OperatorSpec(apply=lambda x: np.full(np.shape(x), value), theta=1.0, dim=None)
    prob = Problem(operator=op, z0=[1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = km(prob, 1.0, tol=-1.0, max_iter=50, divergence_norm=divergence_norm)
    assert bool(np.isfinite(run.z).all()) == math.isfinite(value)
    assert run.stop_reason == "diverged"
    assert run.iterations == 1
    assert run.max_state_norm == math.inf


def test_nan_stopping_thresholds_are_rejected():
    for name in ("tol", "divergence_norm"):
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            km(_halving_problem(), 0.5, max_iter=10, **{name: math.nan})


def test_residual_stop_wins_ties_against_divergence():
    # identity at a huge start point: both rules fire on the same iteration
    prob = Problem(operator=make_identity(2), z0=np.full(2, 1e13))
    run = km(prob, 0.5, tol=1e-10, divergence_norm=1e12)
    assert run.stop_reason == "residual-tol"


def test_errors_and_perturb_are_mutually_exclusive():
    with pytest.raises(ValueError):
        iterate(
            _halving_problem(),
            constant_schedule(0.0, 0.5),
            ErrorModel.power_decay(0.1, 2.0),
            perturb=lambda mu, k: (mu, mu, 0.0),
        )


def test_unknown_route_rejected():
    with pytest.raises(ValueError, match="unknown route 'sideways'"):
        iterate(_halving_problem(), constant_schedule(0.0, 0.5), route="sideways")


def test_negative_max_iter_rejected():
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        iterate(_halving_problem(), constant_schedule(0.0, 0.5), max_iter=-1)


def test_unwrap_route_requires_declared_averagedness():
    with pytest.raises(ValueError, match=r"route 'unwrap' needs an averaged problem \(theta < 1\)"):
        iterate(_halving_problem(), constant_schedule(0.0, 0.5), route="unwrap")


def test_unwrap_route_matches_direct_route():
    rng = np.random.default_rng(9)
    prob = Problem(operator=make_soft_threshold(0.2, 5), z0=rng.uniform(-2, 2, 5))
    sched = constant_schedule(0.1, 1.4)  # above 1: only legal thanks to theta = 1/2
    opts = dict(tol=-1.0, max_iter=300, record_states=True)
    d = iterate(prob, sched, route="direct", **opts)
    u = iterate(prob, sched, route="unwrap", **opts)
    for a, b in zip(d.states, u.states):
        assert np.max(np.abs(a - b)) <= 1e-12
    assert np.max(np.abs(d.residuals - u.residuals)) <= 1e-12
    assert np.array_equal(d.lambdas, u.lambdas)  # recorded at scheme level on both routes


def test_unwrap_route_stops_at_the_same_iteration():
    rng = np.random.default_rng(10)
    prob = Problem(operator=make_soft_threshold(0.2, 5), z0=rng.uniform(-2, 2, 5))
    sched = constant_schedule(0.1, 1.4)
    d = iterate(prob, sched, route="direct", tol=1e-10)
    u = iterate(prob, sched, route="unwrap", tol=1e-10)
    assert (d.iterations, d.stop_reason) == (u.iterations, u.stop_reason)


def test_error_model_norms_are_recorded_per_step():
    m = ErrorModel.power_decay(0.05, 2.0, seed=13)
    run = iterate(_halving_problem(), constant_schedule(0.0, 0.5), m, tol=-1.0, max_iter=8)
    want = [m.norm_at(k) for k in range(8)]
    assert np.allclose(run.err_norms, want, rtol=1e-12, atol=0)


def test_result_shapes_and_defaults():
    run = km(_halving_problem(), 0.5, tol=-1.0, max_iter=7)
    n = run.iterations
    assert n == 7
    for arr in (run.residuals, run.err_norms, run.alphas, run.lambdas, run.step_norms):
        assert arr.shape == (n,)
    assert run.dists.shape == (n + 1,)
    assert run.states is None  # recording is off by default
    assert run.residual == run.residuals[-1]
    assert run.dist_to_star == run.dists[-1]
    assert run.route == "direct"


def test_dists_absent_without_a_known_solution():
    prob = Problem(operator=make_affine(np.array([[0.5]]), np.zeros(1)), z0=[1.0])
    run = km(prob, 0.5, tol=-1.0, max_iter=3)
    assert run.dists is None


def test_problem_validates_dimensions():
    op = make_affine(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        Problem(operator=op, z0=np.ones(2), z_star=np.ones(3))


def test_one_operator_application_per_iteration():
    calls = {"n": 0}

    def apply(x):
        calls["n"] += 1
        return 0.5 * x

    op = OperatorSpec(apply=apply, theta=0.5, dim=None)
    prob = Problem(operator=op, z0=[1.0])
    iterate(prob, constant_schedule(0.2, 0.5), tol=-1.0, max_iter=30)
    assert calls["n"] == 30
    calls["n"] = 0
    iterate(prob, constant_schedule(0.2, 0.5), tol=-1.0, max_iter=30, route="unwrap")
    assert calls["n"] == 30


def test_max_state_norm_includes_the_final_state():
    prob = Problem(operator=make_identity(1), z0=[7.0])
    run = km(prob, 0.5, tol=1e-10)
    assert run.max_state_norm == 7.0
