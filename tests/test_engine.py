"""The iteration loop: traces, stopping rules, reductions, and relaxation."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from kmsolve.applications import box_intersection_pieces, solve_ppa
from kmsolve.engine import Problem, iterate
from kmsolve.operators import OperatorSpec, make_affine, make_fb_composition, make_identity, make_soft_threshold
from kmsolve.schedules import ErrorModel, ParamSchedule, constant_schedule, validate_schedule


def _halving_problem(z0=1.0, z_star=0.0):
    # T x = x / 2 in one dimension; fixed point 0
    op = make_affine(np.array([[0.5]]), np.zeros(1))
    return Problem(operator=op, z0=[z0], z_star=[z_star])


def test_inertial_trace_matches_hand_computation():
    # alpha = lambda = 1/2, T x = x/2, z0 = 1: every quantity is dyadic, so
    # the comparison is exact.  mu_k = z_k + a(z_k - z_{k-1}) with z_{-1} = z_0.
    run = iterate(_halving_problem(), constant_schedule(0.5, 0.5), tol=-1.0, max_iter=3, record_states=True)
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
    heavy = iterate(_halving_problem(), constant_schedule(0.9, 0.5), tol=-1.0, max_iter=2, record_states=True)
    plain = iterate(_halving_problem(), constant_schedule(0.0, 0.5), tol=-1.0, max_iter=2, record_states=True)
    assert np.array_equal(heavy.states[1], plain.states[1])
    assert not np.array_equal(heavy.states[2], plain.states[2])


def test_zero_error_model_matches_exact_run():
    rng = np.random.default_rng(11)
    prob = Problem(
        operator=make_soft_threshold(0.2, 5), z0=rng.uniform(-2, 2, 5), z_star=np.zeros(5)
    )
    sched = constant_schedule(0.1, 1.2)
    opts = dict(tol=-1.0, max_iter=200, record_states=True)
    exact = iterate(prob, sched, None, **opts)
    zero = iterate(prob, sched, ErrorModel.zero(), **opts)
    for name in ("z", "residuals", "err_norms", "step_norms", "dists"):
        assert np.array_equal(getattr(exact, name), getattr(zero, name))
    for a, b in zip(exact.states, zero.states):
        assert np.array_equal(a, b)
    assert np.all(zero.err_norms == 0.0)
    assert zero.max_state_norm == exact.max_state_norm


def test_exact_steps_equal_the_two_subtraction_restatement():
    # the loop forms T mu - mu once per exact step; a restatement that forms
    # it twice, once for the residual and once for the update, is bit-equal
    rng = np.random.default_rng(21)
    n, theta, alpha, lam = 8, 0.5, 0.3, 1.2
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = (1.0 - theta) * np.eye(n) + 0.45 * u  # ||q - (1 - theta) I||_2 = 0.45 <= theta
    b = rng.standard_normal(n)
    z_star = np.linalg.solve(np.eye(n) - q, b)
    prob = Problem(operator=make_affine(q, b, theta=theta), z0=z_star + rng.standard_normal(n), z_star=z_star)
    run = iterate(prob, constant_schedule(alpha, lam), tol=-1.0, max_iter=300)
    z_prev = z = prob.z0
    residuals, steps = [], []
    for k in range(300):
        a = 0.0 if k == 0 else alpha
        mu = z if a == 0.0 else z + a * (z - z_prev)
        t_mu = q @ mu + b
        residuals.append(math.sqrt(float(np.dot(t_mu - mu, t_mu - mu))))
        z_next = mu + lam * (t_mu - mu)
        steps.append(math.sqrt(float(np.dot(z_next - z, z_next - z))))
        z_prev, z = z, z_next
    assert np.array_equal(run.z, z)
    assert np.array_equal(run.residuals, residuals)
    assert np.array_equal(run.step_norms, steps)


def _norm(x):
    return math.sqrt(float(np.dot(x, x)))


def _restated_run(prob, alpha_of, lambda_of, steps, perturb=None):
    """The loop as its docstring states it, with Python-float scalars and
    z^k - z^{k-1} formed from a kept z_prev on every step; returns the
    final z, the states, the step norms, the distances and the largest
    state norm."""
    z_prev = z = prob.z0
    states, steps_out, dists = [z.copy()], [], [_norm(z - prob.z_star)]
    max_norm = _norm(z)
    for k in range(steps):
        a, lam = float(alpha_of(k)), float(lambda_of(k))
        mu = z if a == 0.0 else z + a * (z - z_prev)
        if perturb is None:
            t_eff = prob.operator.apply(mu)
        else:
            _, t_eff, _ = perturb(mu, k)
        z_next = mu + lam * (t_eff - mu)
        steps_out.append(_norm(z_next - z))
        dists.append(_norm(z_next - prob.z_star))
        states.append(z_next.copy())
        z_prev, z = z, z_next
        max_norm = max(max_norm, _norm(z))
    return z, states, steps_out, dists, max_norm


def _assert_run_equals_restatement(run, restated):
    z, states, steps, dists, max_norm = restated
    assert np.array_equal(run.z, z)
    assert len(run.states) == len(states)
    for got, want in zip(run.states, states):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(run.step_norms, steps)
    assert np.array_equal(run.dists, dists)
    assert run.max_state_norm == max_norm


def _averaged_affine_problem(seed, n=8, theta=0.5):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = (1.0 - theta) * np.eye(n) + 0.45 * u  # ||q - (1 - theta) I||_2 = 0.45 <= theta
    b = rng.standard_normal(n)
    z_star = np.linalg.solve(np.eye(n) - q, b)
    op = make_affine(q, b, theta=theta)
    return Problem(operator=op, z0=z_star + rng.standard_normal(n), z_star=z_star)


@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturb-callback"])
def test_carried_step_vector_equals_the_z_prev_restatement(perturbed):
    # the loop forms z^{k+1} - z^k once and reuses it as the next inertia
    # term; a restatement that keeps z_prev and subtracts again is bit-equal
    prob = _averaged_affine_problem(31)
    direction = np.random.default_rng(32).standard_normal(prob.operator.dim)
    perturb = None
    if perturbed:

        def perturb(mu, k):
            t_mu = prob.operator.apply(mu)
            e = (1e-3 / (k + 1) ** 2) * direction
            return t_mu, t_mu + e, _norm(e)

    sched = constant_schedule(0.3, 1.2)
    run = iterate(prob, sched, perturb=perturb, tol=-1.0, max_iter=300, record_states=True)
    restated = _restated_run(prob, sched.alpha_of, sched.lambda_of, 300, perturb)
    _assert_run_equals_restatement(run, restated)


def _fresh_floats(values):
    # a new float object on every call, even when the value repeats
    return lambda k: float.fromhex(values[k % len(values)].hex())


def test_step_scalar_cache_never_changes_a_bit():
    # fresh float objects every step, with repeats, zeros and varying values,
    # so the 0-d scalar arrays are rebuilt on every step; compared with
    # Python-float arithmetic, and with a schedule returning the same
    # objects (cache hits) mixed in
    prob = _averaged_affine_problem(33)
    alphas = [0.0, 0.3, 0.3, 0.1, 0.0, 0.25, 1.0 / 3.0]
    lambdas = [1.2, 0.7, 0.7, 1.5, 1.0 / 3.0]
    for alpha_of, lambda_of in (
        (_fresh_floats(alphas), _fresh_floats(lambdas)),
        (lambda k: alphas[k % len(alphas)], lambda k: lambdas[k % len(lambdas)]),
        (lambda k: alphas[(k // 5) % len(alphas)], _fresh_floats(lambdas)),
    ):
        sched = ParamSchedule(alpha_of, lambda_of, alpha_cap=1.0 / 3.0, lambda_floor=1.0 / 3.0, lambda_ceiling=1.5)
        run = iterate(prob, sched, tol=-1.0, max_iter=200, record_states=True)
        restated = _restated_run(prob, alpha_of, lambda_of, 200)
        _assert_run_equals_restatement(run, restated)


def test_step_scalar_cache_keeps_signed_zero_relaxations_apart():
    # -0.0 == 0.0, so a cache keyed on value would reuse -0.0 for +0.0; on
    # T x = x / 2 a zero relaxation keeps mu, and the sign of its product
    # with the direction decides the sign of a zero entry of z
    prob = Problem(operator=make_affine(0.5 * np.eye(2), np.zeros(2)), z0=[-0.0, 1.0], z_star=[0.0, 0.0])
    signed = [-0.0, 0.0]
    for lambda_of in (_fresh_floats(signed), lambda k: signed[k % 2]):
        sched = ParamSchedule(lambda k: 0.0, lambda_of, alpha_cap=0.0, lambda_floor=0.0, lambda_ceiling=0.0)
        run = iterate(prob, sched, tol=-1.0, max_iter=6, record_states=True)
        restated = _restated_run(prob, sched.alpha_of, lambda_of, 6)
        _assert_run_equals_restatement(run, restated)
        assert np.signbit(run.states[1][0]) and not np.signbit(run.states[2][0])


class _TaggedArray(np.ndarray):
    pass


@pytest.mark.parametrize("kind", ["list", "float32", "object", "subclass", "big-endian"])
def test_exact_step_coerces_operator_output_to_float64(kind):
    # the loop skips np.asarray for a float64 ndarray only; any other output is coerced
    convert = {
        "list": lambda v: v.tolist(),
        "float32": lambda v: v.astype(np.float32),
        "object": lambda v: v.astype(object),
        "subclass": lambda v: v.view(_TaggedArray),
        "big-endian": lambda v: v.astype(">f8"),
    }[kind]
    q = np.array([[0.5, 0.25], [0.0, 0.5]])
    schedule = constant_schedule(0.3, 0.7)

    def run(apply):
        prob = Problem(OperatorSpec(apply=apply, theta=1.0, dim=2), z0=[1.0, -2.0])
        return iterate(prob, schedule, max_iter=20, record_states=True)

    odd = run(lambda x: convert(q.dot(x) + 0.125))
    ref = run(lambda x: np.asarray(convert(q.dot(x) + 0.125), dtype=float))
    assert odd.iterations == ref.iterations == 20
    for got, want in zip(odd.states, ref.states):
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert odd.residuals.tobytes() == ref.residuals.tobytes()


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
    run = iterate(_halving_problem(), constant_schedule(0.0, 0.5), tol=-1.0, max_iter=25)
    assert run.stop_reason == "max-iter"
    assert not run.converged
    assert run.iterations == 25


def test_divergence_stop():
    op = OperatorSpec(apply=lambda x: 2.0 * x, theta=1.0, dim=None)
    prob = Problem(operator=op, z0=[1.0])
    run = iterate(prob, constant_schedule(0.0, 0.9), tol=-1.0, max_iter=10_000, divergence_norm=1e6)
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
        run = iterate(prob, constant_schedule(0.0, 1.0), tol=-1.0, max_iter=50, divergence_norm=divergence_norm)
    assert bool(np.isfinite(run.z).all()) == math.isfinite(value)
    assert run.stop_reason == "diverged"
    assert run.iterations == 1
    assert run.max_state_norm == math.inf


def test_nan_stopping_thresholds_are_rejected():
    for name in ("tol", "divergence_norm"):
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            iterate(_halving_problem(), constant_schedule(0.0, 0.5), max_iter=10, **{name: math.nan})


@pytest.mark.parametrize(
    "name, value", [("tol", "1e-3"), ("tol", None), ("divergence_norm", None), ("divergence_norm", "1e12")]
)
def test_stopping_thresholds_that_are_not_numbers_are_refused_by_name(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a real number, got"):
        iterate(_halving_problem(), constant_schedule(0.0, 0.5), max_iter=10, **{name: value})


def test_residual_stop_wins_ties_against_divergence():
    # identity at a huge start point: both rules fire on the same iteration
    prob = Problem(operator=make_identity(2), z0=np.full(2, 1e13))
    run = iterate(prob, constant_schedule(0.0, 0.5), tol=1e-10, divergence_norm=1e12)
    assert run.stop_reason == "residual-tol"


@pytest.mark.parametrize(
    "operator, z0, lam",
    [(make_identity(2), [1.0, 2.0], math.nan), (make_soft_threshold(0.3, 3), [0.0, 0.0, 0.0], math.inf)],
    ids=["identity-nan-lambda", "soft-threshold-inf-lambda"],
)
def test_non_finite_state_stops_as_diverged_when_the_residual_meets_tol(operator, z0, lam):
    # T mu = mu, so the residual is 0 and meets tol, while lambda times the
    # zero vector T mu - mu is NaN: the state is lost, not converged.  Any
    # numpy warning is an error under the test configuration.
    run = iterate(Problem(operator=operator, z0=z0), constant_schedule(0.0, lam))
    assert run.residuals.tolist() == [0.0]
    assert np.isnan(run.z).all()
    assert run.stop_reason == "diverged"
    assert not run.converged
    assert run.max_state_norm == math.inf


def test_residual_stop_wins_ties_on_a_finite_state_whose_squares_overflow():
    prob = Problem(operator=make_identity(2), z0=np.full(2, 1e200))
    run = iterate(prob, constant_schedule(0.0, 0.5), tol=1e-10, divergence_norm=math.inf)
    assert np.isfinite(run.z).all() and run.max_state_norm == math.inf
    assert run.stop_reason == "residual-tol" and run.converged


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, None, "3"])
def test_max_iter_must_be_an_integer(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        iterate(_halving_problem(), constant_schedule(0.0, 0.5), max_iter=max_iter)


def test_errors_and_perturb_are_mutually_exclusive():
    with pytest.raises(ValueError):
        iterate(
            _halving_problem(),
            constant_schedule(0.0, 0.5),
            ErrorModel.power_decay(0.1, 2.0),
            perturb=lambda mu, k: (mu, mu, 0.0),
        )


def _run_digest(run):
    h = hashlib.sha256()
    for name in ("z", "residuals", "err_norms", "alphas", "lambdas", "step_norms", "dists"):
        h.update(getattr(run, name).tobytes())
    for state in run.states:
        h.update(state.tobytes())
    h.update(f"{run.stop_reason} {run.iterations} {run.max_state_norm.hex()}".encode())
    return h.hexdigest()


def _ppa_args():
    rng = np.random.default_rng(41)
    return make_soft_threshold(0.3, 8), rng.uniform(-2, 2, 8), constant_schedule(0.1, 1.5)


def test_unwrap_route_matches_direct_route():
    # solve_ppa's route is inert: "direct" and "unwrap" run the one loop, bit for bit
    opts = dict(z_star=np.zeros(8), tol=-1.0, max_iter=500, record_states=True)
    for errors in (None, ErrorModel.power_decay(0.1, 2.0, seed=42)):
        default = _run_digest(solve_ppa(*_ppa_args(), errors, **opts))
        for route in ("direct", "unwrap"):
            run = solve_ppa(*_ppa_args(), errors, route=route, **opts)
            assert _run_digest(run) == default, (errors, route)


def test_unknown_route_rejected():
    with pytest.raises(ValueError, match="unknown route 'sideways'"):
        solve_ppa(*_ppa_args(), route="sideways")


def test_negative_max_iter_rejected():
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        iterate(_halving_problem(), constant_schedule(0.0, 0.5), max_iter=-1)


def test_averaged_operators_run_over_relaxed_on_the_one_loop():
    # relaxations past 1 are admissible for a theta-averaged T up to 1/theta,
    # and iterate runs them on T itself: lambda 1.5 on a resolvent (theta 1/2),
    # lambda 1.2 on the box forward-backward map P1 P2 (theta 2/3)
    rng = np.random.default_rng(707)
    prox = make_soft_threshold(0.3, 10)
    fb = make_fb_composition(
        *box_intersection_pieces(np.full(6, -1.0), np.full(6, 0.5), np.full(6, -0.2), np.full(6, 1.3)), 1.0
    )
    assert fb.theta == 2.0 / 3.0
    limits = []
    for op, z0, sched in (
        (prox, rng.uniform(-2.0, 2.0, 10), constant_schedule(0.1, 1.5)),
        (fb, rng.uniform(1.0, 2.5, 6), constant_schedule(0.05, 1.2)),
    ):
        assert not validate_schedule(sched).feasible
        assert validate_schedule(sched, theta=op.theta).feasible
        run = iterate(Problem(operator=op, z0=z0), sched)
        assert run.stop_reason == "residual-tol"
        limits.append(run.z)
    assert np.max(np.abs(limits[0])) <= 1e-9  # the soft threshold's only fixed point is 0
    assert np.all((limits[1] >= -0.2) & (limits[1] <= 0.5))  # a point of both boxes


def test_error_model_norms_are_recorded_per_step():
    m = ErrorModel.power_decay(0.05, 2.0, seed=13)
    run = iterate(_halving_problem(), constant_schedule(0.0, 0.5), m, tol=-1.0, max_iter=8)
    want = [m.norm_at(k) for k in range(8)]
    assert np.allclose(run.err_norms, want, rtol=1e-12, atol=0)


def test_result_shapes_and_defaults():
    run = iterate(_halving_problem(), constant_schedule(0.0, 0.5), tol=-1.0, max_iter=7)
    n = run.iterations
    assert n == 7
    for arr in (run.residuals, run.err_norms, run.alphas, run.lambdas, run.step_norms):
        assert arr.shape == (n,)
    assert run.dists.shape == (n + 1,)
    assert run.states is None  # recording is off by default
    assert run.residual == run.residuals[-1]
    assert run.dist_to_star == run.dists[-1]


def test_dists_absent_without_a_known_solution():
    prob = Problem(operator=make_affine(np.array([[0.5]]), np.zeros(1)), z0=[1.0])
    run = iterate(prob, constant_schedule(0.0, 0.5), tol=-1.0, max_iter=3)
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


def test_max_state_norm_includes_the_final_state():
    prob = Problem(operator=make_identity(1), z0=[7.0])
    run = iterate(prob, constant_schedule(0.0, 0.5), tol=1e-10)
    assert run.max_state_norm == 7.0
