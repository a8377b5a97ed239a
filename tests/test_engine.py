"""The iteration loop: traces, stopping rules, reductions, and relaxation."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kmsolve.applications import box_intersection_pieces, lasso_fbs_pieces, plant_lasso, solve_fbs, solve_ppa
from kmsolve.engine import Problem, _distances, iterate
from kmsolve.operators import (
    OperatorSpec,
    make_affine,
    make_fb_composition,
    make_identity,
    make_soft_threshold,
    quadratic_gradient,
)
from kmsolve.schedules import ErrorModel, ParamSchedule, constant_schedule, emit_error, validate_schedule


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
    # a zero-magnitude law takes the perturbed path and must give the exact run's bits
    rng = np.random.default_rng(11)
    prob = Problem(
        operator=make_soft_threshold(0.2, 5), z0=rng.uniform(-2, 2, 5), z_star=np.zeros(5)
    )
    sched = constant_schedule(0.1, 1.2)
    opts = dict(tol=-1.0, max_iter=200, record_states=True)
    exact = iterate(prob, sched, None, **opts)
    zero = iterate(prob, sched, ErrorModel.power_decay(0.0, 0.0), **opts)
    for name in ("z", "residuals", "err_norms", "step_norms", "dists"):
        assert np.array_equal(getattr(exact, name), getattr(zero, name))
    for a, b in zip(exact.states, zero.states):
        assert np.array_equal(a, b)
    assert np.all(zero.err_norms == 0.0)
    assert zero.max_state_norm == exact.max_state_norm


def _norm(x):
    return math.sqrt(float(np.dot(x, x)))


def _averaged_affine_problem(seed, n=8, theta=0.5):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = (1.0 - theta) * np.eye(n) + 0.45 * u  # ||q - (1 - theta) I||_2 = 0.45 <= theta
    b = rng.standard_normal(n)
    z_star = np.linalg.solve(np.eye(n) - q, b)
    op = make_affine(q, b, theta=theta)
    return Problem(operator=op, z0=z_star + rng.standard_normal(n), z_star=z_star)


@np.errstate(over="ignore", invalid="ignore")
def _every_step_norm_run(prob, schedule, errors=None, perturb=None, *, tol, max_iter, divergence_norm):
    """The loop with its stopping rules as the module docstring states them:
    Python-float scalars, ||z^{k+1}|| taken on every step, T mu - mu formed
    twice (once for the residual, once for the update) and z^k - z^{k-1}
    from a kept z_prev.  Returns the fields of a RunResult that the run must match bit for bit,
    and the norm of every state."""
    out = {name: [] for name in ("residuals", "err_norms", "alphas", "lambdas", "step_norms")}
    z_prev = z = prob.z0
    states, dists = [z.copy()], None if prob.z_star is None else [_norm(z - prob.z_star)]
    max_norm, stop_reason = _norm(z), "max-iter"
    state_norms = [max_norm]
    for k in range(max_iter):
        a, lam = float(schedule.alpha_of(k)), float(schedule.lambda_of(k))
        mu = z if a == 0.0 else z + a * (z - z_prev)
        if perturb is not None:
            t_mu, t_eff, e_norm = perturb(mu, k)
        else:
            t_mu = t_eff = np.asarray(prob.operator.apply(mu), dtype=float)
            e_norm = 0.0
            if errors is not None and errors.norm_at(k) != 0.0:
                e = emit_error(errors, k, prob.operator.dim)
                t_eff, e_norm = t_mu + e, _norm(e)
        r = _norm(t_mu - mu)
        z_prev, z = z, mu + lam * (t_eff - mu)
        for name, value in zip(out, (r, e_norm, a, lam, _norm(z - z_prev))):
            out[name].append(float(value))
        states.append(z.copy())
        if dists is not None:
            dists.append(_norm(z - prob.z_star))
        zn = _norm(z)
        zn = math.inf if math.isnan(zn) else zn
        state_norms.append(zn)
        max_norm = max(max_norm, zn)
        if r <= tol:
            stop_reason = "residual-tol" if zn < math.inf or np.isfinite(z).all() else "diverged"
            break
        if zn >= divergence_norm:
            stop_reason = "diverged"
            break
    return dict(
        out,
        stop_reason=stop_reason,
        iterations=len(states) - 1,
        max_state_norm=max_norm,
        states=states,
        dists=dists,
        state_norms=state_norms,
    )


def _assert_run_equals_every_step_norm_run(run, ref, label="", states=True):
    """`states`: whether the run recorded them; without, only the final state is compared."""
    assert (run.stop_reason, run.iterations) == (ref["stop_reason"], ref["iterations"]), label
    assert run.max_state_norm.hex() == ref["max_state_norm"].hex(), label
    for name in ("residuals", "err_norms", "alphas", "lambdas", "step_norms"):
        assert getattr(run, name).tobytes() == np.asarray(ref[name], dtype=float).tobytes(), (label, name)
    assert (run.dists is None) == (ref["dists"] is None), label
    if run.dists is not None:
        assert run.dists.tobytes() == np.asarray(ref["dists"]).tobytes(), label
    if not states:
        assert run.states is None, label
    else:
        assert len(run.states) == len(ref["states"]), label
        for got, want in zip(run.states, ref["states"]):
            assert got.tobytes() == want.tobytes(), label
    assert run.z.tobytes() == ref["states"][-1].tobytes(), label


def _spiral_problem():
    # T x = c + 0.95 R (x - c), R a turn by 0.5 rad, about c = (3, 0): z
    # winds in towards c, so ||z|| rises and falls before it settles at 3
    t = 0.5
    q = 0.95 * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    c = np.array([3.0, 0.0])
    return Problem(operator=make_affine(q, c - q @ c), z0=[3.0, -2.0], z_star=c)


def _scaled_operator(factor, dim):
    return OperatorSpec(apply=lambda x: factor * x, theta=1.0, dim=dim)


def _lambda_at(step, value, lam, alpha=0.0):
    """Constant alpha and lam, except lambda_k = value at k = step."""
    return ParamSchedule(lambda k: alpha, lambda k: value if k == step else lam)


def _peak(norms):
    return int(np.argmax(norms))


def test_exact_steps_equal_the_two_subtraction_restatement():
    # the loop forms T mu - mu once per exact step and takes ||z^{k+1}|| only
    # on steps where it could set the maximum, meet divergence_norm or decide
    # the residual tie; the restatement forms the difference twice and takes
    # the norm on every step, and each case must match it bit for bit
    averaged = constant_schedule(0.3, 1.2)
    plain = constant_schedule(0.0, 1.0)
    toward = make_affine(0.99 * np.eye(2), [0.03, 0.04])
    creep = OperatorSpec(apply=lambda x: x + np.array([5e-163, 0.0]), theta=1.0, dim=2)
    cases = {
        # name: (problem, schedule, options, what the restated run shows)
        "averaged-affine": (_averaged_affine_problem(21), averaged, {}, None),
        "max-mid-run": (
            _spiral_problem(),
            constant_schedule(0.2, 0.8),
            {},
            lambda n, run: 0 < _peak(n) < len(n) - 1 and n[-1] < max(n),
        ),
        "max-on-last-step": (
            Problem(operator=toward, z0=[1e-3, 0.0], z_star=[3.0, 4.0]),
            constant_schedule(0.1, 0.9),
            {},
            lambda n, run: _peak(n) == len(n) - 1 and n[-1] > n[-2],
        ),
        "start-past-divergence-norm": (
            Problem(operator=make_affine(0.5 * np.eye(2), np.zeros(2)), z0=[10.0, 0.0]),
            constant_schedule(0.0, 0.5),
            dict(tol=1e-8, divergence_norm=8.0),
            lambda n, run: n[0] >= 8.0 and np.all(np.diff(n) < 0),
        ),
        "falls-below-then-crosses-divergence-norm": (
            Problem(operator=_scaled_operator(np.array([0.01, 1.3]), 2), z0=[10.0, 1e-3]),
            plain,
            dict(divergence_norm=1.0),
            lambda n, run: n[0] > 1.0 > min(n) and run.stop_reason == "diverged",
        ),
        # squares of 5e-163 underflow to 0, so each step's norm is 0
        "steps-whose-squares-underflow": (
            Problem(operator=creep, z0=[-1e-160, 0.0]),
            plain,
            dict(max_iter=500),
            lambda n, run: _peak(n) == len(n) - 1 and max(run.step_norms) == 0.0,
        ),
        "divergence-norm-zero": (_averaged_affine_problem(22), averaged, dict(divergence_norm=0.0), None),
        "divergence-norm-negative": (_averaged_affine_problem(22), averaged, dict(divergence_norm=-1.0), None),
        "divergence-norm-inf": (
            _averaged_affine_problem(22),
            averaged,
            dict(tol=1e-9, divergence_norm=math.inf),
            lambda n, run: run.stop_reason == "residual-tol",
        ),
        "nan-lambda-mid-run": (
            _averaged_affine_problem(23),
            _lambda_at(40, math.nan, 0.7),
            {},
            lambda n, run: run.stop_reason == "diverged" and run.iterations == 41,
        ),
        "nan-lambda-at-a-fixed-point": (
            Problem(operator=make_identity(2), z0=[1.0, 2.0]),
            _lambda_at(0, math.nan, 0.5),
            dict(tol=1e-10),
            lambda n, run: run.stop_reason == "diverged" and run.residuals.tolist() == [0.0],
        ),
        "overflowing-squares-at-a-fixed-point": (
            Problem(operator=make_identity(2), z0=np.full(2, 1e200)),
            constant_schedule(0.0, 0.5),
            dict(tol=1e-10, divergence_norm=math.inf),
            lambda n, run: run.stop_reason == "residual-tol" and n[-1] == math.inf,
        ),
        "overflowing-squares-growing": (
            Problem(operator=_scaled_operator(4.0, 2), z0=[1.0, 1.0]),
            plain,
            dict(divergence_norm=math.inf),
            lambda n, run: run.stop_reason == "diverged" and np.isfinite(run.z).all(),
        ),
    }
    for label, (prob, schedule, opts, shows) in cases.items():
        opts = {"tol": -1.0, "max_iter": 300, "divergence_norm": 1e12, **opts}
        run = iterate(prob, schedule, record_states=True, **opts)
        ref = _every_step_norm_run(prob, schedule, **opts)
        _assert_run_equals_every_step_norm_run(run, ref, label)
        assert shows is None or shows(ref["state_norms"], run), label


def _sweep_case(i):
    """One seeded run of the mixed sweep: (problem, schedule, errors, perturb, options)."""
    rng = np.random.default_rng([1800, i])
    n = int(rng.integers(1, 9))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    z0 = scale * rng.standard_normal(n)
    z_star = None
    kind = ("averaged", "rotation", "soft", "saddle", "identity")[i % 5]
    if kind in ("averaged", "rotation"):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q = 0.5 * np.eye(n) + 0.45 * u if kind == "averaged" else 0.97 * u
        z_star = scale * rng.standard_normal(n)
        op = make_affine(q, z_star - q @ z_star)
    elif kind == "soft":
        op = make_soft_threshold(scale * rng.uniform(0.01, 0.5), n)
    elif kind == "saddle":
        # contracts some coordinates and stretches others: ||z|| falls, then grows
        op = _scaled_operator(rng.uniform(0.3, 1.3, n), n)
    else:
        op = make_identity(n)
    alpha, lam = float(rng.choice([0.0, rng.uniform(0.0, 0.6)])), rng.uniform(0.1, 1.8)
    schedule = constant_schedule(alpha, lam)
    if rng.random() < 0.1:
        schedule = _lambda_at(int(rng.integers(0, 150)), math.nan, lam, alpha)
    errors = perturb = None
    source = rng.integers(0, 3)
    if source == 1:
        errors = ErrorModel.power_decay(scale * 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(0.5, 2.5), seed=i)
    elif source == 2:
        direction = scale * 10.0 ** rng.uniform(-3.0, 0.0) * rng.standard_normal(n)

        def perturb(mu, k):
            t_mu = np.asarray(op.apply(mu), dtype=float)
            e = direction / (k + 1) ** 2
            return t_mu, t_mu + e, _norm(e)

    if rng.random() < 0.5:
        divergence_norm = float(rng.choice([1e12, 1e3, 1.0, 1e-3, 0.0, -1.0, math.inf]))
    else:
        divergence_norm = _norm(z0) * rng.uniform(0.3, 3.0)
    tol = float(rng.choice([-1.0, 1e-10, 1e-6, scale * 1e-4]))
    opts = dict(tol=tol, max_iter=int(rng.integers(1, 200)), divergence_norm=divergence_norm)
    return Problem(operator=op, z0=z0, z_star=z_star), schedule, errors, perturb, opts


def test_state_norm_skips_match_the_every_step_norm_run_on_a_seeded_sweep():
    # affine, rotating, soft-threshold, expansive and identity maps, exact and
    # with either error source, at fixed and trajectory-scaled divergence_norm
    reasons = {"residual-tol": 0, "diverged": 0, "max-iter": 0}
    for i in range(320):
        prob, schedule, errors, perturb, opts = _sweep_case(i)
        run = iterate(prob, schedule, errors, perturb=perturb, record_states=True, **opts)
        ref = _every_step_norm_run(prob, schedule, errors, perturb, **opts)
        _assert_run_equals_every_step_norm_run(run, ref, i)
        reasons[run.stop_reason] += 1
    assert min(reasons.values()) >= 30, reasons


def _diagonal_problem(n, seed):
    # T x = c x coordinatewise, c in [0.5, 0.99): cheap at any n, z* = 0
    rng = np.random.default_rng(seed)
    op = _scaled_operator(rng.uniform(0.5, 0.99, n), n)
    return Problem(operator=op, z0=rng.standard_normal(n), z_star=np.zeros(n))


def test_distances_taken_in_blocks_equal_the_every_step_norm_run():
    # `iterate` takes ||z^k - z*|| in blocks of max(1, min(64, 16384 // dim))
    # states after the step; each case must match the per-step
    # sqrt(x.dot(x)) of the restatement bit for bit, with no warning raised
    averaged = constant_schedule(0.3, 1.2)
    cases = {
        # name: (problem, schedule, options, record_states, what the run shows)
        "dim-1": (_averaged_affine_problem(41, n=1), averaged, {}, False, None),
        "dim-20": (_averaged_affine_problem(42, n=20), averaged, {}, False, None),
        "dim-200": (_averaged_affine_problem(43, n=200), averaged, {}, False, None),
        "dim-300-blocks-of-54": (_averaged_affine_problem(44, n=300), averaged, {}, False, None),
        "dim-20000-blocks-of-1": (_diagonal_problem(20000, 45), averaged, dict(max_iter=40), False, None),
        "tol-stop-mid-block": (
            _averaged_affine_problem(46, n=20),
            averaged,
            dict(tol=1e-9, max_iter=1000),
            False,
            lambda run: run.stop_reason == "residual-tol" and run.iterations % 64 not in (0, 63),
        ),
        "nan-state-mid-block": (
            _averaged_affine_problem(47, n=20),
            _lambda_at(70, math.nan, 0.7),
            {},
            False,
            lambda run: run.stop_reason == "diverged" and run.iterations == 71 and math.isnan(run.dists[-1]),
        ),
        "inf-state-mid-block": (
            _averaged_affine_problem(48, n=20),
            _lambda_at(100, math.inf, 0.7),
            {},
            False,
            lambda run: run.stop_reason == "diverged" and run.iterations == 101 and np.isinf(run.z).any(),
        ),
        "max-iter-0": (_averaged_affine_problem(49, n=20), averaged, dict(max_iter=0), False, None),
        "exactly-64-steps": (_averaged_affine_problem(50, n=20), averaged, dict(max_iter=64), False, None),
        "exactly-128-steps": (_averaged_affine_problem(51, n=20), averaged, dict(max_iter=128), False, None),
        "record-states": (_averaged_affine_problem(52, n=20), averaged, dict(max_iter=150), True, None),
    }
    for label, (prob, schedule, opts, record, shows) in cases.items():
        opts = {"tol": -1.0, "max_iter": 300, "divergence_norm": 1e12, **opts}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = iterate(prob, schedule, record_states=record, **opts)
            ref = _every_step_norm_run(prob, schedule, **opts)
        _assert_run_equals_every_step_norm_run(run, ref, label, states=record)
        assert run.dists.shape == (run.iterations + 1,), label
        assert shows is None or shows(run), label


def test_distances_of_a_perturbed_fbs_run_equal_the_per_state_norms():
    inst = plant_lasso(n_samples=60, n_features=40, support_size=5, seed=3)
    rho = 0.9 * quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = solve_fbs(
            resolvent,
            forward,
            rho,
            np.zeros(40),
            constant_schedule(0.2, 0.9),
            forward_errors=ErrorModel.power_decay(1e-2, 2.0, seed=5),
            resolvent_errors=ErrorModel.geometric(1e-3, 0.9, seed=6),
            z_star=inst.x_star,
            tol=-1.0,
            max_iter=150,
            record_states=True,
        )
    want = [_norm(z - inst.x_star) for z in run.states]
    assert run.iterations == 150 and run.err_norms.min() > 0.0
    assert run.dists.tobytes() == np.asarray(want).tobytes()


def test_stacked_matmul_row_dot_equals_ndarray_dot_bitwise():
    # the engine's block distances rest on numpy evaluating each (1, n) @ (n, 1)
    # product of a stacked matmul with ndarray.dot's routine; einsum and
    # (x * x).sum(1) add in another order and differ in the last bits
    rng = np.random.default_rng(19)
    special = [0.0, -0.0, 1e-160, 5e-324, 1e160, 1e200, math.inf, -math.inf, math.nan]
    for i in range(400):
        n = int(rng.integers(1, 40)) if i % 2 else int(rng.integers(50, 301))
        rows = int(rng.integers(1, 65))
        x = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (rows, 1))
        if i % 7 == 0:
            x[rng.integers(rows), rng.integers(n)] = special[i % len(special)]
        points = list(x)
        with np.errstate(over="ignore", invalid="ignore"):
            got = np.matmul(x[:, None, :], x[:, :, None]).ravel()
            dists = _distances(points, np.zeros(n))
            want = np.array([p.dot(p) for p in points])
        assert got.tobytes() == want.tobytes(), (i, n, rows)
        assert np.asarray(dists).tobytes() == np.array([math.sqrt(w) for w in want]).tobytes(), (i, n, rows)


def test_exact_runs_record_positive_zero_error_norms():
    # every record is a float64 array of n entries (dists: n + 1) with the
    # restatement's bits, an empty run's too; an exact run's err_norms are +0.0
    prob = _averaged_affine_problem(53, n=5)
    schedule = constant_schedule(0.2, 1.1)
    for errors in (None, ErrorModel.power_decay(0.0, 0.0)):
        for max_iter in (0, 1, 70):
            opts = dict(tol=-1.0, max_iter=max_iter, divergence_norm=1e12)
            run = iterate(prob, schedule, errors, **opts)
            ref = _every_step_norm_run(prob, schedule, errors, **opts)
            _assert_run_equals_every_step_norm_run(run, ref, max_iter, states=False)
            for name in ("residuals", "err_norms", "alphas", "lambdas", "step_norms", "dists"):
                recorded = getattr(run, name)
                assert recorded.dtype == np.float64, (name, max_iter)
                assert recorded.shape == (max_iter + (name == "dists"),), (name, max_iter)
            assert not run.err_norms.any() and not np.signbit(run.err_norms).any()


def test_a_long_exact_run_records_under_100_bytes_per_step():
    # residuals, step norms and distances are 8 bytes each in float64 buffers
    # that the result views without a copy; alphas and lambdas hold the
    # schedule's one shared float (8 B per entry) and are copied once (8 B),
    # and err_norms are filled at the end (8 B): about 67 B per step in all.
    # Lists of Python floats copied at the end cost about 164 B per step.
    prob = _averaged_affine_problem(55, n=2)
    steps = 10_000
    tracemalloc.start()
    try:
        run = iterate(prob, constant_schedule(0.2, 1.1), tol=-1.0, max_iter=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.iterations == steps
    assert peak / steps < 100, peak / steps


def test_perturb_callback_error_norms_are_recorded_as_given():
    prob = _averaged_affine_problem(54, n=5)

    def perturb(mu, k):
        t_mu = prob.operator.apply(mu)
        return t_mu, t_mu, -float(k)  # the callback's norm is recorded as given

    run = iterate(prob, constant_schedule(0.2, 1.1), perturb=perturb, tol=-1.0, max_iter=7)
    assert run.err_norms.tolist() == [-float(k) for k in range(7)]
    assert run.err_norms.dtype == np.float64


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
    opts = dict(tol=-1.0, max_iter=300, divergence_norm=1e12)
    run = iterate(prob, sched, perturb=perturb, record_states=True, **opts)
    _assert_run_equals_every_step_norm_run(run, _every_step_norm_run(prob, sched, perturb=perturb, **opts))


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
        sched = ParamSchedule(alpha_of, lambda_of)
        run = iterate(prob, sched, tol=-1.0, max_iter=200, record_states=True)
        ref = _every_step_norm_run(prob, sched, tol=-1.0, max_iter=200, divergence_norm=1e12)
        _assert_run_equals_every_step_norm_run(run, ref)


def test_step_scalar_cache_keeps_signed_zero_relaxations_apart():
    # -0.0 == 0.0, so a cache keyed on value would reuse -0.0 for +0.0; on
    # T x = x / 2 a zero relaxation keeps mu, and the sign of its product
    # with the direction decides the sign of a zero entry of z
    prob = Problem(operator=make_affine(0.5 * np.eye(2), np.zeros(2)), z0=[-0.0, 1.0], z_star=[0.0, 0.0])
    signed = [-0.0, 0.0]
    for lambda_of in (_fresh_floats(signed), lambda k: signed[k % 2]):
        sched = ParamSchedule(lambda k: 0.0, lambda_of)
        run = iterate(prob, sched, tol=-1.0, max_iter=6, record_states=True)
        ref = _every_step_norm_run(prob, sched, tol=-1.0, max_iter=6, divergence_norm=1e12)
        _assert_run_equals_every_step_norm_run(run, ref)
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
        with pytest.raises(ValueError, match=f"^{name} must be a real number other than NaN, got nan$"):
            iterate(_halving_problem(), constant_schedule(0.0, 0.5), max_iter=10, **{name: math.nan})


@pytest.mark.parametrize(
    "name, value",
    [
        ("tol", "1e-3"),
        ("tol", None),
        ("tol", True),
        ("divergence_norm", None),
        ("divergence_norm", "1e12"),
        ("divergence_norm", False),
    ],
)
def test_stopping_thresholds_that_are_not_numbers_are_refused_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number other than NaN, got"):
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
    with pytest.raises(ValueError, match="^max_iter must be a nonnegative integer, got"):
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
    with pytest.raises(ValueError, match="^max_iter must be a nonnegative integer, got -1$"):
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
    # a law with zero steps, past its list too, still records each step's norm
    for m in (ErrorModel.power_decay(0.05, 2.0, seed=13), ErrorModel.from_norms((0.0, 3e-3, 0.0, 1e-4), seed=2)):
        run = iterate(_halving_problem(), constant_schedule(0.0, 0.5), m, tol=-1.0, max_iter=8)
        want = [m.norm_at(k) for k in range(8)]
        assert np.allclose(run.err_norms, want, rtol=1e-12, atol=0)
        assert not np.signbit(run.err_norms).any()


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
    # on an operator of any dimension z_star is checked against z0: a shorter one
    # broadcast against every state, and a longer one failed after the run
    anydim = OperatorSpec(apply=lambda x: x, theta=1.0, dim=None)
    for z_star, got in (([0.0], 1), ([0.0, 0.0, 0.0], 3)):
        with pytest.raises(ValueError, match=f"^z_star has dimension {got}, expected 2$"):
            Problem(operator=anydim, z0=[1.0, 2.0], z_star=z_star)
    assert Problem(operator=anydim, z0=[1.0, 2.0], z_star=[0.0, 0.0]).z_star.shape == (2,)


def test_a_scalar_start_is_a_point_of_a_one_dimensional_problem():
    prob = Problem(operator=make_identity(1), z0=0.8, z_star=np.float64(0.8))
    assert prob.z0.shape == prob.z_star.shape == (1,) and prob.z0[0] == 0.8
    with pytest.raises(ValueError, match="^z0 has dimension 1, expected 2$"):
        Problem(operator=make_identity(2), z0=0.8)


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
