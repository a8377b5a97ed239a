"""Parameter schedules, error models, and the feasibility validators."""

import math
import types
from dataclasses import fields, replace

import numpy as np
import pytest

from kmsolve import applications, schedules
from kmsolve.applications import lasso_fbs_pieces, plant_lasso, solve_fbs
from kmsolve.engine import Problem, iterate
from kmsolve.operators import make_affine, make_soft_threshold, norm, quadratic_gradient
from kmsolve.schedules import (
    ErrorModel,
    ParamSchedule,
    constant_schedule,
    delta_threshold,
    emit_error,
    lambda_ceiling_ii,
    validate_run,
    validate_schedule,
)

# independently recomputed closed-form values, frozen
THRESHOLD_PIN = 0.012121212121212123  # alpha=0.1, sigma=0.01
CEILING_PIN = 0.8016393442622951  # alpha=0.1, sigma=0.01, delta=1
COLLAPSE_PIN = 0.7692307692307692  # alpha=0, sigma=0.3, delta=1 -> 1/(1+sigma)


def test_constant_schedule_defaults_caps_to_the_constants():
    s = constant_schedule(0.2, 0.5)
    assert s.alpha_of(0) == 0.2 and s.alpha_of(17) == 0.2
    assert s.lambda_of(0) == 0.5 and s.lambda_of(17) == 0.5
    assert s.condition_set == "I"
    # the validator's bounds are the sampled extremes, here the constants themselves
    margins = {c.name: c.margin for c in validate_schedule(s).checks}
    assert margins == {
        "min_k alpha_k >= 0": 0.2,
        "max_k alpha_k < 1": 1.0 - 0.2,
        "min_k lambda_k >= 0": 0.5,
        "max_k lambda_k < 1": 0.5,
    }


def test_a_schedule_is_its_two_sequences():
    assert [f.name for f in fields(ParamSchedule)] == ["alpha_of", "lambda_of", "sigma", "delta"]
    s = ParamSchedule(lambda k: 0.1, lambda k: 0.5)
    assert (s.sigma, s.delta, s.condition_set) == (None, None, "I")
    # any pair of callables builds, whatever values they return
    for alpha in (-1.0, 1.0, math.inf, math.nan):
        ParamSchedule(lambda k: alpha, lambda k: alpha, sigma=0.01, delta=1.0)


def test_sigma_and_delta_must_come_together():
    with pytest.raises(ValueError):
        ParamSchedule(alpha_of=lambda k: 0.0, lambda_of=lambda k: 0.5, sigma=0.1, delta=None)


def test_constant_schedule_with_sigma_and_delta_zeroes_the_first_weight():
    s = constant_schedule(0.1, 0.5, sigma=0.01, delta=1.0)
    assert s.alpha_of(0) == 0.0
    assert s.alpha_of(1) == 0.1
    assert s.alpha_of(100) == 0.1
    assert s.condition_set == "II"
    rep = validate_schedule(s)
    assert rep.feasible
    assert rep.delta_threshold == delta_threshold(0.1, 0.01)
    # without the pair the first weight is the constant
    assert constant_schedule(0.1, 0.5).alpha_of(0) == 0.1


@pytest.mark.parametrize("name", ["alpha", "lam", "sigma", "delta"])
def test_constant_schedule_names_a_scalar_that_is_not_a_number(name):
    # None is the default of the optional ones, so it is refused only for alpha and lam
    for value in ("x", "0.5", [0.5], True, False) + ((None,) if name in ("alpha", "lam") else ()):
        args = {"alpha": 0.1, "lam": 0.5}
        if name in ("sigma", "delta"):
            args.update(sigma=0.01, delta=1.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got"):
            constant_schedule(**args)


def test_constant_schedule_stores_floats_and_keeps_non_finite_values():
    s = constant_schedule(np.float64(0.1), 1, sigma=np.float32(0.25), delta=1)
    assert type(s.sigma) is float and type(s.delta) is float
    assert (s.sigma, s.delta, s.lambda_of(3)) == (0.25, 1.0, 1.0)
    odd = constant_schedule(-math.inf, math.inf)
    assert odd.alpha_of(1) == -math.inf and odd.lambda_of(1) == math.inf
    assert math.isnan(constant_schedule(math.nan, 0.5).alpha_of(1))
    assert math.isnan(constant_schedule(0.1, 0.5, sigma=math.nan, delta=math.inf).sigma)


def test_error_model_names_a_value_that_is_not_a_real_number():
    bad = [
        (lambda: ErrorModel.power_decay("x", 2.0), "magnitude"),
        (lambda: ErrorModel.power_decay(0.1, "x"), "exponent"),
        (lambda: ErrorModel.power_decay(True, 2.0), "magnitude"),
        (lambda: ErrorModel.power_decay(0.1, True), "exponent"),
        (lambda: ErrorModel.geometric(None, 0.5), "magnitude"),
        (lambda: ErrorModel.geometric(0.1, None), "ratio"),
        (lambda: ErrorModel.geometric(0.1, True), "ratio"),
        (lambda: ErrorModel(kind="power-decay", magnitude=True, exponent=2.0), "magnitude"),
    ]
    for build, name in bad:
        with pytest.raises(ValueError, match=f"^{name} must be a finite (nonnegative |positive )?real, got"):
            build()


def test_error_model_stores_its_scalars_as_floats():
    m = ErrorModel(kind="power-decay", magnitude=1, exponent=np.float32(2.0))
    assert type(m.magnitude) is float and type(m.exponent) is float
    assert m == ErrorModel.power_decay(1.0, 2.0)
    assert ErrorModel.from_norms(np.array([0.5, 0.25])).norms == (0.5, 0.25)
    assert all(type(v) is float for v in ErrorModel.from_norms([1, np.float64(0.5)]).norms)


def test_error_model_takes_a_numpy_integer_seed():
    m = ErrorModel.power_decay(0.1, 2.0, seed=np.int64(3))
    assert type(m.seed) is int and m == ErrorModel.power_decay(0.1, 2.0, seed=3)
    for k in (0, 5, 64):
        want = emit_error(ErrorModel.power_decay(0.1, 2.0, seed=3), k, 7)
        assert emit_error(m, k, 7).tobytes() == want.tobytes()
    for seed in (np.bool_(True), np.int64(-1), 3.0):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            ErrorModel.power_decay(0.1, 2.0, seed=seed)


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(kind="power-decay", magnitude=-1.0, exponent=2.0)
    with pytest.raises(ValueError):
        ErrorModel(kind="geometric", magnitude=1.0, exponent=0.0)
    with pytest.raises(ValueError):
        ErrorModel(kind="custom-list", magnitude=0.0)
    with pytest.raises(ValueError, match="norms are only valid for custom-list, not 'power-decay'"):
        ErrorModel(kind="power-decay", norms=(0.1,))
    with pytest.raises(ValueError):
        ErrorModel(kind="power-decay", magnitude=1.0, exponent=2.0, seed=-1)
    with pytest.raises(ValueError):
        ErrorModel(kind="power-decay", magnitude=1.0, exponent=2.0, seed=True)
    for exponent in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^exponent must be a finite real, got"):
            ErrorModel.power_decay(1e-2, exponent)
    with pytest.raises(ValueError, match="^ratio must be a finite positive real, got inf$"):
        ErrorModel.geometric(1e-2, math.inf)
    with pytest.raises(ValueError):
        ErrorModel.geometric(1e-2, math.nan)
    for name, value in [("magnitude", "1"), ("magnitude", None), ("exponent", None), ("exponent", "2")]:
        for kind in ("power-decay", "geometric"):
            with pytest.raises(ValueError, match=f"{name} must be a"):
                ErrorModel(**{"kind": kind, "magnitude": 1.0, "exponent": 0.5, name: value})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ErrorModel(kind="bogus"), "unknown error kind 'bogus'"),
        (lambda: ErrorModel(kind="zero"), "unknown error kind 'zero'"),
        (lambda: ErrorModel(kind="custom-list", norms=(0.1,), magnitude=5.0), "magnitude must be 0 for custom-list, got 5.0"),
        (lambda: ErrorModel(kind="custom-list", norms=(0.1,), exponent=3.0), "exponent must be 0 for custom-list, got 3.0"),
        (lambda: ErrorModel.from_norms([0.1, -1.0]), "norms must be nonnegative, got -1.0 at index 1"),
        (lambda: ErrorModel.from_norms([math.inf]), "norms contains non-finite entries"),
        (lambda: ErrorModel.from_norms(5), "norms must be a list of numbers, got 5"),
        (lambda: ErrorModel.geometric(0.1, 0.5).norm_at(-1), "k must be nonnegative"),
        (lambda: emit_error(ErrorModel.power_decay(0.1, 2.0), -1, 4), "k must be nonnegative"),
        (lambda: emit_error(ErrorModel.power_decay(0.1, 2.0), 0, 0), "dim must be a positive integer, got 0"),
    ],
)
def test_error_model_refusals_name_their_reason(build, message):
    with pytest.raises(ValueError) as refusal:
        build()
    assert str(refusal.value) == message


def test_error_norm_laws():
    p = ErrorModel.power_decay(2.0, 1.5)
    assert p.norm_at(0) == 2.0
    assert p.norm_at(3) == pytest.approx(2.0 / 4.0**1.5, rel=1e-15)
    g = ErrorModel.geometric(1.0, 0.5)
    assert g.norm_at(4) == pytest.approx(0.5**4, rel=1e-15)
    c = ErrorModel.from_norms([0.3, 0.2, 0.1])
    assert c.norm_at(1) == 0.2


def test_error_norm_laws_past_the_float_range():
    # in range, the value is the law's own formula, bit for bit
    for mag, ex, k in [(2.0, 1.5, 3), (0.7, 2.5, 999), (1.0, 400.0, 4), (1e-3, -3.0, 7)]:
        assert ErrorModel.power_decay(mag, ex).norm_at(k) == mag / float(k + 1) ** ex
    for mag, ratio, k in [(1.0, 0.5, 4), (0.3, 1.7, 300), (1.0, 2.0, 1023), (1.0, 0.5, 5000)]:
        assert ErrorModel.geometric(mag, ratio).norm_at(k) == mag * ratio**k
    # 6.0 ** 400 overflows, the law itself underflows (to a subnormal here)
    tiny = ErrorModel.power_decay(1.0, 400.0)
    assert tiny.summability == "summable"
    assert tiny.norm_at(5) == 6.0**-400 and 0.0 < tiny.norm_at(5) < 1e-300
    assert ErrorModel.power_decay(0.0, 400.0).norm_at(5) == 0.0
    # 6.0 ** -400 is subnormal, and the quotient overflows to inf
    assert ErrorModel.power_decay(1.0, -400.0).norm_at(5) == math.inf
    assert ErrorModel.power_decay(0.0, -400.0).norm_at(5) == 0.0
    # 10001.0 ** -400 underflows to 0: the law itself overflows
    assert 10001.0**-400 == 0.0
    assert ErrorModel.power_decay(2.0, -400.0).norm_at(10**4) == math.inf
    assert ErrorModel.power_decay(0.0, -400.0).norm_at(10**4) == 0.0
    # 2.0 ** 2000 overflows
    assert ErrorModel.geometric(0.0, 2.0).norm_at(2000) == 0.0
    assert ErrorModel.geometric(1e-300, 2.0).norm_at(2000) == math.inf


def test_overflowing_error_law_stops_the_run_as_diverged():
    # 1e-300 * 2**k is finite through k = 1023 and past the float range at k = 1024
    prob = Problem(make_affine(0.5 * np.eye(2), np.zeros(2)), [1.0, 1.0], [0.0, 0.0])
    law = ErrorModel.geometric(1e-300, 2.0, seed=3)
    run = iterate(prob, constant_schedule(0.0, 0.5), law, tol=-1.0, max_iter=3000)
    assert run.stop_reason == "diverged"
    assert run.iterations == 1025
    assert math.isfinite(run.err_norms[-2]) and run.err_norms[-1] == math.inf


def test_summability_verdicts():
    assert ErrorModel.power_decay(1.0, 2.0).summability == "summable"
    assert ErrorModel.power_decay(1.0, 1.0).summability == "not-guaranteed"
    assert ErrorModel.geometric(1.0, 0.9).summability == "summable"
    assert ErrorModel.geometric(1.0, 1.0).summability == "not-guaranteed"
    assert ErrorModel.from_norms([1.0] * 5).summability == "summable"
    assert ErrorModel.power_decay(0.0, 0.5).summability == "summable"


def test_emit_error_is_deterministic_and_norm_exact():
    m = ErrorModel.power_decay(0.1, 2.0, seed=42)
    a = emit_error(m, 3, 6)
    b = emit_error(m, 3, 6)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(m.norm_at(3), rel=1e-12)
    c = emit_error(m, 4, 6)
    assert not np.array_equal(a, c)
    z = emit_error(ErrorModel.power_decay(0.0, 2.0), 0, 6)
    assert np.array_equal(z, np.zeros(6))


RUN_ARRAYS = ("z", "residuals", "err_norms", "step_norms", "dists")


def _block_row(seed, k, dim, rows):
    """The documented draw: row k % rows of the seeded block k // rows, unscaled."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(k // rows,))
    return np.random.default_rng(ss).standard_normal((rows, dim))[k % rows]


def _block_laws(rows):
    """Seed-17 laws: power-decay; geometric reaching inf at k = 78; a custom list with zeros that ends mid-block."""
    listed = 2 * rows + rows // 2 + 1
    return {
        "power-decay": ErrorModel.power_decay(0.3, 1.5, seed=17),
        "geometric": ErrorModel.geometric(1e-3, 1e4, seed=17),
        "custom-list": ErrorModel.from_norms([0.1 * (i % 5) for i in range(listed)], seed=17),
    }


@pytest.mark.parametrize("dim, rows", [(1, 64), (8, 64), (200, 64), (16384, 1), (16385, 1)])
def test_block_draw_is_the_same_with_or_without_a_cache(dim, rows):
    for m in _block_laws(rows).values():
        _check_block_draws(m, dim, rows)
    geometric = _block_laws(rows)["geometric"]
    assert geometric.norm_at(77) < math.inf == geometric.norm_at(78)


def _check_block_draws(m, dim, rows):
    other = ErrorModel.power_decay(0.5, 0.9, seed=17)  # the same seed: the same directions, other norms
    # scrambled, crossing several block boundaries, with repeats; then a run's walk over three blocks
    ks = [0, rows - 1, rows, 3 * rows + 2, 1, 2 * rows - 1, 2 * rows, rows + 1, 5 * rows, rows, 77, 78, 79]
    ks = [int(k) for k in np.random.default_rng(dim).permutation(ks)] + list(range(3 * rows))
    cache, shared = {}, {}
    for k in ks:
        plain = emit_error(m, k, dim)
        assert emit_error(m, k, dim, cache).tobytes() == plain.tobytes(), (dim, k)
        # one cache passed between two laws of one seed still returns each one's own vector
        assert emit_error(m, k, dim, shared).tobytes() == plain.tobytes(), (dim, k)
        assert emit_error(other, k, dim, shared).tobytes() == emit_error(other, k, dim).tobytes(), (dim, k)
        target = m.norm_at(k)
        if target == 0.0:
            assert plain.tobytes() == np.zeros(dim).tobytes(), (dim, k)
            continue
        model, lo, hi, block = cache[dim]
        assert model is m and (lo, hi) == (k - k % rows, k - k % rows + rows) and block.shape == (rows, dim)
        d = _block_row(17, k, dim, rows)
        with np.errstate(over="ignore"):
            assert plain.tobytes() == (d * (target / math.sqrt(float(d @ d)))).tobytes(), (dim, k)
        if math.isfinite(target):
            assert abs(math.hypot(*plain) - target) <= 1e-12 * target


def test_a_cache_hit_takes_only_an_int_dim():
    # True and 2.0 hash as the ints 1 and 2: a cache filled at those dims must not answer them
    m = ErrorModel.power_decay(0.1, 2.0, seed=5)
    for dim, bad in ((1, True), (2, 2.0)):
        cache = {}
        emit_error(m, 0, dim, cache)
        with pytest.raises(ValueError) as info:
            emit_error(m, 1, bad, cache)
        assert str(info.value) == f"dim must be a positive integer, got {bad!r}"
    # a numpy integer takes the miss path, which reads it as the int it is
    cache = {}
    first = emit_error(m, 0, 2, cache)
    assert emit_error(m, 0, np.int64(2), cache).tobytes() == first.tobytes() == emit_error(m, 0, 2).tobytes()
    assert emit_error(m, 1, np.int64(2), cache).tobytes() == emit_error(m, 1, 2).tobytes()


def test_a_returned_error_vector_is_read_only():
    m = ErrorModel.power_decay(0.3, 1.5, seed=20)
    for e in (emit_error(m, 5, 4), emit_error(m, 5, 4, {})):
        with pytest.raises(ValueError):
            e[0] = 1.0


def test_a_custom_list_past_its_end_draws_no_block(monkeypatch):
    draws = []
    real = np.random.default_rng

    def counting(seq):
        draws.append((seq.entropy, seq.spawn_key))
        return real(seq)

    monkeypatch.setattr(schedules.np.random, "default_rng", counting)
    m = ErrorModel.from_norms([0.1, 0.2, 0.3], seed=21)
    cache = {}
    for k in (3, 4, 64, 200):
        assert emit_error(m, k, 8).tobytes() == emit_error(m, k, 8, cache).tobytes() == np.zeros(8).tobytes()
    assert draws == []
    # a step inside the list draws its block once; the ended steps of that block are lookups
    for k in (1, 2, 3, 63):
        emit_error(m, k, 8, cache)
    assert draws == [(21, (0,))]


def test_a_zero_direction_row_falls_back_to_the_first_unit_vector(monkeypatch):
    # a standard normal row is never all zeros in practice, so the drawn block is planted
    m = ErrorModel.power_decay(0.3, 1.5, seed=19)
    dim, k = 3, 70
    rows = 64  # _block_rows(3)

    def planted(seq):
        assert (seq.entropy, seq.spawn_key) == (m.seed, (k // rows,))

        def standard_normal(shape):
            assert shape == (rows, dim)
            block = np.ones(shape)
            block[k % rows] = 0.0
            return block

        return types.SimpleNamespace(standard_normal=standard_normal)

    monkeypatch.setattr(schedules.np.random, "default_rng", planted)
    for cache in (None, {}):
        assert emit_error(m, k, dim, cache).tobytes() == (m.norm_at(k) * np.eye(dim)[0]).tobytes()
        unit = np.ones(dim) / math.sqrt(dim)
        assert np.array_equal(emit_error(m, k + 1, dim, cache), unit * m.norm_at(k + 1))


def _soft_problem(dim=8, seed=72):
    rng = np.random.default_rng(seed)
    return Problem(make_soft_threshold(0.2, dim), rng.uniform(-2, 2, dim), np.zeros(dim))


def test_error_model_runs_step_with_the_uncached_draws():
    prob = _soft_problem()
    op, dim = prob.operator, prob.operator.dim
    m = ErrorModel.power_decay(0.05, 1.5, seed=73)
    opts = dict(tol=-1.0, max_iter=300)  # dim 8 -> blocks of 64: five boundaries

    def scheme_level(mu, k):
        t_mu = np.asarray(op.apply(mu), dtype=float)
        e = emit_error(m, k, dim)
        return t_mu, t_mu + e, norm(e)

    run = iterate(prob, constant_schedule(0.2, 1.2), m, **opts)
    ref = iterate(prob, constant_schedule(0.2, 1.2), perturb=scheme_level, **opts)
    for name in RUN_ARRAYS:
        assert np.array_equal(getattr(run, name), getattr(ref, name)), name


def test_two_runs_of_one_error_model_are_identical():
    prob = _soft_problem()
    m = ErrorModel.power_decay(0.05, 1.5, seed=74)
    first, second = (iterate(prob, constant_schedule(0.2, 1.2), m, tol=-1.0, max_iter=100) for _ in range(2))
    for name in RUN_ARRAYS:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


def test_fbs_channels_draw_by_seed(monkeypatch):
    inst = plant_lasso(n_samples=30, n_features=20, support_size=4, reg=0.4, seed=75)
    rho = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    drawn = []

    def recording(model, k, dim, *cache):
        e = emit_error(model, k, dim, *cache)
        drawn.append((model.seed, k, e))
        return e

    monkeypatch.setattr(applications, "emit_error", recording)

    def directions(seed_fe, seed_re):
        drawn.clear()
        law = dict(magnitude=0.1, exponent=2.0)
        run = solve_fbs(
            resolvent,
            forward,
            rho,
            inst.x_star + 0.3,
            constant_schedule(0.2, 0.9),
            forward_errors=ErrorModel.power_decay(**law, seed=seed_fe),
            resolvent_errors=ErrorModel.power_decay(**law, seed=seed_re),
            tol=-1.0,
            max_iter=150,  # dim 20 -> blocks of 64: two boundaries
        )
        # every in-run draw is the uncached one; the channels alternate, forward first
        assert len(drawn) == 300
        for seed, k, e in drawn:
            assert np.array_equal(e, emit_error(ErrorModel.power_decay(**law, seed=seed), k, 20))
        return run, [e for _, _, e in drawn[::2]], [e for _, _, e in drawn[1::2]]

    same, fe_dirs, re_dirs = directions(5, 5)
    assert all(np.array_equal(a, b) for a, b in zip(fe_dirs, re_dirs))
    apart, fe_dirs, re_dirs = directions(5, 6)
    assert not any(np.allclose(a, b) for a, b in zip(fe_dirs, re_dirs))
    assert not np.array_equal(same.z, apart.z)
    again, _, _ = directions(5, 6)
    for name in RUN_ARRAYS:
        assert np.array_equal(getattr(again, name), getattr(apart, name)), name


def test_threshold_and_ceiling_pins():
    assert delta_threshold(0.1, 0.01) == THRESHOLD_PIN
    assert lambda_ceiling_ii(0.1, 0.01, 1.0) == CEILING_PIN
    assert lambda_ceiling_ii(0.0, 0.3, 1.0) == COLLAPSE_PIN
    assert lambda_ceiling_ii(0.0, 0.3, 1.0) == 1.0 / 1.3
    assert delta_threshold(0.5, 0.0) == 0.5
    assert delta_threshold(0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        delta_threshold(1.0, 0.1)


@pytest.mark.parametrize(
    "formula, args, param",
    [
        (delta_threshold, (-1.0, 0.01), "alpha"),  # 1 - alpha^2 = 0
        (lambda_ceiling_ii, (0.0, -1.0, 1.0), "sigma"),  # delta (1 + C) = 0
        (lambda_ceiling_ii, (0.1, 0.01, 0.0), "delta"),  # delta = 0
    ],
    ids=["threshold-alpha-minus-one", "ceiling-sigma-minus-one", "ceiling-delta-zero"],
)
def test_regime_ii_formulas_refuse_a_vanishing_denominator_by_name(formula, args, param):
    with pytest.raises(ValueError, match=f"^{param} must "):
        formula(*args)


def test_regime_ii_formulas_raise_exactly_where_the_validator_leaves_them_undefined():
    # the formulas are defined for 0 <= alpha < 1, the ceiling also needs
    # sigma >= 0 and delta > 0; there they give the report's numbers
    def same(x, y):
        return x == y or (math.isnan(x) and math.isnan(y))

    odd = (-math.inf, -1.0, -0.5, -0.0, 0.0, 0.1, 0.99, 1.0, 1.5, math.inf, math.nan)
    for a in odd:
        for sg in (-1.0, -0.0, 0.0, 0.01, math.inf, math.nan):
            for dl in (-1.0, 0.0, 1e-300, 1.0, math.inf, math.nan):
                rep = validate_schedule(constant_schedule(a, 0.5, sigma=sg, delta=dl), horizon=8)
                defined = 0.0 <= a < 1.0
                if defined:
                    assert same(delta_threshold(a, sg), rep.delta_threshold), (a, sg, dl)
                else:
                    with pytest.raises(ValueError, match="^alpha must "):
                        delta_threshold(a, sg)
                    assert math.isnan(rep.delta_threshold), (a, sg, dl)
                if defined and sg >= 0.0 and dl > 0.0:
                    assert same(lambda_ceiling_ii(a, sg, dl), rep.lambda_max), (a, sg, dl)
                else:
                    with pytest.raises(ValueError, match="^(alpha|sigma|delta) must "):
                        lambda_ceiling_ii(a, sg, dl)
                    assert math.isnan(rep.lambda_max), (a, sg, dl)


def test_regime_i_feasible_constant():
    rep = validate_schedule(constant_schedule(0.3, 0.7))
    assert rep.condition_set == "I"
    assert rep.feasible
    assert not rep.violations
    assert len(rep.deferred) == 3
    assert validate_schedule(constant_schedule(0.0, 0.0)).feasible


def test_regime_i_rejects_ceiling_at_one():
    rep = validate_schedule(constant_schedule(0.3, 1.0))
    assert not rep.feasible
    assert rep.violations == ("lambda_of(k) must be < 1 (max 1)",)


def test_regime_i_rejects_alpha_cap_at_one():
    rep = validate_schedule(constant_schedule(1.0, 0.5))
    assert not rep.feasible
    assert rep.violations == ("alpha_of(k) must be < 1 (max 1)",)


def test_regime_ii_boundary_is_feasible():
    s = constant_schedule(0.1, CEILING_PIN, sigma=0.01, delta=1.0)
    rep = validate_schedule(s)
    assert rep.feasible
    assert rep.lambda_max == CEILING_PIN
    assert rep.delta_threshold == THRESHOLD_PIN
    assert len(rep.deferred) == 2


def test_regime_ii_rejects_above_ceiling():
    s = constant_schedule(0.1, CEILING_PIN + 1e-9, sigma=0.01, delta=1.0)
    assert not validate_schedule(s).feasible


def test_regime_ii_delta_at_the_threshold_is_infeasible():
    # the threshold inequality is strict
    rep = validate_schedule(constant_schedule(0.1, 0.2, sigma=0.01, delta=THRESHOLD_PIN))
    assert not rep.feasible
    assert "delta must exceed the threshold 0.0121212121212 (got 0.0121212121212)" in rep.violations


def test_regime_ii_alpha_of_one_builds_and_reads_infeasible():
    # regime II's formulas divide by 1 - alpha^2: outside 0 <= alpha_k < 1 they are not evaluated
    undefined = (
        "delta threshold undefined (needs 0 <= alpha_k < 1)",
        "lambda_max undefined (needs 0 <= alpha_k < 1, sigma >= 0 and delta > 0)",
    )
    for alpha in (1.0, 1.5, math.inf):
        rep = validate_schedule(constant_schedule(alpha, 0.5, sigma=0.01, delta=1.0))
        assert not rep.feasible
        assert rep.violations == (f"alpha_of(k) must be < 1 (max {alpha:.12g})",) + undefined
        assert math.isnan(rep.delta_threshold) and math.isnan(rep.lambda_max)
        assert rep.to_dict()["delta_threshold"] is None
    rep = validate_schedule(constant_schedule(-1.0, 0.5, sigma=0.01, delta=1.0))
    assert rep.violations == ("alpha_of(k) must be >= 0 (min -1)", "alpha_of must be nondecreasing") + undefined
    assert not validate_schedule(constant_schedule(math.nan, 0.5, sigma=0.01, delta=1.0)).feasible
    # regime I reads an alpha of 1 infeasible too
    assert not validate_schedule(constant_schedule(1.0, 0.5)).feasible


def test_regime_ii_ceiling_needs_a_nonnegative_sigma():
    # at alpha = 0 and sigma = -1 the ceiling's denominator delta (1 + C) is 0
    rep = validate_schedule(constant_schedule(0.0, 0.5, sigma=-1.0, delta=1.0))
    assert rep.violations == (
        "sigma must be > 0",
        "lambda_max undefined (needs 0 <= alpha_k < 1, sigma >= 0 and delta > 0)",
    )
    assert math.isnan(rep.lambda_max)
    assert validate_schedule(constant_schedule(0.0, 0.5, sigma=0.0, delta=1.0)).lambda_max == 1.0


def test_validate_schedule_reports_on_every_built_constant_schedule():
    odd = (-1.0, -0.5, 0.0, 1.0, 1.5, math.inf, -math.inf, math.nan)
    pairs = (
        {},
        {"sigma": 0.01, "delta": 1.0},
        {"sigma": -1.0, "delta": 1.0},
        {"sigma": 0.0, "delta": 0.0},
        {"sigma": math.nan, "delta": math.nan},
    )
    for alpha in odd:
        for lam in odd:
            for pair in pairs:
                s = constant_schedule(alpha, lam, **pair)
                for theta in (1.0, 0.5):
                    for horizon in (0, 8):
                        rep = validate_schedule(s, horizon=horizon, theta=theta)
                        case = (alpha, lam, pair, theta, horizon)
                        assert rep.feasible == (not rep.violations), case
                        assert len(rep.checks) == (4 if s.condition_set == "I" else 9), case
                        assert rep.feasible == all(c.ok for c in rep.checks), case
                        rep.to_dict()


def test_regime_ii_rejects_small_delta():
    s = constant_schedule(0.1, 0.2, sigma=0.01, delta=0.01)
    rep = validate_schedule(s)
    assert not rep.feasible
    assert any("delta" in v for v in rep.violations)


def test_regime_ii_requires_zero_initial_weight():
    s = ParamSchedule(alpha_of=lambda k: 0.1, lambda_of=lambda k: 0.2, sigma=0.01, delta=1.0)
    rep = validate_schedule(s)
    assert not rep.feasible
    assert rep.violations == ("alpha_of(0) must be 0 (got 0.1)",)


def test_regime_ii_validator_matches_raw_inequality():
    # feasibility is equivalent to (alpha + delta*lam) * C + delta*lam <= delta
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = float(rng.uniform(0.0, 0.95))
        sg = float(rng.uniform(1e-3, 2.0))
        dl = float(rng.uniform(1e-3, 3.0))
        lm = float(rng.uniform(0.01, 1.2))
        rep = validate_schedule(constant_schedule(a, lm, sigma=sg, delta=dl), horizon=8)
        c = a * (1.0 + a) + a * dl + sg
        direct = (dl > delta_threshold(a, sg)) and ((a + dl * lm) * c + dl * lm <= dl)
        assert rep.feasible == direct, (a, sg, dl, lm)


def test_validate_schedule_dispatches_on_condition_set():
    assert validate_schedule(constant_schedule(0.1, 0.5)).condition_set == "I"
    s = constant_schedule(0.1, 0.5, sigma=0.01, delta=1.0)
    assert validate_schedule(s).condition_set == "II"
    rep = validate_schedule(constant_schedule(1.0, 0.5, sigma=0.01, delta=1.0))
    assert rep.condition_set == "II" and not rep.feasible
    # a NaN parameter anywhere in the scan is infeasible in both regimes
    for base in (constant_schedule(0.1, 0.5), s):
        nan_lambda = replace(base, lambda_of=lambda k: math.nan if k == 5 else 0.5)
        nan_alpha0 = replace(base, alpha_of=lambda k: math.nan if k == 0 else 0.1)
        assert validate_schedule(nan_lambda).feasible is False
        assert validate_schedule(nan_alpha0).feasible is False


def test_scaled_ceiling_admits_overrelaxation():
    s = constant_schedule(0.0, 1.5)
    base = validate_schedule(s)
    assert not base.feasible
    scaled = validate_schedule(s, theta=0.5)
    assert scaled.feasible
    assert scaled.scaling_theta == 0.5
    assert validate_schedule(s, theta=1.0).to_dict() == base.to_dict()
    for bad in (1.5, 0.0, True, "0.5", None, [0.5]):
        with pytest.raises(ValueError, match=r"^theta must be a real in \(0, 1\], got"):
            validate_schedule(s, theta=bad)


@pytest.mark.parametrize("horizon", [-1, -5, True, False])
def test_validate_schedule_refuses_a_negative_or_boolean_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be a nonnegative integer"):
        validate_schedule(constant_schedule(0.1, 0.5), horizon=horizon)


@pytest.mark.parametrize("horizon", [2.5, 3.0, None, "3"])
def test_validate_schedule_refuses_a_non_integer_horizon_by_name(horizon):
    # range() and < would raise a TypeError that does not name the parameter
    with pytest.raises(ValueError, match="horizon must be a nonnegative integer"):
        validate_schedule(constant_schedule(0.1, 0.5), horizon=horizon)


def test_validate_schedule_samples_only_k0_at_horizon_zero():
    assert validate_schedule(constant_schedule(0.1, 0.5), horizon=0).feasible


def test_report_to_dict_is_json_friendly():
    rep = validate_schedule(constant_schedule(0.2, 0.5))
    d = rep.to_dict()
    assert d["feasible"] is True
    assert d["condition_set"] == "I"
    assert d["delta_threshold"] is None  # regime I has no threshold
    assert isinstance(d["checks"], list)
    assert list(d) == [
        "condition_set",
        "feasible",
        "delta_threshold",
        "lambda_max",
        "scaling_theta",
        "violations",
        "deferred",
        "checks",
    ]


def _ramp(k):
    return 0.3 * min(k, 10) / 10


def test_the_report_reads_only_the_sampled_steps():
    # two schedules that agree on k = 0..h and differ after h get the same report at horizon h
    h = 20
    for pair in ({}, {"sigma": 0.01, "delta": 1.0}):
        lam = 0.4 if pair else 0.7
        same = ParamSchedule(_ramp, lambda k: lam, **pair)
        later = ParamSchedule(
            lambda k: _ramp(k) if k <= h else 1.5 - k % 2,
            lambda k: lam if k <= h else math.nan,
            **pair,
        )
        for theta in (1.0, 0.5):
            assert validate_schedule(later, horizon=h, theta=theta).to_dict() == validate_schedule(
                same, horizon=h, theta=theta
            ).to_dict()
            assert validate_schedule(same, theta=theta).feasible
            assert not validate_schedule(later, horizon=h + 1, theta=theta).feasible


def test_regime_ii_formulas_take_the_sampled_maximum_of_alpha():
    s = ParamSchedule(_ramp, lambda k: 0.5, sigma=0.01, delta=1.0)
    for horizon in (10, 11, 1000):
        rep = validate_schedule(s, horizon=horizon)
        assert rep.lambda_max == lambda_ceiling_ii(0.3, 0.01, 1.0)
        assert rep.delta_threshold == delta_threshold(0.3, 0.01)
    rep = validate_schedule(s, horizon=1)
    assert rep.lambda_max == lambda_ceiling_ii(0.03, 0.01, 1.0)
    assert rep.delta_threshold == delta_threshold(0.03, 0.01)
    # a relaxation above the ceiling at alpha = 0.3, below the one at 0.03, is feasible only on the short scan
    lam = 0.5 * (lambda_ceiling_ii(0.3, 0.01, 1.0) + lambda_ceiling_ii(0.03, 0.01, 1.0))
    between = ParamSchedule(_ramp, lambda k: lam, sigma=0.01, delta=1.0)
    assert validate_schedule(between, horizon=1).feasible
    assert not validate_schedule(between, horizon=10).feasible


def _averaged_affine(dim, theta, seed, factor=0.9):
    """A theta-averaged affine map, (1 - theta) I + factor theta Q with Q orthogonal, and a start off its fixed point."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    m = (1.0 - theta) * np.eye(dim) + factor * theta * q
    z_star = rng.standard_normal(dim)
    return Problem(operator=make_affine(m, z_star - m @ z_star, theta=theta), z0=z_star + rng.standard_normal(dim))


def test_validate_run_equals_the_sampled_report_at_the_run_horizon():
    rng = np.random.default_rng(36)
    seen = set()
    for draw in range(10):
        a1, a2, lam = rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2), rng.uniform(0.0, 2.2)
        sigma = rng.uniform(0.0, 0.1)
        delta = delta_threshold(min(a1, 0.95), sigma) * rng.uniform(0.5, 2.0) + rng.uniform(0.0, 0.2)
        for pair in ({}, {"sigma": sigma, "delta": delta}):
            first = 0.0 if pair else a1
            schedules = [
                constant_schedule(a1, lam, **pair),
                # alpha_k changes at k = 7
                ParamSchedule(lambda k: first if k == 0 else (a1 if k < 7 else a2), lambda k: lam, **pair),
            ]
            for theta in (1.0, 0.5):
                prob = _averaged_affine(4, theta, seed=draw)
                for s in schedules:
                    for steps in range(1, 21):
                        run = iterate(prob, s, tol=-1.0, max_iter=steps)
                        expected = validate_schedule(run.schedule, horizon=run.iterations - 1, theta=theta)
                        # repr: an undefined regime-II lambda_max is NaN, which == never matches
                        assert repr(validate_run(run).to_dict()) == repr(expected.to_dict()), (draw, pair, theta, steps)
                        seen.add((s.condition_set, expected.feasible))
    # both regimes read both verdicts on the grid
    assert seen == {("I", True), ("I", False), ("II", True), ("II", False)}


def test_validate_run_ignores_parameters_past_the_last_step():
    s = ParamSchedule(lambda k: 0.2, lambda k: 0.5 if k < 500 else 1.5)
    run = iterate(_averaged_affine(4, 1.0, seed=1), s, tol=-1.0, max_iter=10)
    assert validate_run(run).feasible
    assert not validate_schedule(s).feasible


def test_validate_run_sees_a_step_past_the_default_sampling():
    s = ParamSchedule(lambda k: 0.0, lambda k: 0.5 if k < 1500 else 1.5)
    # lambda = 1.5 contracts with rate at most 0.8 at factor 0.2, so all 2000 steps run
    run = iterate(_averaged_affine(4, 1.0, seed=2, factor=0.2), s, tol=-1.0, max_iter=2000)
    assert run.iterations == 2000
    rep = validate_run(run)
    assert not rep.feasible
    assert rep.violations == ("lambda_of(k) must be < 1 (max 1.5)",)
    assert validate_schedule(s).feasible


def test_validate_run_judges_what_an_impure_schedule_returned_to_the_run():
    calls = set()

    def first_call_only(k):
        if k in calls:
            return 1.5
        calls.add(k)
        return 0.5

    s = ParamSchedule(lambda k: 0.0, first_call_only)
    run = iterate(_averaged_affine(4, 1.0, seed=3), s, tol=-1.0, max_iter=10)
    assert set(run.lambdas.tolist()) == {0.5}
    assert validate_run(run).feasible
    assert not validate_schedule(s, horizon=run.iterations - 1).feasible


def test_validate_run_takes_the_operator_theta():
    run = iterate(_soft_problem(4), constant_schedule(0.0, 1.5), tol=-1.0, max_iter=5)
    rep = validate_run(run)
    assert rep.feasible and rep.scaling_theta == 0.5 and rep.lambda_max == 2.0
    assert not validate_schedule(run.schedule).feasible


def test_validate_run_refuses_a_run_with_no_step():
    run = iterate(_averaged_affine(4, 1.0, seed=4), constant_schedule(0.2, 0.5), max_iter=0)
    assert run.iterations == 0
    with pytest.raises(ValueError) as info:
        validate_run(run)
    assert str(info.value) == "needs at least one iteration"
