"""Operator constructors, their certificates, and the averagedness algebra."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kmsolve import operators
from kmsolve.applications import lasso_fbs_pieces, plant_lasso
from kmsolve.engine import Problem, iterate
from kmsolve.operators import (
    IsmOperator,
    OperatorSpec,
    as_point,
    make_affine,
    make_box_projection,
    make_fb_composition,
    make_identity,
    make_soft_threshold,
    norm,
    quadratic_gradient,
    spectral_norm,
)
from kmsolve.schedules import constant_schedule, validate_schedule


def test_as_point_coerces_lists_to_float_vectors():
    p = as_point([1, 2, 3])
    assert p.dtype == np.float64
    assert p.shape == (3,)


def test_as_point_rejects_bad_inputs():
    with pytest.raises(ValueError, match="must be a vector"):
        as_point(np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        as_point([1.0, np.inf])
    with pytest.raises(ValueError, match="dimension"):
        as_point([1.0, 2.0], dim=3)


def test_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(rng.integers(1, 30))
        assert norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-14)


def test_norm_is_the_np_dot_norm_bit_for_bit():
    rng = np.random.default_rng(10)
    vectors = [rng.standard_normal(n) for n in (1, 2, 7, 8, 20, 199, 200, 2001)]
    vectors.append(rng.standard_normal(60)[::3])  # strided view
    vectors.append(rng.standard_normal((20, 3))[:, 1])  # column view
    vectors += [np.array([np.inf, 1.0]), np.array([-np.inf]), np.array([np.nan, 1.0])]
    vectors.append(np.array([1e200, 1e200]))  # squares overflow
    vectors.append(np.zeros(4))
    with np.errstate(over="ignore"):
        for v in vectors:
            expected = math.sqrt(float(np.dot(v, v)))
            got = norm(v)
            assert type(got) is float
            assert got == expected or (math.isnan(got) and math.isnan(expected))
        for seq in ([3.0, 4.0], (1, 2, 2), [1e200, 1e200]):
            assert norm(seq) == math.sqrt(float(np.dot(seq, seq)))
    assert norm([3.0, 4.0]) == 5.0


def test_affine_apply_is_matmul_bit_for_bit():
    # the operator's q.dot(x) rounds exactly like q @ x on its C- or
    # F-ordered matrix, so trajectories match a restatement that uses @
    rng = np.random.default_rng(12)
    for n in (1, 8, 20, 200):
        for order in ("C", "F"):
            q = np.array(0.9 * np.linalg.qr(rng.standard_normal((n, n)))[0], order=order)
            b = rng.standard_normal(n)
            op = make_affine(q, b)
            for _ in range(5):
                x = rng.standard_normal(n)
                assert op(x).tobytes() == (q @ x + b).tobytes()


def test_certified_operators_own_their_data():
    # a certificate covers the map built; the caller's arrays may change afterwards
    q = 0.5 * np.eye(2)
    b = np.array([1.0, 0.0])
    affine = make_affine(q, b, theta=0.5)
    q[:] = -3.0 * np.eye(2)
    b[:] = 7.0
    assert np.array_equal(affine([1.0, 0.0]), [1.5, 0.0])
    qf = np.asfortranarray(0.5 * np.eye(2))
    affine_f = make_affine(qf, np.zeros(2))
    qf[0, 0] = 9.0
    assert np.array_equal(affine_f([1.0, 1.0]), [0.5, 0.5])

    lo = np.array([-1.0, 0.0])
    hi = np.array([1.0, 2.0])
    box = make_box_projection(lo, hi)
    lo[:] = 5.0
    hi[:] = 6.0
    assert np.array_equal(box([-3.0, 5.0]), [-1.0, 2.0])


def test_operator_spec_validates_theta():
    f = lambda x: x
    for bad in (0.0, 1.5, True, "0.5", None, [0.5]):
        with pytest.raises(ValueError, match=r"^theta must be a real in \(0, 1\], got"):
            OperatorSpec(apply=f, theta=bad, dim=None)


@pytest.mark.parametrize("dim", [2.5, 2.0, True, 0, -1, "3"])
def test_operator_spec_refuses_a_dim_that_is_not_a_positive_integer(dim):
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        OperatorSpec(apply=lambda x: x, theta=1.0, dim=dim)


def test_operator_spec_keeps_an_integer_dim():
    assert OperatorSpec(apply=lambda x: x, theta=1.0, dim=np.int64(3)).dim == 3
    assert make_soft_threshold(0.3, 4).dim == 4


def test_operators_store_their_scalars_as_floats_and_ints():
    spec = OperatorSpec(apply=lambda x: x, theta=1, dim=np.int64(3))
    assert type(spec.theta) is float and type(spec.dim) is int
    assert type(IsmOperator(apply=lambda x: x, beta=np.float32(0.5)).beta) is float


def test_a_vector_entry_outside_the_float_range_is_named():
    # np.asarray raises an OverflowError that names no parameter
    huge = 10**400
    cases = [
        (lambda: as_point([1.0, huge], name="z0"), "z0"),
        (lambda: make_box_projection([-huge], [1.0]), "lo"),
        (lambda: Problem(operator=make_identity(2), z0=[huge, 0.0]), "z0"),
        (lambda: Problem(operator=make_identity(2), z0=[0.0, 0.0], z_star=[0.0, huge]), "z_star"),
    ]
    for build, name in cases:
        with pytest.raises(ValueError, match=f"^{name} contains an entry outside the float range$"):
            build()


def test_a_boolean_entry_is_refused_in_any_container():
    # numpy reads a boolean as 1 or 0: Problem(make_identity(2), [True, False]) used to run from [1, 0]
    containers = [
        [1.0, True],
        [[0.5], [np.True_]],
        np.array([True, False]),
        np.array([1.0, True], dtype=object),  # an ndarray, but not a numeric one
        False,
    ]
    for bad in containers:
        with pytest.raises(ValueError, match="^z0 must be an array of numbers, got (True|False)$"):
            as_point(bad, name="z0")
    assert as_point(np.array([1, 0]), name="z0").tolist() == [1.0, 0.0]  # integers are numbers


def test_a_float64_array_argument_is_read_as_it_is():
    z = np.array([1.0, 2.0])
    m = np.eye(2)
    assert as_point(z, name="z0") is z and operators._as_matrix(m, "m") is m


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda m: make_affine(m, [0.0]), "matrix"),
        (lambda m: quadratic_gradient(m, [0.0]), "m"),
        (spectral_norm, "mat"),
    ],
    ids=["make_affine", "quadratic_gradient", "spectral_norm"],
)
def test_a_matrix_argument_is_named(build, name):
    # np.asarray raises an OverflowError that names no parameter
    with pytest.raises(ValueError, match=f"^{name} contains an entry outside the float range$"):
        build([[10**400]])
    with pytest.raises(ValueError, match=rf"^{name} must be a matrix, got shape \(1,\)$"):
        build([1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            build([[bad]])


def test_an_empty_vector_is_refused_by_name():
    # an operator without a dimension took z0 = [] and the run then divided by its size
    anydim = OperatorSpec(apply=lambda x: x, theta=1.0, dim=None)
    for build, name in [
        (lambda: as_point([], name="b"), "b"),
        (lambda: Problem(operator=anydim, z0=[]), "z0"),
        (lambda: Problem(operator=anydim, z0=[1.0], z_star=np.zeros((0,))), "z_star"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must have at least one entry$"):
            build()


def test_ism_operator_requires_positive_finite_beta():
    f = lambda x: x
    for bad in (0.0, -1.0, np.inf, np.nan, "1", None, True):
        with pytest.raises(ValueError, match="^beta must be a finite positive real, got"):
            IsmOperator(apply=f, beta=bad)


def test_spectral_norm_matches_dense_svd():
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12))) for _ in range(10)]
    m = rng.standard_normal((7, 7))
    signed = m.copy()
    signed[::2, 1::2] = -0.0
    signed[1::2, ::2] = 0.0
    mats += [np.asfortranarray(m), signed, np.asfortranarray(signed), 1e150 * m, 1e-150 * m]
    mats += [rng.standard_normal((13, 3)), rng.standard_normal((3, 13)), np.asfortranarray(rng.standard_normal((9, 2)))]
    for m in mats:
        want = float(np.linalg.norm(m, 2)).hex()
        assert spectral_norm(m).hex() == want  # fresh
        assert spectral_norm(m).hex() == want  # repeated
    for shape in ((0, 3), (3, 0)):
        assert spectral_norm(np.empty(shape)).hex() == (0.0).hex()


def _count_svds(monkeypatch):
    """Count np.linalg.svd calls from here on; returns (calls, np.linalg.norm as the reference for sigma)."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls, np.linalg.norm


def _reset_gradient_memo():
    """Leave np.eye(1) in quadratic_gradient's memo, whatever an earlier test left there."""
    quadratic_gradient(np.eye(1), [0.0])


def test_gradient_memo_hits_only_on_the_same_bits(monkeypatch):
    calls, real = _count_svds(monkeypatch)

    def check(a, svds):
        before = len(calls)
        op = quadratic_gradient(a, np.ones(np.shape(a)[0]))
        sigma = float(real(np.asarray(a, dtype=float), 2))
        assert op.beta.hex() == (1.0 / (sigma * sigma)).hex()
        assert len(calls) - before == svds

    rng = np.random.default_rng(808)
    base = rng.standard_normal((6, 4))
    _reset_gradient_memo()
    check(base, 1)
    check(base, 0)
    check(np.asfortranarray(base), 0)  # same content, other layout
    check(base.tolist(), 0)

    ulp = base.copy()
    ulp[2, 1] = np.nextafter(ulp[2, 1], np.inf)
    check(ulp, 1)
    check(base, 1)

    zero = base.copy()
    zero[0, 0] = 0.0
    check(zero, 1)
    zero[0, 0] = -0.0
    check(zero, 1)

    check(base, 1)
    check(base.reshape(4, 6), 1)  # same buffer, other shape
    check(base.ravel().reshape(6, 4), 1)

    square = rng.standard_normal((5, 5))
    check(square, 1)
    check(square.T, 1)

    # the caller changes its array after the call; an F-ordered m.T is C-contiguous, so a memo
    # that kept m.T as a view of it would see the change too
    for mutable in (base.copy(), np.asfortranarray(base)):
        check(mutable, 1)
        mutable[1, 1] *= 2.0
        check(mutable, 1)
        check(mutable, 0)

    for bad in (np.nan, np.inf):
        broken = mutable.copy()
        broken[3, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quadratic_gradient(broken, np.ones(6))
    check(mutable, 0)  # a refused matrix leaves the memo as it was
    with pytest.raises(ValueError, match="zero matrix"):
        quadratic_gradient(np.zeros((6, 4)), np.ones(6))
    check(mutable, 0)


def test_lasso_pattern_takes_one_svd_per_instance(monkeypatch):
    instances = [plant_lasso(300, 200, seed=seed) for seed in (909, 910)]
    _reset_gradient_memo()
    calls, _ = _count_svds(monkeypatch)
    for inst in instances:
        rho = quadratic_gradient(inst.matrix, inst.rhs).beta
        _, forward = lasso_fbs_pieces(inst, rho)
        assert forward.beta == rho
    assert len(calls) == len(instances)


def test_lasso_pattern_keeps_one_transposed_copy():
    inst = plant_lasso(300, 200, seed=911)
    xs = np.random.default_rng(912).standard_normal((5, 200))
    _reset_gradient_memo()
    fresh = quadratic_gradient(inst.matrix, inst.rhs)
    expected = [fresh(x).tobytes() for x in xs]
    tracemalloc.start()
    try:
        _, forward = lasso_fbs_pieces(inst, fresh.beta)  # a hit: no byte key, no second m^T
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inst.matrix.nbytes / 2
    assert [forward(x).tobytes() for x in xs] == expected


def test_gradient_memo_keeps_a_private_read_only_transpose():
    for m in (np.arange(1.0, 7.0).reshape(3, 2), np.asfortranarray(np.arange(11.0, 17.0).reshape(3, 2))):
        quadratic_gradient(m, np.zeros(3))
        mt = operators._gradient_memo[0]
        assert mt.flags.c_contiguous and not mt.flags.writeable
        assert not np.shares_memory(mt, m) and np.array_equal(mt, m.T)


def test_gradient_memo_is_sound_under_threads():
    # few matrices and many calls, so a thread often looks up a matrix that
    # another thread has just stored or is about to replace
    rng = np.random.default_rng(1010)
    mats = [rng.standard_normal((4, 3)) for _ in range(3)]
    rhs, x = rng.standard_normal(4), rng.standard_normal(3)
    sigmas = [float(np.linalg.norm(m, 2)) for m in mats]
    expected = [(1.0 / (s * s), (np.ascontiguousarray(m.T) @ (m @ x - rhs)).tobytes()) for s, m in zip(sigmas, mats)]

    def worker(shift):
        wrong = 0
        for i in range(1000):
            j = (i + shift) % len(mats)
            op = quadratic_gradient(mats[j], rhs)
            wrong += (op.beta, op(x).tobytes()) != expected[j]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(worker, shift) for shift in range(4)]
            wrong = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [0, 0, 0, 0]


def test_identity_returns_input_unchanged():
    op = make_identity(4)
    x = np.arange(4.0)
    assert np.array_equal(op(x), x)
    assert op.theta == 1.0


def _same_bits(got, want):
    """Equal dtype, shape and bytes: a flipped sign of zero or a NaN in place of a number fails."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_soft_threshold_closed_form():
    # bytes, not np.array_equal, which calls -0.0 equal to +0.0
    gamma = 0.3
    op = make_soft_threshold(gamma, 11)
    edges = np.array(
        [-0.0, 0.0, -0.1, -0.3 + 2e-16, 0.1, 0.3, -0.3, 0.3 + 1e-9, -2.0, 1.5, math.nan]
    )
    rng = np.random.default_rng(2)
    for x in [edges] + [rng.uniform(-2, 2, 11) for _ in range(50)]:
        want = np.sign(x) * np.maximum(np.abs(x) - gamma, 0.0)
        assert _same_bits(op(x), want)
    got = op(edges)
    # inside [-gamma, gamma] the value is -0.0 for x in [-gamma, 0) and +0.0 for x = -0.0
    # (np.sign(-0.0) is +0.0); the clip form x - clip(x, -gamma, gamma) gives +0.0 throughout
    assert list(np.signbit(got[:7])) == [False, False, True, True, False, False, True]
    assert not got[:7].any()
    assert got[7] > 0.0 and got[8] == -1.7 and got[9] == 1.2 and math.isnan(got[10])
    assert op.theta == 0.5
    for bad in (0.0, -1.0, math.inf, math.nan, "0.3", None, True):
        with pytest.raises(ValueError, match="gamma must be a finite positive real"):
            make_soft_threshold(bad, 5)


def test_soft_threshold_returns_float64_for_float32_input():
    # its gamma and 0 are 0-d float64 arrays, not weak Python scalars (NEP 50)
    x = np.array([-1.0, 0.1, 2.0], dtype=np.float32)
    got = make_soft_threshold(0.3, 3)(x)
    assert got.dtype == np.float64
    assert _same_bits(got, np.sign(x) * np.maximum(np.abs(x) - np.float64(0.3), np.float64(0.0)))


def test_soft_threshold_is_firmly_nonexpansive():
    # firm nonexpansiveness: ||Tx - Ty||^2 <= <Tx - Ty, x - y>
    op = make_soft_threshold(0.5, 6)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.uniform(-3, 3, 6), rng.uniform(-3, 3, 6)
        d = op(x) - op(y)
        assert d @ d <= d @ (x - y) + 1e-12


def test_box_projection_clips_and_is_idempotent():
    op = make_box_projection([-1.0, 0.0], [1.0, 2.0])
    x = np.array([-3.0, 5.0])
    p = op(x)
    assert np.array_equal(p, [-1.0, 2.0])
    assert np.array_equal(op(p), p)
    assert op.theta == 0.5
    with pytest.raises(ValueError, match="lo <= hi"):
        make_box_projection([1.0], [0.0])


def test_affine_certificate_rejects_expansions():
    with pytest.raises(ValueError, match="spectral norm"):
        make_affine(1.1 * np.eye(3), np.zeros(3))
    with pytest.raises(ValueError, match="square"):
        make_affine(np.ones((2, 3)), np.zeros(2))


def test_affine_certificate_rejects_a_barely_expansive_matrix():
    # ||q||_2 = 1 + 1e-9: an estimate that converges from below reads it as < 1
    rng = np.random.default_rng(200)
    u, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    v, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    s = np.linspace(0.5, 1.0, 200)
    s[-1] = 1.0 + 1e-9
    with pytest.raises(ValueError, match="spectral norm"):
        make_affine((u * s) @ v.T, np.zeros(200))


def test_affine_certificate_refuses_a_false_averagedness_claim():
    # -0.99 I is nonexpansive, and theta-averaged only for theta >= 0.995,
    # since ||q - (1 - theta) I||_2 = 1.99 - theta
    q = -0.99 * np.eye(3)
    with pytest.raises(ValueError, match="certificate failed"):
        make_affine(q, np.zeros(3), theta=0.5)
    with pytest.raises(ValueError, match="certificate failed"):
        make_affine(q, np.zeros(3), theta=0.994)
    assert make_affine(q, np.zeros(3), theta=0.995).theta == 0.995
    # The claim the certificate refuses admits lambda = 1.9, which diverges.
    unchecked = OperatorSpec(apply=lambda x: q @ x, theta=0.5, dim=3)
    sched = constant_schedule(0.0, 1.9)
    assert validate_schedule(sched, theta=0.5).feasible
    run = iterate(Problem(operator=unchecked, z0=np.ones(3)), sched)
    assert (run.stop_reason, run.iterations) == ("diverged", 27)


def _affine_certificate_table():
    """Seeded (q, theta) cases; per theta and size, some with ||q - (1 - theta) I||_2 placed
    just inside or just outside theta + 1e-12, in C and F order, with off-diagonal signed zeros."""
    rng = np.random.default_rng(3300)
    thetas = [1.0, 0.5] + [float(t) for t in rng.uniform(0.01, 1.0, 3)]
    for theta in thetas:
        for n in (1, 2, 5, 8, 17):
            for target in (0.5 * theta, theta + 1e-12 - 4e-15, theta + 1e-12, theta + 1e-12 + 4e-15, 2.0 * theta):
                a = rng.standard_normal((n, n))
                off = ~np.eye(n, dtype=bool)
                a[off & (rng.random((n, n)) < 0.2)] = 0.0
                a[off & (rng.random((n, n)) < 0.2)] = -0.0
                q = a * (target / np.linalg.norm(a, 2))
                q.flat[:: n + 1] += 1.0 - theta
                yield q if n % 2 else np.asfortranarray(q), theta


def test_affine_certificate_is_the_dense_shifted_norm_bit_for_bit():
    rng = np.random.default_rng(3301)
    decisions = set()
    for q, theta in _affine_certificate_table():
        n = q.shape[0]
        before = q.copy()
        cert = float(np.linalg.norm(q - (1.0 - theta) * np.eye(n), 2))
        b = rng.standard_normal(n)
        if cert > theta + 1e-12:
            with pytest.raises(ValueError, match="certificate failed") as err:
                make_affine(q, b, theta=theta)
            assert f"||matrix - (1 - theta) I||_2 = {cert} exceeds" in str(err.value)
        else:
            op = make_affine(q, b, theta=theta)
            if theta < 1.0:
                for _ in range(3):
                    x = rng.standard_normal(n)
                    assert op(x).tobytes() == (q @ x + b).tobytes()
        assert q.tobytes() == before.tobytes()  # the caller's matrix is unchanged
        decisions.add((theta < 1.0, cert > theta + 1e-12))
    assert decisions == {(False, False), (False, True), (True, False), (True, True)}


def test_non_finite_matrices_are_rejected_when_built():
    for bad in (np.nan, np.inf):
        q = 0.5 * np.eye(3)
        q[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_affine(q, np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            quadratic_gradient(q, np.zeros(3))


def test_affine_accepts_orthogonal_and_applies_correctly():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    b = rng.standard_normal(5)
    op = make_affine(q, b)
    x = rng.standard_normal(5)
    assert np.allclose(op(x), q @ x + b, rtol=0, atol=0)


def test_quadratic_gradient_modulus_is_inverse_square_spectral_norm():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    op = quadratic_gradient(m, b)
    sigma = np.linalg.norm(m, 2)
    assert op.beta == pytest.approx(1.0 / sigma**2, rel=1e-13)
    x = rng.standard_normal(6)
    assert np.allclose(op(x), m.T @ (m @ x - b), rtol=0, atol=1e-14)
    inst = plant_lasso(300, 200, seed=606)
    lasso = quadratic_gradient(inst.matrix, inst.rhs)
    assert lasso.beta == pytest.approx(1.0 / np.linalg.norm(inst.matrix, 2) ** 2, rel=1e-13)
    with pytest.raises(ValueError, match="IsmOperator"):
        quadratic_gradient(np.zeros((3, 2)), np.zeros(3))


@pytest.mark.parametrize("m", [5.0, [1.0], np.ones((2, 2, 2))], ids=["scalar", "vector", "3-d"])
def test_quadratic_gradient_refuses_a_non_matrix_by_name(m):
    # the shape is checked before b's length is read from it
    with pytest.raises(ValueError, match=r"m must be a matrix, got shape"):
        quadratic_gradient(m, [1.0])


def test_fb_composition_averagedness_formula():
    # theta = 2*beta / (4*beta - rho); pinned at 2/3 for (beta, rho) = (1, 1)
    res = make_soft_threshold(0.1, 2)
    fwd = IsmOperator(apply=lambda x: np.zeros_like(x), beta=1.0)
    op = make_fb_composition(res, fwd, 1.0)
    assert op.theta == 0.6666666666666666
    fwd_half = IsmOperator(apply=lambda x: np.zeros_like(x), beta=0.5)
    assert make_fb_composition(res, fwd_half, 0.5).theta == 0.6666666666666666


def test_fb_composition_validates_inputs():
    fwd = IsmOperator(apply=lambda x: np.zeros_like(x), beta=1.0)
    with pytest.raises(ValueError, match="firmly nonexpansive"):
        make_fb_composition(make_identity(2), fwd, 1.0)
    res = make_soft_threshold(0.1, 2)
    with pytest.raises(ValueError, match="rho"):
        make_fb_composition(res, fwd, 2.0)
    with pytest.raises(ValueError, match="rho"):
        make_fb_composition(res, fwd, 0.0)
    for rho in ("0.1", None, True):
        with pytest.raises(ValueError, match=r"^rho must be a real in \(0, 2\*beta\) = \(0, 2\.0\), got"):
            make_fb_composition(res, fwd, rho)


def _averagedness_ratio(op, theta, x, y):
    """(||Tx - Ty||^2 + ((1 - theta) / theta) ||(I - T)x - (I - T)y||^2) / ||x - y||^2.

    T is theta-averaged iff this is at most 1 for every pair x != y.
    """
    d = op(x) - op(y)
    r = (x - y) - d
    return (d @ d + (1.0 - theta) / theta * (r @ r)) / ((x - y) @ (x - y))


def _fb_lasso(rho_over_beta):
    rng = np.random.default_rng(9)
    fwd = quadratic_gradient(rng.standard_normal((12, 6)), rng.standard_normal(12))
    rho = rho_over_beta * fwd.beta
    op = make_fb_composition(make_soft_threshold(0.3 * rho, 6), fwd, rho)
    assert op.theta == 2.0 * fwd.beta / (4.0 * fwd.beta - rho)
    return op


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_soft_threshold(0.5, 6),
        lambda: make_box_projection(-np.ones(6), np.linspace(-0.5, 2.0, 6)),
        lambda: _fb_lasso(0.5),
        lambda: _fb_lasso(1.0),
        lambda: _fb_lasso(1.9),
    ],
    ids=["soft-threshold", "box-projection", "fb-rho-0.5-beta", "fb-rho-beta", "fb-rho-1.9-beta"],
)
def test_declared_theta_holds_on_sampled_pairs(make):
    op = make()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(300):
        x, y = rng.uniform(-3.0, 3.0, 6), rng.uniform(-3.0, 3.0, 6)
        ratio = _averagedness_ratio(op, op.theta, x, y)
        assert ratio <= 1.0 + 1e-12, ratio
        worst = max(worst, ratio)
    assert worst > 0.5  # the pairs probe the bound, not only its slack


def test_averagedness_check_refuses_an_overstated_theta():
    # inside [-gamma, gamma] both points map to 0, so the ratio is (1 - theta) / theta > 1 below 1/2
    op = make_soft_threshold(0.5, 2)
    x, y = np.array([0.1, -0.2]), np.array([-0.3, 0.4])
    assert _averagedness_ratio(op, 0.5, x, y) == 1.0
    assert _averagedness_ratio(op, 0.49, x, y) > 1.0 + 1e-12


def test_fb_composition_is_the_python_float_step_bit_for_bit():
    rng = np.random.default_rng(8)
    mat, rhs = rng.standard_normal((12, 6)), rng.standard_normal(12)
    fwd = quadratic_gradient(mat, rhs)
    rho = 1.3 * fwd.beta
    res = make_soft_threshold(0.3 * rho, 6)
    op = make_fb_composition(res, fwd, rho)
    for x in [np.array([-0.0, 0.0, -0.1, 0.2, 3.0, -2.5])] + [rng.uniform(-3, 3, 6) for _ in range(50)]:
        assert _same_bits(op(x), res(x - float(rho) * fwd(x)))
