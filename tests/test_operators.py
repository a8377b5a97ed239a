"""Operator constructors, their certificates, and the averagedness algebra."""

import numpy as np
import pytest

from kmsolve.applications import plant_lasso
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
    unwrap_averaged,
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


def test_operator_spec_validates_theta():
    f = lambda x: x
    with pytest.raises(ValueError, match="theta"):
        OperatorSpec(apply=f, theta=0.0, dim=None)
    with pytest.raises(ValueError, match="theta"):
        OperatorSpec(apply=f, theta=1.5, dim=None)


def test_ism_operator_requires_positive_finite_beta():
    f = lambda x: x
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="beta"):
            IsmOperator(apply=f, beta=bad)


def test_spectral_norm_matches_dense_svd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13)


def test_identity_returns_input_unchanged():
    op = make_identity(4)
    x = np.arange(4.0)
    assert np.array_equal(op(x), x)
    assert op.theta == 1.0


def test_soft_threshold_closed_form():
    op = make_soft_threshold(0.3, 5)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-2, 2, 5)
        want = np.sign(x) * np.maximum(np.abs(x) - 0.3, 0.0)
        assert np.array_equal(op(x), want)
    assert op.theta == 0.5
    with pytest.raises(ValueError, match="gamma"):
        make_soft_threshold(0.0, 5)


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
    run = iterate(Problem(operator=unchecked, z0=np.ones(3)), sched, route="unwrap")
    assert (run.stop_reason, run.iterations) == ("diverged", 27)


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


def test_unwrap_averaged_inverts_the_averaging_identity():
    # T = (1 - theta) I + theta N  must hold for the recovered N
    op = make_soft_threshold(0.4, 7)
    n_op = unwrap_averaged(op)
    assert n_op.theta == 1.0
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.uniform(-2, 2, 7)
        recomposed = (1.0 - op.theta) * x + op.theta * n_op(x)
        assert np.allclose(recomposed, op(x), rtol=0, atol=1e-15)


def test_unwrap_averaged_rejects_theta_one():
    with pytest.raises(ValueError, match="theta"):
        unwrap_averaged(make_identity(3))
