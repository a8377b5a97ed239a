"""Resolvent and forward-backward front ends, plus the planted lasso."""

import dataclasses
import math
import re

import numpy as np
import pytest

from kmsolve import applications
from kmsolve.applications import (
    box_intersection_pieces,
    lasso_fbs_pieces,
    lasso_kkt_gap,
    plant_lasso,
    solve_fbs,
    solve_ppa,
)
from kmsolve.engine import Problem, iterate
from kmsolve.operators import (
    IsmOperator,
    OperatorSpec,
    make_affine,
    make_fb_composition,
    make_soft_threshold,
    norm,
    quadratic_gradient,
)
from kmsolve.schedules import ErrorModel, constant_schedule, emit_error, validate_schedule


def test_ppa_requires_a_firmly_nonexpansive_resolvent():
    with pytest.raises(ValueError):
        solve_ppa(make_affine(np.eye(2), np.zeros(2)), np.ones(2), constant_schedule(0.0, 0.5))


def test_a_resolvent_averaged_below_one_half_runs_and_one_above_is_refused():
    # x -> x / 2, the resolvent of 1/2 ||x||^2, is certified 1/4-averaged; it is 1/2-averaged as well
    halving = make_affine(0.5 * np.eye(2), np.zeros(2), theta=0.25)
    run = solve_ppa(halving, np.ones(2), constant_schedule(0.0, 3.0), z_star=np.zeros(2))
    assert run.converged and validate_schedule(run.schedule, theta=halving.theta).feasible
    zero = IsmOperator(apply=lambda x: np.zeros_like(x), beta=1.0)
    assert make_fb_composition(halving, zero, 1.0).theta == 2.0 / 3.0
    above = OperatorSpec(apply=halving.apply, theta=0.5000001, dim=2)
    with pytest.raises(ValueError, match=r"^proximal point needs a firmly nonexpansive resolvent \(theta <= 1/2\)$"):
        solve_ppa(above, np.ones(2), constant_schedule(0.0, 0.5))
    with pytest.raises(ValueError, match=r"^resolvent must be firmly nonexpansive \(theta <= 1/2\)$"):
        make_fb_composition(above, zero, 1.0)


def test_ppa_converges_to_the_prox_fixed_point():
    # prox of gamma*|.| has the origin as its only fixed point
    rng = np.random.default_rng(40)
    run = solve_ppa(
        make_soft_threshold(0.4, 6),
        rng.uniform(-2, 2, 6),
        constant_schedule(0.1, 1.2),
        z_star=np.zeros(6),
    )
    assert run.converged
    assert np.linalg.norm(run.z) <= 1e-8


def _run_arrays(run):
    fields = ("z", "residuals", "err_norms", "alphas", "lambdas", "step_norms", "dists")
    return [getattr(run, f).tobytes() for f in fields] + [x.tobytes() for x in run.states] + [run.stop_reason]


def test_an_operator_without_a_dimension_runs_with_error_models():
    # the run's dimension comes from z0, so dim=None runs equal the declared ones array for array
    rng = np.random.default_rng(60)
    z0 = rng.uniform(-2, 2, 6)
    forward = quadratic_gradient(rng.standard_normal((8, 6)), rng.standard_normal(8))
    soft = make_soft_threshold(0.3, 6)
    opts = dict(tol=-1.0, max_iter=150, record_states=True)

    def runs(op):
        sched = constant_schedule(0.1, 0.9)
        yield iterate(Problem(op, z0, np.zeros(6)), sched, ErrorModel.power_decay(0.1, 2.0, seed=61), **opts)
        errors = dict(
            forward_errors=ErrorModel.power_decay(0.05, 2.0, seed=62),
            resolvent_errors=ErrorModel.geometric(0.05, 0.9, seed=63),
        )
        yield solve_fbs(op, forward, forward.beta, z0, sched, z_star=np.zeros(6), **errors, **opts)

    anydim = OperatorSpec(apply=soft.apply, theta=0.5, dim=None)
    for got, want in zip(runs(anydim), runs(soft), strict=True):
        assert want.err_norms.all()
        assert _run_arrays(got) == _run_arrays(want)


def test_fbs_zero_error_path_matches_manual_composition():
    inst = plant_lasso(n_samples=60, n_features=40, support_size=6, reg=0.4, seed=50)
    rho = 0.8 * quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    z0 = np.zeros(40)
    sched = constant_schedule(0.1, 0.9)
    opts = dict(tol=-1.0, max_iter=50, record_states=True)
    via_front_end = solve_fbs(resolvent, forward, rho, z0, sched, **opts)
    manual = iterate(
        Problem(operator=make_fb_composition(resolvent, forward, rho), z0=z0),
        sched,
        **opts,
    )
    for a, b in zip(via_front_end.states, manual.states):
        assert np.array_equal(a, b)


def test_fbs_folded_error_respects_the_rho_bound():
    # ||folded error|| <= rho*||e1|| + ||e2|| because the resolvent is nonexpansive
    inst = plant_lasso(n_samples=60, n_features=40, support_size=6, reg=0.4, seed=51)
    rho = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    e1 = ErrorModel.power_decay(0.3, 1.5, seed=52)
    e2 = ErrorModel.geometric(0.2, 0.9, seed=53)
    run = solve_fbs(
        resolvent,
        forward,
        rho,
        np.zeros(40),
        constant_schedule(0.1, 0.9),
        forward_errors=e1,
        resolvent_errors=e2,
        tol=-1.0,
        max_iter=40,
    )
    for k in range(40):
        bound = rho * e1.norm_at(k) + e2.norm_at(k)
        assert run.err_norms[k] <= bound + 1e-12


def test_fbs_resolvent_call_counts():
    # one forward and one resolvent call per step, exact or resolvent-only;
    # a forward error costs a second resolvent call, never a second forward
    inst = plant_lasso(n_samples=30, n_features=20, support_size=4, reg=0.4, seed=54)
    rho = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    calls = {"resolvent": 0, "forward": 0}

    def counting(name, f):
        def apply(x):
            calls[name] += 1
            return f(x)

        return apply

    counted = dataclasses.replace(resolvent, apply=counting("resolvent", resolvent.apply))
    counted_fwd = dataclasses.replace(forward, apply=counting("forward", forward.apply))
    solve_fbs(counted, counted_fwd, rho, np.zeros(20), constant_schedule(0.0, 0.9), tol=-1.0, max_iter=25)
    assert calls == {"resolvent": 25, "forward": 25}
    perturbed = [
        ({"forward_errors": ErrorModel.power_decay(0.1, 2.0, seed=55)}, 50),
        ({"resolvent_errors": ErrorModel.power_decay(0.1, 2.0, seed=56)}, 25),
    ]
    for channel, resolvent_calls in perturbed:
        calls.update(resolvent=0, forward=0)
        sched = constant_schedule(0.0, 0.9)
        solve_fbs(counted, counted_fwd, rho, np.zeros(20), sched, tol=-1.0, max_iter=25, **channel)
        assert calls == {"resolvent": resolvent_calls, "forward": 25}, channel


def test_perturbed_fbs_matches_the_two_forward_recurrence():
    # Reference: T mu taken from make_fb_composition's apply, so perturbed runs
    # stay tied to the composition, and the perturbed output restated with B mu
    # evaluated a second time and the resolvent applied again on every perturbed
    # step; sharing B mu and T mu must not change a bit.
    inst = plant_lasso(n_samples=30, n_features=20, support_size=4, reg=0.4, seed=57)
    rho = quadratic_gradient(inst.matrix, inst.rhs).beta
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    j, fwd, r = resolvent.apply, forward.apply, float(rho)
    z0 = inst.x_star + 0.3
    sched = constant_schedule(0.2, 0.9)
    prob = Problem(operator=make_fb_composition(resolvent, forward, rho), z0=z0, z_star=inst.x_star)
    channels = [
        (ErrorModel.power_decay(0.1, 2.0, seed=58), ErrorModel.power_decay(0.05, 1.5, seed=59)),
        # both, forward only, resolvent only, neither, both, then exact steps
        (
            ErrorModel.from_norms([0.1, 0.05, 0.0, 0.0, 0.02], seed=60),
            ErrorModel.from_norms([0.05, 0.0, 0.02, 0.0, 0.01], seed=61),
        ),
    ]
    for fe, re in channels:

        def two_forward(mu, k, fe=fe, re=re):
            t_mu = prob.operator.apply(mu)
            n1, n2 = fe.norm_at(k), re.norm_at(k)
            if n1 == 0.0 and n2 == 0.0:
                return t_mu, t_mu, 0.0
            b_mu = fwd(mu)
            if n1 != 0.0:
                b_mu = b_mu + emit_error(fe, k, 20)
            t_pert = j(mu - r * b_mu)
            if n2 != 0.0:
                t_pert = t_pert + emit_error(re, k, 20)
            return t_mu, t_pert, norm(t_pert - t_mu)

        opts = dict(tol=-1.0, max_iter=60)
        run = solve_fbs(
            resolvent,
            forward,
            rho,
            z0,
            sched,
            forward_errors=fe,
            resolvent_errors=re,
            z_star=inst.x_star,
            **opts,
        )
        ref = iterate(prob, sched, perturb=two_forward, **opts)
        for name in ("z", "residuals", "err_norms", "step_norms", "dists"):
            assert np.array_equal(getattr(run, name), getattr(ref, name))


def test_plant_lasso_produces_a_certified_minimizer():
    inst = plant_lasso(n_samples=120, n_features=80, support_size=10, reg=0.5, seed=56)
    assert lasso_kkt_gap(inst) <= 1e-10
    assert inst.support.shape == (10,)
    off = np.setdiff1d(np.arange(80), inst.support)
    assert np.all(inst.x_star[off] == 0.0)
    assert np.all(np.abs(inst.x_star[inst.support]) >= 0.5)
    assert np.all(np.abs(inst.dual) <= 1.0)
    assert np.array_equal(inst.dual[inst.support], np.sign(inst.x_star[inst.support]))


def test_plant_lasso_validation():
    with pytest.raises(ValueError):
        plant_lasso(n_samples=10, n_features=20)
    with pytest.raises(ValueError):
        plant_lasso(support_size=0)
    with pytest.raises(ValueError):
        plant_lasso(reg=0.0)


def test_kkt_gap_detects_a_corrupted_solution():
    inst = plant_lasso(n_samples=60, n_features=40, support_size=6, reg=0.4, seed=57)
    off = dataclasses.replace(inst, x_star=inst.x_star + 0.05)
    assert lasso_kkt_gap(off) > 1e-3


def test_lasso_objective_is_minimal_at_the_planted_point():
    inst = plant_lasso(n_samples=60, n_features=40, support_size=6, reg=0.4, seed=58)

    def objective(x):
        r = inst.matrix @ x - inst.rhs
        return 0.5 * float(r @ r) + inst.reg * float(np.abs(x).sum())

    base = objective(inst.x_star)
    rng = np.random.default_rng(59)
    for _ in range(30):
        probe = inst.x_star + rng.standard_normal(40) * 10.0 ** rng.uniform(-4, 0)
        assert objective(probe) >= base


def test_lasso_fbs_pieces_wire_the_right_operators():
    inst = plant_lasso(n_samples=30, n_features=20, support_size=4, reg=0.5, seed=60)
    rho = 0.7
    resolvent, forward = lasso_fbs_pieces(inst, rho)
    x = np.linspace(-1, 1, 20)
    want = np.sign(x) * np.maximum(np.abs(x) - rho * inst.reg, 0.0)
    assert np.array_equal(resolvent(x), want)
    assert np.allclose(forward(x), inst.matrix.T @ (inst.matrix @ x - inst.rhs), atol=1e-14)


def test_lasso_fbs_pieces_refuse_rho_before_the_gradient(monkeypatch):
    # rho is read before quadratic_gradient builds the forward map, so a refused rho takes no SVD or copy
    monkeypatch.setattr(applications, "quadratic_gradient", lambda *args: pytest.fail("rho was read after the SVD"))
    inst = plant_lasso(n_samples=30, n_features=20, support_size=3, reg=10.0)
    for rho in (-1.0, 0.0, math.inf, 1e308):  # at reg 10, 1e308 makes the threshold rho * reg infinite
        with pytest.raises(ValueError, match=f"^rho must be a finite positive real .*, got {re.escape(repr(rho))}$"):
            lasso_fbs_pieces(inst, rho)


def test_box_intersection_composition_is_the_projection_product():
    lo1, hi1 = np.full(4, -1.0), np.full(4, 0.5)
    lo2, hi2 = np.full(4, -0.2), np.full(4, 1.3)
    proj, displacement = box_intersection_pieces(lo1, hi1, lo2, hi2)
    comp = make_fb_composition(proj, displacement, 1.0)
    assert comp.theta == 2.0 / 3.0
    rng = np.random.default_rng(61)
    for _ in range(20):
        x = rng.uniform(-3, 3, 4)
        p2 = np.clip(x, lo2, hi2)
        # x - rho*(x - p2) reassociates, so allow one ulp of drift
        assert np.allclose(comp(x), np.clip(p2, lo1, hi1), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="^lo2 has dimension 3, expected 4$"):
        box_intersection_pieces(lo1, hi1, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="^box bounds require lo2 <= hi2 componentwise$"):
        box_intersection_pieces(lo1, hi1, hi2, lo2)


def test_box_intersection_solve_lands_in_both_boxes():
    lo1, hi1 = np.full(5, -1.0), np.full(5, 0.5)
    lo2, hi2 = np.full(5, -0.2), np.full(5, 1.3)
    proj, displacement = box_intersection_pieces(lo1, hi1, lo2, hi2)
    rng = np.random.default_rng(62)
    run = solve_fbs(proj, displacement, 1.0, rng.uniform(2, 3, 5), constant_schedule(0.1, 1.0))
    assert run.converged
    assert np.all(run.z >= lo1 - 1e-9) and np.all(run.z <= hi1 + 1e-9)
    assert np.all(run.z >= lo2 - 1e-9) and np.all(run.z <= hi2 + 1e-9)
