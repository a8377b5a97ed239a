"""Solvers built on the core loop, and planted instances to exercise them.

solve_ppa drives a resolvent (proximal point); solve_fbs drives the
forward-backward composition x -> J(x - rho B x).  Both accept the same
schedules, error models, and engine options as `iterate`.

Forward-backward perturbations: an error e1 inside the forward step and
an error e2 on the resolvent output fold into one scheme-level term

    e-bar^k = J(mu - rho (B mu + e1)) + e2 - J(mu - rho B mu)

whose norm is recorded as err_norm and obeys
||e-bar|| <= rho ||e1|| + ||e2|| by nonexpansiveness of the resolvent.
Every step evaluates B mu and T mu once, so exact and resolvent-only
steps cost one forward and one resolvent evaluation; a forward error adds
a second resolvent evaluation.  Each channel keeps its own cache of
scaled error blocks for the run (see `emit_error`).  Give the two
channels different seeds; equal seeds draw identical directions at each k.

plant_lasso builds an l1-regularized least-squares instance whose exact
solution is known by construction, for end-to-end solver checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import Problem, RunResult, iterate
from .operators import (
    IsmOperator,
    OperatorSpec,
    _const,
    _fb_value,
    _integer,
    _real,
    as_point,
    make_box_projection,
    make_fb_composition,
    make_soft_threshold,
    norm,
    quadratic_gradient,
)
from .schedules import ErrorModel, ParamSchedule, emit_error


def solve_ppa(
    resolvent: OperatorSpec,
    z0,
    schedule: ParamSchedule,
    errors: ErrorModel | None = None,
    *,
    z_star=None,
    route: str = "direct",
    **engine_options,
) -> RunResult:
    """Proximal point iteration on a firmly nonexpansive resolvent.

    The resolvent is at most 1/2-averaged, so relaxations up to 1/theta
    are admissible (`validate_schedule(schedule, theta=resolvent.theta)`).
    `route` is inert: "direct" and "unwrap" run the same iteration, and
    any other value is refused.  It stays only because the benchmark's
    small-exact workload passes route="unwrap"; it goes in the benchmark
    change that edits that call.
    """
    if route not in ("direct", "unwrap"):
        raise ValueError(f"unknown route {route!r}")
    if resolvent.theta > 0.5:
        raise ValueError("proximal point needs a firmly nonexpansive resolvent (theta <= 1/2)")
    prob = Problem(operator=resolvent, z0=z0, z_star=z_star)
    return iterate(prob, schedule, errors, **engine_options)


def solve_fbs(
    resolvent: OperatorSpec,
    forward: IsmOperator,
    rho: float,
    z0,
    schedule: ParamSchedule,
    *,
    forward_errors: ErrorModel | None = None,
    resolvent_errors: ErrorModel | None = None,
    z_star=None,
    **engine_options,
) -> RunResult:
    """Relaxed inertial forward-backward splitting.

    A channel left at None adds no error.  With neither channel the run
    is exact, and with zero inertia too it is exactly the classical
    iteration z <- z + lambda (J(z - rho B z) - z).  The run's `errors`
    are the error channels given.
    """
    fe, re = forward_errors, resolvent_errors
    prob = Problem(operator=make_fb_composition(resolvent, forward, rho), z0=z0, z_star=z_star)
    if fe is None and re is None:
        return iterate(prob, schedule, **engine_options)

    dim = prob.z0.size
    j = resolvent.apply
    fwd = forward.apply
    r = _const(rho)
    fe_cache: dict = {}
    re_cache: dict = {}

    def perturb(mu, k):
        # _fb_value is the composition's own step, so t_mu is T mu bit for bit
        b_mu = fwd(mu)
        t_mu = t_pert = _fb_value(j, r, mu, b_mu)
        if fe is not None and fe.norm_at(k) != 0.0:
            t_pert = _fb_value(j, r, mu, b_mu + emit_error(fe, k, dim, fe_cache))
        if re is not None and re.norm_at(k) != 0.0:
            t_pert = t_pert + emit_error(re, k, dim, re_cache)
        return t_mu, t_pert, 0.0 if t_pert is t_mu else norm(t_pert - t_mu)

    given = tuple(m for m in (fe, re) if m is not None)
    return replace(iterate(prob, schedule, perturb=perturb, **engine_options), errors=given)


@dataclass(frozen=True)
class LassoInstance:
    """min 0.5 ||matrix x - rhs||^2 + reg ||x||_1 with a planted exact solution."""

    matrix: np.ndarray
    rhs: np.ndarray
    reg: float
    x_star: np.ndarray
    dual: np.ndarray
    support: np.ndarray


def plant_lasso(
    n_samples: int = 300,
    n_features: int = 200,
    support_size: int = 20,
    reg: float = 0.5,
    seed: int = 0,
) -> LassoInstance:
    """Least-squares + l1 instance whose minimizer is known exactly.

    Draws a Gaussian design (full column rank needs n_samples >=
    n_features), a sparse x_star, and a subgradient v with v = sign(x_star)
    on the support and |v| <= 0.4 off it, then sets
    rhs = matrix @ x_star + reg * w with matrix^T w = v.  The optimality
    inclusion holds with equality and the strictly convex objective makes
    x_star unique.  A reg whose rhs overflows is refused by name.
    """
    n_features = _integer(n_features, "n_features")
    n_samples = _integer(n_samples, "n_samples", "be an integer >= n_features", lambda n: n >= n_features)
    support_size = _integer(support_size, "support_size", "be an integer in 1..n_features", lambda s: 0 < s <= n_features)
    seed = _integer(seed, "seed", "be a nonnegative integer", lambda s: s >= 0)
    reg = _real(reg, "reg", "be a finite positive real", lambda r: 0.0 < r < math.inf)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n_samples, n_features)) / math.sqrt(n_samples)
    support = np.sort(rng.choice(n_features, size=support_size, replace=False))
    x_star = np.zeros(n_features)
    x_star[support] = rng.uniform(0.5, 1.5, size=support_size) * rng.choice(
        [-1.0, 1.0], size=support_size
    )
    dual = rng.uniform(-0.4, 0.4, size=n_features)
    dual[support] = np.sign(x_star[support])
    w = m @ np.linalg.solve(m.T @ m, dual)
    with np.errstate(over="ignore"):
        rhs = m @ x_star + reg * w
    if not np.isfinite(rhs).all():
        raise ValueError(f"reg must keep the planted rhs finite, got {reg!r}")
    return LassoInstance(matrix=m, rhs=rhs, reg=reg, x_star=x_star, dual=dual, support=support)


def lasso_kkt_gap(inst: LassoInstance) -> float:
    """Worst violation of the optimality inclusion at the planted solution.

    Returns max over coordinates of |residual correlation - sign| on the
    support and of the excess of |correlation| over 1 off it; exact
    planting gives a value at rounding level.
    """
    corr = inst.matrix.T @ (inst.rhs - inst.matrix @ inst.x_star) / inst.reg
    on = np.abs(corr[inst.support] - np.sign(inst.x_star[inst.support]))
    mask = np.ones(corr.shape[0], dtype=bool)
    mask[inst.support] = False
    off = np.maximum(np.abs(corr[mask]) - 1.0, 0.0)
    worst_on = float(on.max()) if on.size else 0.0
    worst_off = float(off.max()) if off.size else 0.0
    return max(worst_on, worst_off)


def lasso_fbs_pieces(inst: LassoInstance, rho: float) -> tuple[OperatorSpec, IsmOperator]:
    """Resolvent and forward map for running the instance through solve_fbs.

    The forward map is the least-squares gradient with its certified
    cocoercivity modulus; the resolvent is the soft threshold at rho * reg,
    so a rho is refused, before any SVD, unless it and rho * reg are
    finite and positive.  When rho was just taken from
    quadratic_gradient(inst.matrix, inst.rhs).beta, the forward map shares
    that call's SVD and its copy of m^T (quadratic_gradient's memo).
    """
    rule = f"be a finite positive real whose product with reg = {inst.reg!r} is one too"
    rho = _real(rho, "rho", rule, lambda r: 0.0 < r < math.inf and 0.0 < r * inst.reg < math.inf)
    forward = quadratic_gradient(inst.matrix, inst.rhs)
    resolvent = make_soft_threshold(rho * inst.reg, inst.matrix.shape[1])
    return resolvent, forward


def box_intersection_pieces(lo1, hi1, lo2, hi2) -> tuple[OperatorSpec, IsmOperator]:
    """Find a point in the intersection of two boxes as a splitting problem.

    The first box enters through its projection (the resolvent); the
    second through the 1-cocoercive displacement map x - P2 x.  With
    rho = 1 the composition is P1 after P2, averaged with theta = 2/3.
    A refusal names the bound, lo1 to hi2, that it refuses.
    """
    lo1 = as_point(lo1, name="lo1")
    hi1, lo2, hi2 = (as_point(x, dim=lo1.shape[0], name=n) for x, n in ((hi1, "hi1"), (lo2, "lo2"), (hi2, "hi2")))
    for n, lo, hi in (("1", lo1, hi1), ("2", lo2, hi2)):
        if not (lo <= hi).all():
            raise ValueError(f"box bounds require lo{n} <= hi{n} componentwise")
    p1, p2 = make_box_projection(lo1, hi1), make_box_projection(lo2, hi2)
    p2_apply = p2.apply
    forward = IsmOperator(apply=lambda x: x - p2_apply(x), beta=1.0)
    return p1, forward
