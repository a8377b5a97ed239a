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
a second resolvent evaluation.  Each channel keeps its own block cache
for the run (see `emit_error`).  Give the two channels different seeds;
equal seeds draw identical directions at each k.

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

    With zero inertia and zero errors this is exactly the classical
    iteration z <- z + lambda (J(z - rho B z) - z).  The run's `errors`
    are the error channels given.
    """
    fe = forward_errors if forward_errors is not None else ErrorModel.zero()
    re = resolvent_errors if resolvent_errors is not None else ErrorModel.zero()
    given = tuple(m for m in (forward_errors, resolvent_errors) if m is not None)
    prob = Problem(operator=make_fb_composition(resolvent, forward, rho), z0=z0, z_star=z_star)
    if fe.kind == "zero" and re.kind == "zero":
        return replace(iterate(prob, schedule, None, **engine_options), errors=given)

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
        if fe.norm_at(k) != 0.0:
            t_pert = _fb_value(j, r, mu, b_mu + emit_error(fe, k, dim, fe_cache))
        if re.norm_at(k) != 0.0:
            t_pert = t_pert + emit_error(re, k, dim, re_cache)
        return t_mu, t_pert, 0.0 if t_pert is t_mu else norm(t_pert - t_mu)

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
    seed: int


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
    x_star unique.
    """
    n_samples, n_features = _integer(n_samples, "n_samples"), _integer(n_features, "n_features")
    support_size = _integer(support_size, "support_size", "lie in 1..n_features", lambda s: 0 < s <= n_features)
    seed = _integer(seed, "seed", "be a nonnegative integer", lambda s: s >= 0)
    reg = _real(reg, "reg", "be positive", lambda r: r > 0.0)
    if n_samples < n_features:
        raise ValueError("planting needs n_samples >= n_features for a full-rank design")
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
    rhs = m @ x_star + reg * w
    return LassoInstance(
        matrix=m,
        rhs=rhs,
        reg=reg,
        x_star=x_star,
        dual=dual,
        support=support,
        seed=seed,
    )


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
    cocoercivity modulus; the resolvent is the soft threshold at rho * reg.
    When rho was just taken from quadratic_gradient(inst.matrix,
    inst.rhs).beta, the forward map reuses that SVD (spectral_norm's memo).
    """
    forward = quadratic_gradient(inst.matrix, inst.rhs)
    resolvent = make_soft_threshold(_real(rho, "rho") * inst.reg, inst.matrix.shape[1])
    return resolvent, forward


def box_intersection_pieces(lo1, hi1, lo2, hi2) -> tuple[OperatorSpec, IsmOperator]:
    """Find a point in the intersection of two boxes as a splitting problem.

    The first box enters through its projection (the resolvent); the
    second through the 1-cocoercive displacement map x - P2 x.  With
    rho = 1 the composition is P1 after P2, averaged with theta = 2/3.
    """
    p1 = make_box_projection(lo1, hi1)
    p2 = make_box_projection(lo2, hi2)
    if p1.dim != p2.dim:
        raise ValueError(f"box dimensions differ: {p1.dim} vs {p2.dim}")
    p2_apply = p2.apply
    forward = IsmOperator(apply=lambda x: x - p2_apply(x), beta=1.0)
    return p1, forward
