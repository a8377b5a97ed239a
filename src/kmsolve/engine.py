"""Core loop for the inexact inertial relaxed fixed-point iteration.

One step, from the pair (z^k, z^{k-1}):

    mu^k    = z^k + alpha_k (z^k - z^{k-1})
    z^{k+1} = mu^k + lambda_k (T mu^k + e^k - mu^k)

The classical relaxed iteration is alpha_k = 0 with zero errors, the
inexact variant keeps the errors, and the inertial variant keeps the
extrapolation.  Each is a call of `iterate`, the one entry point: the
classical one is iterate(problem, constant_schedule(0.0, lam)).

The operator is applied once per step, at the extrapolated point, and the
recorded residual ||T mu^k - mu^k|| is measured there before any error
enters.  Errors come from an ErrorModel, or from a `perturb(mu, k)`
callback that owns the perturbed evaluation and returns the exact T mu^k,
the perturbed output T mu^k + e^k and the error norm to record (the
forward-backward solver folds two error sources into one term this way).

The step vector z^{k+1} - z^k is formed once per step: its norm is
recorded as the step length, and step k+1 reuses it as its inertia term
(the same subtraction on the same operands, so the same bits); step 0
uses z^0 - z^0, exact zeros.  alpha_k and lambda_k enter the array
arithmetic as 0-d float64 arrays, which numpy multiplies faster than
Python floats and to the same IEEE products.  They are rebuilt only when
the schedule returns a different float object: a cache keyed on value
would reuse +0.0 for -0.0 (they compare equal) and flip a signed zero.
On an exact run, T mu is coerced to a float64 ndarray; np.asarray is
called only when it is not one already, since it would return it as is.
An exact run records no error norm in the step: its err_norms are zeros,
filled once when the run ends.

The record keeps each value in 8 bytes.  Residuals, step norms, error
norms and distances go into array("d") buffers, and the RunResult gets
float64 views of them (np.frombuffer, no copy); a block's distances enter
as its bytes, so no Python float is made per state.  alphas and lambdas
stay lists, copied to arrays at the end: a constant schedule returns one
shared float object, so its list already costs 8 bytes per entry, and
appending to a list is cheaper per step than to a buffer.

Nothing in the loop reads the distance ||z^k - z*|| to a known solution,
so the step does not take it.  Every distance, z^0's included, takes one
path: the states, arrays the loop never writes into, are kept until
B = max(1, min(64, 16384 // dim)) have gathered (`emit_error`'s block
rule) or the run ends, and one stacked (1, n) @ (n, 1) matmul gives their
distances.  numpy evaluates each such product with ndarray.dot's routine,
and subtraction and sqrt are correctly rounded, so every distance has the
bits of sqrt(x.dot(x)) (a test pins the matmul to ndarray.dot).  The
operator and a perturb callback must not write into their argument,
which may be z^k itself.

Stopping: residual <= tol wins every tie, then a norm blowup past
`divergence_norm`, then the iteration budget.  A negative tol disables
the residual stop, which pins the horizon exactly; a NaN tol or
divergence_norm is rejected.  The state norm ||z^{k+1}|| is exact whenever
it could set the recorded maximum, meet `divergence_norm` or decide the
residual tie; on other steps a running upper bound shows that it can do
none of these and it is not taken.  A non-finite state is caught through its
norm, which is then inf or NaN (NaN counts as inf), so it always stops
the run as diverged, even on a step whose residual meets tol (a NaN or
infinite lambda_k times a zero T mu - mu does that).  A finite state
whose squares overflow also has norm inf and stops as diverged, unless
its residual meets tol: on a finite state the residual wins the tie.
numpy's overflow and invalid-value warnings are silenced for the run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import OperatorSpec, _integer, _real, _row_norms, as_point, norm
from .schedules import ErrorModel, ParamSchedule, _block_rows, emit_error

PerturbFn = Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray, float]]

# Margins of the running bound on ||z|| in `iterate`, argued there.
_GROW = 1.0 + 1e-12
_SHRINK = 1.0 - 1e-6
_FLOOR = 1e-140


@dataclass(frozen=True)
class Problem:
    """Find z with T z = z, from a given start and optional known solution."""

    operator: OperatorSpec
    z0: np.ndarray
    z_star: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "z0", as_point(self.z0, dim=self.operator.dim, name="z0"))
        if self.z_star is not None:  # measured against z0, which fits an operator of any dimension too
            object.__setattr__(self, "z_star", as_point(self.z_star, dim=self.z0.shape[0], name="z_star"))


@dataclass
class RunResult:
    """Everything recorded during one run.

    Arrays are aligned per iteration k = 0..n-1: `residuals[k]` is
    ||T mu^k - mu^k||, `err_norms[k]` the scheme-level ||e^k||,
    `step_norms[k]` is ||z^{k+1} - z^k||, and `alphas` / `lambdas` the
    realized parameters, all float64.  The residual, step and distance
    arrays, and a perturbed run's error norms, view the loop's array("d")
    buffers without a copy; alphas and lambdas are copied from lists (see
    the module docstring).  `dists` has one extra leading entry: dists[k]
    is ||z^k - z_star|| for k = 0..n, or None when no solution is known;
    `iterate` takes them in blocks, outside the step, with the bits a
    per-step sqrt(x.dot(x)) gives.  `states` likewise holds z^0..z^n
    when recording is on.  `errors` holds the declared error laws: (m,)
    for iterate(errors=m), () for an exact or `perturb` run.
    """

    stop_reason: str
    converged: bool
    iterations: int
    z: np.ndarray
    residuals: np.ndarray
    err_norms: np.ndarray
    alphas: np.ndarray
    lambdas: np.ndarray
    step_norms: np.ndarray
    dists: np.ndarray | None
    states: list[np.ndarray] | None
    max_state_norm: float
    errors: tuple[ErrorModel, ...] = field(repr=False)
    problem: Problem = field(repr=False)
    schedule: ParamSchedule = field(repr=False)

    @property
    def residual(self) -> float:
        return float(self.residuals[-1]) if self.residuals.size else math.nan

    @property
    def dist_to_star(self) -> float:
        if self.dists is None or self.dists.size == 0:
            return math.nan
        return float(self.dists[-1])


def _model_perturb(model: ErrorModel, apply_op, dim: int) -> PerturbFn:
    """Perturbation of `apply_op` from a declared law.

    The closure owns the run's direction cache (see `emit_error`).
    """
    cache: dict = {}

    def p(mu, k):
        t_mu = np.asarray(apply_op(mu), dtype=float)
        if model.norm_at(k) == 0.0:
            return t_mu, t_mu, 0.0
        e = emit_error(model, k, dim, cache)
        return t_mu, t_mu + e, norm(e)

    return p


def _distances(points: list[np.ndarray], z_star: np.ndarray) -> np.ndarray:
    """norm(p - z_star) for each p in `points` as a float64 array, bit for bit (see `_row_norms`).

    The subtraction is in place, so a block allocates one (B, n) array.
    """
    x = np.array(points)
    x -= z_star
    return _row_norms(x)


def _check_options(**opts) -> None:
    """Raise ValueError for an engine option `iterate` refuses; only the keys given are checked."""
    for name in ("tol", "divergence_norm"):
        if name in opts:
            _real(opts[name], name, "be a real number other than NaN", lambda v: not math.isnan(v))
    if "max_iter" in opts:
        _integer(opts["max_iter"], "max_iter", "be a nonnegative integer", lambda n: n >= 0)


@np.errstate(over="ignore", invalid="ignore")
def iterate(
    problem: Problem,
    schedule: ParamSchedule,
    errors: ErrorModel | None = None,
    *,
    perturb: PerturbFn | None = None,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
    divergence_norm: float = 1e12,
    record_states: bool = False,
) -> RunResult:
    """Run the loop until the residual stop, a blowup, or the budget.

    Exactly one error source may be given: an ErrorModel (vectors are
    drawn by `emit_error`) or a `perturb(mu, k)` callback returning
    `(T mu, perturbed output, error norm)`, the vectors shaped like mu and
    not coerced.  With neither, evaluations are exact.  On a perturbed run
    the engine does not evaluate T itself: the recorded residuals, and the
    rate certificate and consistency report built on them, are only as
    good as the T mu the callback returns.
    """
    _check_options(tol=tol, max_iter=max_iter, divergence_norm=divergence_norm)
    if perturb is not None and errors is not None:
        raise ValueError("pass an ErrorModel or a perturb callback, not both")

    apply_op = problem.operator.apply
    # None marks the exact case: the loop then skips the callback.
    perturb_fn = perturb if errors is None else _model_perturb(errors, apply_op, problem.z0.size)
    alpha_of = schedule.alpha_of
    lambda_of = schedule.lambda_of
    z_star = problem.z_star
    sqrt = math.sqrt
    ndarray, f64 = np.ndarray, np.dtype(float)

    z = problem.z0
    dz = z - z  # z^0 - z^{-1} with z^{-1} = z^0: exact zeros, z0 being finite
    residuals, err_norms, steps = array("d"), array("d"), array("d")
    alphas: list[float] = []
    lambdas: list[float] = []
    dists = None if z_star is None else array("d")
    pending: list[np.ndarray] = [] if z_star is None else [z]  # states whose distance is not yet in dists
    rows = _block_rows(z.size)
    states = [z.copy()] if record_states else None
    max_norm = norm(z)
    # `reach` bounds ||z^k|| from above: the last exact norm plus the step
    # norms since.  A step whose reach is below `limit` and whose residual
    # misses tol skips the exact norm, which could then change nothing.
    # Why (Higham, Accuracy and Stability, 2nd ed., 3.1 and 4.2), with
    # u = 2**-53 and n = dim: a computed sqrt(x.x) is within a factor
    # 1 +- (n/2 + 1)u of ||x||, plus sqrt(n) 2e-162 from underflowed
    # squares, and forming dz costs one more u.  Each update of reach rounds
    # twice, which _GROW > (1 - u)**-2 absorbs, and _FLOOR * 1e-12 covers
    # the underflow term; so ||z^k|| <= (1 + (n/2 + 4)u) reach after any
    # number of steps.  The norm the step skips would be at most
    # (1 + (n + 6)u) reach < min(max_norm, divergence_norm): it sets no
    # maximum and stops nothing while (n + 6)u < 1e-6, n up to about 9e9.
    # A NaN or inf reach fails `reach < limit`, as does any reach when the
    # limit is 0 or negative, so those steps take the norm.
    reach = max_norm + _FLOOR
    limit = min(max_norm, divergence_norm) * _SHRINK
    grow = _GROW
    stop_reason = "max-iter"
    add_residual = residuals.append
    add_err = err_norms.append
    add_pending = pending.append
    add_alpha = alphas.append
    add_lambda = lambdas.append
    add_step = steps.append
    # 0-d float64 copies of the step scalars, rebuilt only when the schedule
    # hands back a different float object (an `is not` key: -0.0 == 0.0)
    a_key = lam_key = a_arr = lam_arr = None

    for k in range(max_iter):
        a = float(alpha_of(k))
        lam = float(lambda_of(k))
        if a == 0.0:
            mu = z
        else:
            if a is not a_key:
                a_key, a_arr = a, np.array(a)
            mu = z + a_arr * dz
        if lam is not lam_key:
            lam_key, lam_arr = lam, np.array(lam)
        if perturb_fn is None:
            t_mu = apply_op(mu)
            # np.asarray would return a float64 ndarray as it is: skip its call
            if t_mu.__class__ is not ndarray or t_mu.dtype is not f64:
                t_mu = np.asarray(t_mu, dtype=float)
            t_eff = t_mu
        else:
            t_mu, t_eff, e_norm = perturb_fn(mu, k)
            add_err(float(e_norm))
        d = t_mu - mu
        r = sqrt(d.dot(d))
        # an exact step's update direction is d itself
        z_next = mu + lam_arr * (d if t_eff is t_mu else t_eff - mu)
        dz = z_next - z  # ||dz|| is step_norms[k]; dz is the next step's inertia term

        add_residual(r)
        add_alpha(a)
        add_lambda(lam)
        s = sqrt(dz.dot(dz))
        add_step(s)
        if dists is not None:
            add_pending(z_next)
            if len(pending) == rows:
                dists.frombytes(_distances(pending, z_star).tobytes())
                pending.clear()
        if states is not None:
            states.append(z_next.copy())

        z = z_next
        reach = reach * grow + s
        if reach < limit and r > tol:
            continue
        zn = sqrt(z.dot(z))
        if zn != zn:
            zn = math.inf
        if zn > max_norm:
            max_norm = zn
        if r <= tol:
            # norm inf: a non-finite state, or finite entries whose squares overflow
            stop_reason = "residual-tol" if zn < math.inf or np.isfinite(z).all() else "diverged"
            break
        if zn >= divergence_norm:
            stop_reason = "diverged"
            break
        reach = zn + _FLOOR
        limit = min(max_norm, divergence_norm) * _SHRINK

    if pending:
        dists.frombytes(_distances(pending, z_star).tobytes())
    return RunResult(
        stop_reason=stop_reason,
        converged=stop_reason == "residual-tol",
        iterations=len(residuals),
        z=z,
        residuals=np.frombuffer(residuals),
        err_norms=np.zeros(len(residuals)) if perturb_fn is None else np.frombuffer(err_norms),
        alphas=np.asarray(alphas),
        lambdas=np.asarray(lambdas),
        step_norms=np.frombuffer(steps),
        dists=None if dists is None else np.frombuffer(dists),
        states=states,
        max_state_norm=float(max_norm),
        errors=() if errors is None else (errors,),
        problem=problem,
        schedule=schedule,
    )

