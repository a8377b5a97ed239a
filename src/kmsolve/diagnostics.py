"""Post-run certificates and hypothesis monitors.

Three layers, all computed from recorded run quantities:

* a per-iteration residual rate certificate, when a known solution and
  the recorded parameters make it meaningful;
* a distance quasi-monotonicity check for zero-inertia runs, where each
  step may increase the distance to a fixed point by at most
  lambda_k ||e^k||, plus a rounding slack set by the run's own scale,
  32 eps (||z*|| + ||z^k - z*|| + lambda_k ||e^k||);
* a consistency report for the hypotheses that validation deferred to
  runtime (summable weighted errors, summable inertia-weighted squared
  steps, bounded iterates), unjudged where no finite run settles a sum.

The certificate bounds the best residual seen so far:

    min_{1 <= i <= k} ||T mu^i - mu^i||^2
        <= (dist_1^2 + Delta_k) / (k * lambda_floor * (1 - ceiling))

with dist_1 = ||z^1 - z_star|| and

    Delta_k = alpha_cap * sum_i [psi_i - psi_{i-1}]_+
            + sum_i 2 ||z^{i+1} - z_star|| lambda_i ||e^i||
            + sum_i alpha_i (1 + alpha_i) ||z^i - z^{i-1}||^2

where psi_i = ||z^i - z_star||^2 and sums run over i = 1..k.  In the
exact zero-inertia case Delta_k = 0 and this is the standard KM estimate
sum_k lambda_k (1 - lambda_k) ||T z^k - z^k||^2 <= ||z^1 - z_star||^2
(Bauschke and Combettes, Convex Analysis and Monotone Operator Theory,
ch. 5); Delta_k carries the inertia and error terms.  The paper's printed
form, with dist_1 in place of dist_1^2, is not used: it is not a bound
once dist_1 > 1.  T z = -0.9 z from (100, 0) with alpha 0 and lambda 1/2
is feasible and converges, yet at k = 1 its best squared residual is
90.25 against a printed right-hand side of 20 (squared: 100).

The certificate reads only the run, not its declared schedule: the
one-step inequality it sums (the inertial identity of Alvarez and
Attouch, Set-Valued Anal. 9, 2001, on the KM estimate) needs only
alpha_k >= 0 and 0 < lambda_k < 1 on the steps k = 1..n - 1 it covers.
Over those steps lambda_floor = min lambda_k, ceiling = max lambda_k and
alpha_cap = max alpha_k, since lambda_i (1 - lambda_i) >= lambda_floor
(1 - ceiling) and sum_i alpha_i phi_i <= alpha_cap sum_i [phi_i]_+.  A
run with some lambda_k >= 1, as the averaged rescaling allows, gets no
certificate even though it may well converge.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .engine import RunResult
from .operators import norm


@dataclass(frozen=True)
class RateCertificate:
    """Arrays indexed by k = ks[j]; a refusal, RateCertificate(False, reason), has NaNs and empty arrays."""

    valid: bool
    reason: str
    ceiling: float = math.nan
    lambda_floor: float = math.nan
    dist1: float = math.nan
    ks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    min_residual_sq: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta: np.ndarray = field(default_factory=lambda: np.empty(0))
    rhs_squared: np.ndarray = field(default_factory=lambda: np.empty(0))

    def holds(self) -> bool:
        return self.valid and bool(np.all(self.min_residual_sq <= self.rhs_squared))

    def to_dict(self) -> dict:
        out = {"valid": self.valid, "reason": self.reason}
        if self.valid:
            out.update(
                ceiling=self.ceiling,
                lambda_floor=self.lambda_floor,
                dist1=self.dist1,
                holds_squared=self.holds(),
                final_min_residual_sq=self.min_residual_sq[-1],
                final_rhs_squared=self.rhs_squared[-1],
            )
        return out


def _min_residual_sq(residuals: np.ndarray) -> np.ndarray:
    """min_{1 <= i <= k} r_i^2 for k = 1..len - 1: the best squared residual so far."""
    return np.minimum.accumulate(residuals[1:] ** 2)


@np.errstate(over="ignore", invalid="ignore")
def rate_certificate(result: RunResult) -> RateCertificate:
    """Residual rate certificate for a finished run, or the reason there is none.

    Floor, ceiling and drift weight are the extremes of the recorded lambda_k and alpha_k of steps 1..n - 1.
    A right-hand side that overflows or meets inf * 0, as a diverged run's may, bounds nothing and is refused.
    """
    n = result.iterations
    if n < 2:
        return RateCertificate(False, "needs at least two iterations")
    lam = result.lambdas[1:n]
    al = result.alphas[1:n]
    floor, ceiling, cap = float(lam.min()), float(lam.max()), float(al.max())
    steps = f"on steps 1..{n - 1}"
    if not (floor > 0.0 and ceiling < 1.0):  # a NaN fails here
        return RateCertificate(False, f"needs 0 < lambda_k < 1 {steps} (min {floor:.12g}, max {ceiling:.12g})")
    if not al.min() >= 0.0:
        return RateCertificate(False, f"needs alpha_k >= 0 {steps} (min {al.min():.12g}, max {cap:.12g})")
    if result.dists is None:
        return RateCertificate(False, "needs a known solution")

    d = result.dists
    kk = np.arange(1, n)

    psi = d * d
    drift = cap * np.cumsum(np.maximum(psi[1:n] - psi[: n - 1], 0.0))
    err_term = np.cumsum(2.0 * d[2 : n + 1] * lam * result.err_norms[1:n])
    step_term = np.cumsum(al * (1.0 + al) * result.step_norms[0 : n - 1] ** 2)
    delta = drift + err_term + step_term

    dist1 = float(d[1])
    rhs_squared = (dist1 * dist1 + delta) / (kk * floor * (1.0 - ceiling))
    unbounded = kk[~np.isfinite(rhs_squared)]
    if unbounded.size:
        reason = f"needs a finite right-hand side {steps} (first non-finite at k = {unbounded[0]})"
        return RateCertificate(False, reason)

    return RateCertificate(
        valid=True,
        reason="",
        ceiling=ceiling,
        lambda_floor=floor,
        dist1=dist1,
        ks=kk,
        min_residual_sq=_min_residual_sq(result.residuals),
        delta=delta,
        rhs_squared=rhs_squared,
    )


def quasi_fejer_violations(result: RunResult) -> np.ndarray:
    """Steps k where d_{k+1} exceeds b_k = d_k + lambda_k ||e^k|| by more than 32 eps (||z*|| + b_k).

    d_k = ||z^k - z*|| is dists[k] and eps is float64's machine epsilon.
    Meaningful for zero-inertia runs only: a run with any alpha_k != 0 is
    refused, because the inequality is not its to satisfy.

    The slack is step k's rounding, scaled from the run.  At alpha_k = 0,
    z^{k+1} = z^k + lambda_k (T z^k + e^k - z^k).  With T theta-averaged,
    T z* = z* and lambda_k theta <= 1, every vector formed on the way to
    z^{k+1}, times lambda_k where the step scales it, has norm at most
    2 (||z*|| + b_k), since ||T z - z|| <= 2 theta ||z - z*||.  Each
    rounds by at most a relative eps / 2 per entry, so z^{k+1} lands
    within a few eps (||z*|| + b_k) of its exact value, and d_{k+1} and
    b_k round once more at their own size.  A norm of a dim-vector rounds
    by up to a relative (dim / 2 + 1) eps / 2 in the worst case (Higham,
    Accuracy and Stability, 2nd ed., 3.1), but independent roundings grow
    as sqrt(dim) (Higham and Mary, SIAM J. Sci. Comput. 41, 2019).  The
    margin in 32 covers that and T's own evaluation rounding: on 2700
    honest runs with dim 1 to 200 and scales from 1e-12 to 1e8, and on
    affine runs at dim 2000, no step needed more than 1.4 eps (||z*|| +
    b_k).  The scale holds lambda_k ||e^k|| because an inexact run that
    starts at z* = 0 has no other: there d_1 and b_0 are two roundings of
    one length and may differ by an ulp.  A T less accurate than this is
    an inexact evaluation, whose error belongs in e^k (an ErrorModel or a
    perturb callback), not in a wider slack.
    """
    if result.dists is None:
        raise ValueError("needs a known solution to measure distances")
    if np.any(result.alphas != 0.0):
        raise ValueError("distance quasi-monotonicity applies to zero-inertia runs")
    d = result.dists
    bound = d[:-1] + result.lambdas * result.err_norms
    slack = 32.0 * np.finfo(float).eps * (norm(result.problem.z_star) + bound)
    return np.flatnonzero(d[1:] > bound + slack)


@dataclass(frozen=True)
class ConsistencyItem:
    name: str
    value: float
    verdict: str
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    items: tuple[ConsistencyItem, ...]

    @property
    def verdict(self) -> str:
        """not-consistent if any item is, consistent if all are, else unjudged."""
        verdicts = {i.verdict for i in self.items}
        for v in ("not-consistent", "unjudged"):
            if v in verdicts:
                return v
        return "consistent"

    def item(self, name: str) -> ConsistencyItem:
        for i in self.items:
            if i.name == name:
                return i
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "items": [asdict(i) for i in self.items]}


def _series_item(name: str, total: float, why: str) -> ConsistencyItem:
    """A deferred series at its partial sum: not-consistent if that is non-finite, else unjudged for `why`."""
    if math.isfinite(total):
        return ConsistencyItem(name, total, "unjudged", why)
    return ConsistencyItem(name, total, "not-consistent", "non-finite total")


@np.errstate(over="ignore", invalid="ignore")
def consistency_report(result: RunResult) -> ConsistencyReport:
    """Verdicts for the hypotheses deferred to runtime, from what the run shows.

    The weighted-error item, sum_k lambda_k ||e^k||, is judged by the
    declared error laws, whose summability is that of ||e^k|| itself.  It
    stands in for regime II's sum_k ||e^k||: with lambda_k bounded away
    from 0 and from above, as regime II demands, the two series converge
    together.  The inertia item is consistent without inertia.  Otherwise
    a sum reports its partial sum: not-consistent if that is non-finite
    (an overflow, or inf * 0, without a numpy warning), else unjudged,
    because no finite run proves or refutes a series.  Verdicts describe
    the hypotheses, not the run's convergence.
    """
    items = []

    bounded_ok = result.stop_reason != "diverged" and math.isfinite(result.max_state_norm)
    items.append(
        ConsistencyItem(
            name="bounded-iterates",
            value=result.max_state_norm,
            verdict="consistent" if bounded_ok else "not-consistent",
            detail="largest state norm seen",
        )
    )

    # totals are the last left-to-right partial sums: np.sum adds pairwise and may round differently
    # without inertia the sum is 0 by definition; summing would meet 0 * inf on a diverged run
    if np.any(result.alphas != 0.0):
        s1 = float(np.cumsum(result.alphas * result.step_norms**2)[-1])
        items.append(_series_item("inertia-weighted-step-sum", s1, "no finite run settles the series"))
    else:
        items.append(ConsistencyItem("inertia-weighted-step-sum", 0.0, "consistent", "no inertia"))

    s2 = float(np.cumsum(result.lambdas * result.err_norms)[-1]) if result.iterations else 0.0
    if result.errors:
        laws = [m.summability for m in result.errors]
        v2 = "consistent" if all(summ == "summable" for summ in laws) else "not-consistent"
        d2 = f"declared error law is {laws[0]}" if len(laws) == 1 else f"declared error laws are {', '.join(laws)}"
        items.append(ConsistencyItem("weighted-error-sum", s2, v2, d2))
    elif not result.err_norms.any():  # a recorded NaN is truthy: it counts as an error
        items.append(ConsistencyItem("weighted-error-sum", 0.0, "consistent", "no errors recorded"))
    else:
        why = "no declared error law, and no finite run settles the series"
        items.append(_series_item("weighted-error-sum", s2, why))
    return ConsistencyReport(items=tuple(items))
