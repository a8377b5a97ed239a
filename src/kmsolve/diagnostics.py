"""Post-run certificates and hypothesis monitors.

Three layers, all computed from recorded run quantities:

* a per-iteration residual rate certificate, when a known solution and a
  feasible schedule make it meaningful;
* a distance quasi-monotonicity check for zero-inertia runs, where each
  step may increase the distance to a fixed point by at most
  lambda_k ||e^k||;
* a consistency report for the hypotheses that validation deferred to
  runtime (summable weighted errors, summable inertia-weighted squared
  steps, bounded iterates).

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

The certificate runs validate_schedule's checks on the alpha_k, lambda_k
the run recorded, so it covers exactly the steps that ran.  The ceiling
entering 1 / (1 - ceiling) is the scheme-level relaxation bound: the
declared lambda_ceiling for regime I, the closed-form maximum for regime
II.  Both are below 1 once the checks pass, so a run justified only
through the averaged rescaling (effective ceiling 1/theta > 1) gets no
certificate even though it may well converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import RunResult
from .schedules import _check_sequences


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


def _min_residual_sq(residuals: np.ndarray) -> np.ndarray:
    """min_{1 <= i <= k} r_i^2 for k = 1..len - 1: the best squared residual so far."""
    return np.minimum.accumulate(residuals[1:] ** 2)


def rate_certificate(result: RunResult) -> RateCertificate:
    """Residual rate certificate for a finished run, or the reason there is none.

    The schedule is checked on the run's recorded alpha_k, lambda_k, and a
    refusal names the failed check.  Passing puts the relaxation ceiling,
    reported as `ceiling`, below 1.
    """
    s = result.schedule
    n = result.iterations
    if n < 2:
        return RateCertificate(False, "needs at least two iterations")
    report = _check_sequences(s, result.alphas, result.lambdas, 1.0)
    if not report.feasible:
        reason = "schedule infeasible under its declared regime: " + "; ".join(report.violations)
        return RateCertificate(False, reason)
    if not s.lambda_floor > 0.0:
        return RateCertificate(False, "needs a positive relaxation floor")
    if result.dists is None:
        return RateCertificate(False, "needs a known solution")

    # at theta = 1 the report's lambda_max is the closed-form regime-II ceiling
    ceiling = report.lambda_max if s.condition_set == "II" else s.lambda_ceiling
    d = result.dists
    lam = result.lambdas
    err = result.err_norms
    al = result.alphas
    st = result.step_norms
    kk = np.arange(1, n)

    psi = d * d
    inc = np.maximum(psi[1:n] - psi[: n - 1], 0.0)
    drift = s.alpha_cap * np.cumsum(inc)
    err_term = np.cumsum(2.0 * d[2 : n + 1] * lam[1:n] * err[1:n])
    step_term = np.cumsum(al[1:n] * (1.0 + al[1:n]) * st[0 : n - 1] ** 2)
    delta = drift + err_term + step_term

    dist1 = float(d[1])
    rhs_squared = (dist1 * dist1 + delta) / (kk * s.lambda_floor * (1.0 - ceiling))

    return RateCertificate(
        valid=True,
        reason="",
        ceiling=ceiling,
        lambda_floor=s.lambda_floor,
        dist1=dist1,
        ks=kk,
        min_residual_sq=_min_residual_sq(result.residuals),
        delta=delta,
        rhs_squared=rhs_squared,
    )


def quasi_fejer_violations(result: RunResult, tol: float = 1e-10) -> np.ndarray:
    """Steps k where ||z^{k+1} - z*|| exceeds ||z^k - z*|| + lambda_k ||e^k|| + tol.

    Meaningful for zero-inertia runs only; extrapolated runs are refused
    because the inequality is not theirs to satisfy.
    """
    if result.dists is None:
        raise ValueError("needs a known solution to measure distances")
    if result.alphas.size and float(np.max(result.alphas)) != 0.0:
        raise ValueError("distance quasi-monotonicity applies to zero-inertia runs")
    d = result.dists
    allowed = d[:-1] + result.lambdas * result.err_norms + tol
    return np.flatnonzero(d[1:] > allowed)


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
    def consistent(self) -> bool:
        return all(i.verdict == "consistent" for i in self.items)

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else "not-consistent"

    def item(self, name: str) -> ConsistencyItem:
        for i in self.items:
            if i.name == name:
                return i
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "items": [
                {"name": i.name, "value": i.value, "verdict": i.verdict, "detail": i.detail}
                for i in self.items
            ],
        }


def _tail_verdict(partial: np.ndarray) -> tuple[str, str]:
    """Crude convergence heuristic on a partial-sum curve.

    Compares the mass added over the last half against the preceding
    quarter; a divergent-log curve adds about the same over both, a
    convergent one markedly less.  Conservative: slowly convergent series
    can be flagged.  Used only when no declared law is available.  A
    non-finite total is flagged; under 8 steps the tail is not judged.
    """
    n = partial.size
    total = float(partial[-1]) if n else 0.0
    if not math.isfinite(total):
        return "not-consistent", "non-finite total"
    if total <= 1e-12:
        return "consistent", "negligible total"
    if n < 8:
        return "consistent", f"too few steps ({n}) to judge the tail"
    i1 = float(partial[-1] - partial[n // 2 - 1])
    i2 = float(partial[n // 2 - 1] - partial[n // 4 - 1])
    if i1 <= max(1e-12, 1e-9 * total):
        return "consistent", "tail increment negligible"
    if i1 >= 0.8 * i2:
        return "not-consistent", f"tail not flattening (last-half gain {i1:.3g} vs prior {i2:.3g})"
    return "consistent", "tail flattening"


@np.errstate(over="ignore", invalid="ignore")
def consistency_report(result: RunResult) -> ConsistencyReport:
    """Verdicts for the hypotheses deferred to runtime.

    The weighted-error item trusts the declared error law when the run
    carried one; otherwise, and always for the inertia term, a tail
    heuristic on the partial sums decides.  Verdicts describe hypothesis
    consistency, not convergence of the run itself.  A sum that meets an
    infinite parameter (inf * 0 is NaN) has a non-finite total, which is
    flagged, without a numpy warning.
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

    # without inertia the sum is 0 by definition; summing would meet 0 * inf on a diverged run
    if np.any(result.alphas != 0.0):
        s1 = np.cumsum(result.alphas * result.step_norms**2)
        value1 = float(s1[-1])
        v1, d1 = _tail_verdict(s1)
    else:
        value1, v1, d1 = 0.0, "consistent", "no inertia"
    items.append(
        ConsistencyItem(
            name="inertia-weighted-step-sum",
            value=value1,
            verdict=v1,
            detail=d1,
        )
    )

    s2 = np.cumsum(result.lambdas * result.err_norms)
    if result.errors is not None:
        summ = result.errors.summability
        v2 = "consistent" if summ == "summable" else "not-consistent"
        d2 = f"declared error law is {summ}"
    elif s2.size == 0 or float(s2[-1]) == 0.0:
        v2, d2 = "consistent", "no errors recorded"
    else:
        v2, d2 = _tail_verdict(s2)
    items.append(
        ConsistencyItem(
            name="weighted-error-sum",
            value=float(s2[-1]) if s2.size else 0.0,
            verdict=v2,
            detail=d2,
        )
    )
    return ConsistencyReport(items=tuple(items))
