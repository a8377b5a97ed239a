"""Parameter schedules, perturbation models, and the feasibility validator.

validate_schedule checks a schedule under the regime it declares, tagged
"I" (no sigma, delta) or "II" (sigma and delta given), on alpha_k and
lambda_k sampled over k = 0..horizon; horizon=run.iterations - 1 checks
the steps a finished run took.

Regime I checks the pointwise bounds 0 <= alpha_k <= alpha_cap < 1 and
0 <= lambda_floor <= lambda_k <= lambda_ceiling < 1.  Its remaining
hypotheses (summability of the inertia-weighted squared steps, summability
of the weighted error norms, bounded iterates) depend on the realized run
and are recorded as deferred-to-runtime; the diagnostics module monitors
them.

Regime II requires inertia that starts at zero and never decreases, a
positive relaxation floor, and scalars sigma, delta > 0 satisfying

    delta > alpha [alpha (1 + alpha) + sigma] / (1 - alpha^2)

which yields the explicit relaxation ceiling

    lambda_max = (delta - alpha [alpha (1 + alpha) + alpha delta + sigma])
                 / (delta [1 + alpha (1 + alpha) + alpha delta + sigma]).

constant_schedule builds a schedule of either regime, with alpha as cap
and lambda as floor and ceiling; with sigma and delta alpha_0 is 0.

Averaged operators admit larger relaxation: for a theta-averaged operator,
validate_schedule(s, theta=theta) multiplies the relaxation ceiling bound
(1 in regime I, lambda_max in regime II) by 1/theta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .operators import _integer, _real

ERROR_KINDS = ("zero", "power-decay", "geometric", "custom-list")


@dataclass(frozen=True)
class ParamSchedule:
    """Inertia and relaxation sequences with their declared bounds.

    A hand-built schedule declares its bounds over all k, not only the k a
    validator samples.  sigma and delta are only meaningful for regime II
    and must be supplied together.  Regime I reads lambda_ceiling; regime
    II's ceiling is lambda_max(alpha_cap, sigma, delta).  Construction
    stores floats and refuses a regime-II alpha_cap >= 1; feasibility is
    the validator's job.
    """

    alpha_of: Callable[[int], float]
    lambda_of: Callable[[int], float]
    alpha_cap: float
    lambda_floor: float
    lambda_ceiling: float
    sigma: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if (self.sigma is None) != (self.delta is None):
            raise ValueError("sigma and delta must be provided together")
        for key in ("alpha_cap", "lambda_floor", "lambda_ceiling") + (() if self.sigma is None else ("sigma", "delta")):
            object.__setattr__(self, key, _real(getattr(self, key), key))
        if self.sigma is not None and self.alpha_cap >= 1.0:  # a NaN cap builds, and reads infeasible
            raise ValueError(f"alpha_cap must be < 1 in regime II, got {self.alpha_cap!r}")

    @property
    def condition_set(self) -> str:
        return "I" if self.sigma is None else "II"


def constant_schedule(
    alpha: float,
    lam: float,
    *,
    sigma: float | None = None,
    delta: float | None = None,
) -> ParamSchedule:
    """Constant alpha_k and lambda_k, with alpha as cap and lam as floor and ceiling, their tightest bounds.

    With sigma and delta the schedule is regime II's: alpha_0 = 0, as that
    regime demands, then the constant alpha, which must be below 1 there.
    """
    a = _real(alpha, "alpha")
    l = _real(lam, "lam")
    regime_ii = sigma is not None and delta is not None
    return ParamSchedule(
        alpha_of=(lambda k: 0.0 if k == 0 else a) if regime_ii else (lambda k: a),
        lambda_of=lambda k: l,
        alpha_cap=a,
        lambda_floor=l,
        lambda_ceiling=l,
        sigma=sigma,
        delta=delta,
    )


@dataclass(frozen=True)
class ErrorModel:
    """Perturbation sequence with a declared norm law and seeded directions.

    Norm laws by kind:

    * ``zero``         ->  0
    * ``power-decay``  ->  magnitude / (k + 1) ** exponent
    * ``geometric``    ->  magnitude * exponent ** k   (exponent > 0)
    * ``custom-list``  ->  norms[k], and 0 past the end of the list

    Directions are uniform on the unit sphere, deterministic in
    (seed, k, dim): see `emit_error` for how they are drawn.  Non-summable
    laws are constructible; ``summability`` flags them.  Where a power
    leaves the float range, ``norm_at`` still returns the law's value: the
    underflowed quotient (power-decay), or inf (0 at magnitude 0) where the
    law itself overflows, which stops a run as diverged.
    """

    kind: str = "zero"
    magnitude: float = 0.0
    exponent: float = 0.0
    seed: int = 0
    norms: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.kind!r}")
        object.__setattr__(self, "magnitude", _real(self.magnitude, "magnitude"))
        if not 0.0 <= self.magnitude < math.inf:
            raise ValueError("magnitude must be a finite nonnegative real")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", "be a nonnegative integer", lambda s: s >= 0))
        object.__setattr__(self, "exponent", _real(self.exponent, "exponent"))
        if self.kind == "geometric" and not self.exponent > 0.0:
            raise ValueError("geometric law needs a positive ratio in `exponent`")
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite (got {self.exponent!r})")
        if self.kind == "custom-list":
            if self.norms is None:
                raise ValueError("custom-list law needs explicit norms")
            object.__setattr__(self, "norms", tuple(_real(v, f"norms[{i}]") for i, v in enumerate(self.norms)))
            if any((v < 0.0 or not math.isfinite(v)) for v in self.norms):
                raise ValueError("custom norms must be finite and nonnegative")
        elif self.norms is not None:
            raise ValueError(f"norms are only valid for custom-list, not {self.kind!r}")

    @classmethod
    def zero(cls) -> "ErrorModel":
        return cls(kind="zero")

    @classmethod
    def power_decay(cls, magnitude: float, exponent: float, seed: int = 0) -> "ErrorModel":
        return cls(kind="power-decay", magnitude=magnitude, exponent=exponent, seed=seed)

    @classmethod
    def geometric(cls, magnitude: float, ratio: float, seed: int = 0) -> "ErrorModel":
        return cls(kind="geometric", magnitude=magnitude, exponent=_real(ratio, "ratio"), seed=seed)

    @classmethod
    def from_norms(cls, norms, seed: int = 0) -> "ErrorModel":
        return cls(kind="custom-list", norms=norms, seed=seed)

    def norm_at(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be nonnegative")
        if self.kind == "zero":
            return 0.0
        if self.kind == "power-decay":
            base = float(k + 1)
            try:
                return self.magnitude / base**self.exponent
            except OverflowError:  # base**exponent past the float range: the law underflows
                return self.magnitude * base**-self.exponent
            except ZeroDivisionError:  # base**exponent underflowed to 0 (exponent < 0)
                return math.inf if self.magnitude else 0.0
        if self.kind == "geometric":
            try:
                return self.magnitude * self.exponent**k
            except OverflowError:  # ratio > 1 past the float range
                return math.inf if self.magnitude else 0.0
        return self.norms[k] if k < len(self.norms) else 0.0

    @property
    def summability(self) -> str:
        """Declared-law verdict: "summable" or "not-guaranteed".  Never a proof about a run."""
        if self.kind == "zero" or self.kind == "custom-list":
            return "summable"
        if self.magnitude == 0.0:
            return "summable"
        if self.kind == "power-decay":
            return "summable" if self.exponent > 1.0 else "not-guaranteed"
        return "summable" if self.exponent < 1.0 else "not-guaranteed"


def _block_rows(dim: int) -> int:
    """Rows of a (rows, dim) block: at most 64, holding at most 16384 floats unless one row is longer."""
    return max(1, min(64, 16384 // dim))


def emit_error(model: ErrorModel, k: int, dim: int, cache: dict | None = None) -> np.ndarray:
    """The perturbation vector e^k: declared norm, seeded sphere direction.

    Directions come in blocks of B = max(1, min(64, 16384 // dim)) rows,
    so a block holds at most 16384 floats unless one row is longer: the
    direction of step k is row k % B of a (B, dim) standard normal block
    drawn from the key (model.seed, k // B), scaled to norm
    model.norm_at(k).  The result is pure in (model.seed, k, dim);
    repeated calls are bit-identical.

    `cache` is an optional dict owned by the caller, typically one per run
    and error channel.  It keeps the latest block, so consecutive steps
    share one draw.  It is a memo only: the returned vector is the same
    with or without it.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be positive")
    target = model.norm_at(k)
    if target == 0.0:
        return np.zeros(dim)
    rows = _block_rows(dim)
    key = (model.seed, k // rows, dim)
    if cache is not None and cache.get("key") == key:
        block = cache["block"]
    else:
        seq = np.random.SeedSequence(entropy=model.seed, spawn_key=(k // rows,))
        block = np.random.default_rng(seq).standard_normal((rows, dim))
        if cache is not None:
            cache["key"], cache["block"] = key, block
    d = block[k % rows]
    n = math.sqrt(d.dot(d))
    if n == 0.0:
        d = np.zeros(dim)
        d[0] = 1.0
        n = 1.0
    return d * (target / n)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    margin: float
    ok: bool


@dataclass(frozen=True)
class ConditionReport:
    """Feasibility verdict for one schedule under one regime.

    ``lambda_max`` is the operative relaxation ceiling bound: 1/scaling_theta
    for regime I, the (rescaled) closed-form ceiling for regime II.  feasible
    holds exactly when ``violations`` is empty.
    """

    condition_set: str
    feasible: bool
    delta_threshold: float
    lambda_max: float
    violations: tuple[str, ...]
    warnings: tuple[str, ...]
    deferred: tuple[str, ...]
    checks: tuple[ConditionCheck, ...]
    scaling_theta: float = 1.0

    def to_dict(self) -> dict:
        return {
            "condition_set": self.condition_set,
            "feasible": self.feasible,
            "delta_threshold": None if math.isnan(self.delta_threshold) else self.delta_threshold,
            "lambda_max": self.lambda_max,
            "scaling_theta": self.scaling_theta,
            "violations": list(self.violations),
            "warnings": list(self.warnings),
            "deferred": list(self.deferred),
            "checks": [asdict(c) for c in self.checks],
        }


def _fmt(x: float) -> str:
    return format(x, ".12g")


_DEFERRED_I = (
    "sum_k alpha_k ||z^{k+1} - z^k||^2 < inf (deferred-to-runtime)",
    "sum_k lambda_k ||e^k|| < inf (deferred-to-runtime)",
    "bounded iterates (deferred-to-runtime)",
)

_DEFERRED_II = (
    "sum_k ||e^k|| < inf (deferred-to-runtime)",
    "bounded iterates (deferred-to-runtime)",
)


def delta_threshold(alpha: float, sigma: float) -> float:
    """Smallest admissible delta under regime II: alpha [alpha (1 + alpha) + sigma] / (1 - alpha^2)."""
    alpha, sigma = _real(alpha, "alpha"), _real(sigma, "sigma")
    if alpha >= 1.0:
        raise ValueError("alpha_cap must be < 1: threshold formula undefined")
    return alpha * (alpha * (1.0 + alpha) + sigma) / (1.0 - alpha * alpha)


def lambda_ceiling_ii(alpha: float, sigma: float, delta: float) -> float:
    """Closed-form regime-II relaxation ceiling for the given (alpha, sigma, delta)."""
    alpha, sigma, delta = _real(alpha, "alpha"), _real(sigma, "sigma"), _real(delta, "delta")
    if alpha >= 1.0:
        raise ValueError("alpha_cap must be < 1: ceiling formula undefined")
    c = alpha * (1.0 + alpha) + alpha * delta + sigma
    return (delta - alpha * c) / (delta * (1.0 + c))


def validate_schedule(s: ParamSchedule, horizon: int = 1000, theta: float = 1.0) -> ConditionReport:
    """Feasibility of `s` under its own regime, sampling k = 0..horizon.

    The regime is ``s.condition_set``.  ``theta`` in (0, 1] is the
    averagedness constant of the operator the schedule drives: the
    relaxation ceiling bound is multiplied by 1/theta, and theta = 1 is
    the plain validation.  A NaN alpha_k or lambda_k fails every check it
    enters.  Only a bad theta or horizon raises: a built schedule always
    gets a report.
    """
    theta = _real(theta, "theta", "lie in (0, 1]", lambda t: 0.0 < t <= 1.0)
    horizon = _integer(horizon, "horizon", "be a nonnegative integer", lambda h: h >= 0)
    ks = range(horizon + 1)
    alphas = np.fromiter(map(s.alpha_of, ks), float, len(ks))
    lambdas = np.fromiter(map(s.lambda_of, ks), float, len(ks))
    regime_ii = s.condition_set == "II"
    cap = s.alpha_cap
    floor = s.lambda_floor
    a0, a_min, a_max = float(alphas[0]), float(alphas.min()), float(alphas.max())
    l_min, l_max = float(lambdas.min()), float(lambdas.max())
    nondecreasing = bool(np.all(alphas[1:] >= alphas[:-1]))

    checks = []
    violations = []
    warnings = []

    def add(name, margin, ok, message):
        checks.append(ConditionCheck(name=name, margin=float(margin), ok=bool(ok)))
        if not ok:
            violations.append(message)

    if not regime_ii:
        add("alpha_cap < 1", 1.0 - cap, cap < 1.0, "alpha_cap must be < 1")
    add("alpha_cap >= 0", cap, cap >= 0.0, "alpha_cap must be >= 0")
    if regime_ii:
        sigma, delta = s.sigma, s.delta
        add("sigma > 0", sigma, sigma > 0.0, "sigma must be > 0")
        add("delta > 0", delta, delta > 0.0, "delta must be > 0")
        thr = delta_threshold(cap, sigma)
        add(
            "delta > alpha[alpha(1+alpha)+sigma]/(1-alpha^2)",
            delta - thr,
            delta > thr,
            f"delta must exceed the threshold {_fmt(thr)} (got {_fmt(delta)})",
        )
        lam_max = lambda_ceiling_ii(cap, sigma, delta) / theta if delta > 0.0 else math.nan
        add("alpha_of(0) == 0", -abs(a0), a0 == 0.0, f"alpha_of(0) must be 0 (got {_fmt(a0)})")
        add("alpha_of nondecreasing", 0.0 if nondecreasing else -1.0, nondecreasing, "alpha_of must be nondecreasing")
        ceiling_name, ceiling = "lambda_max", lam_max
        if math.isnan(lam_max):
            ceiling_message = "lambda_max undefined (delta <= 0)"
        else:
            ceiling_message = f"lambda_of(k) must be <= lambda_max = {_fmt(lam_max)} (max {_fmt(l_max)})"
        cap_note = ""
    else:
        thr = math.nan
        lam_max = 1.0 / theta
        ceiling_name, ceiling = "lambda_ceiling", s.lambda_ceiling
        ceiling_message = f"lambda_of(k) must be <= lambda_ceiling (max {_fmt(l_max)})"
        cap_note = f" vs cap {_fmt(cap)}"
    add("min_k alpha_k >= 0", a_min, a_min >= 0.0, f"alpha_of(k) must be >= 0 (min {_fmt(a_min)})")
    add(
        "max_k alpha_k <= alpha_cap",
        cap - a_max,
        a_max <= cap,
        f"alpha_of(k) must be <= alpha_cap (max {_fmt(a_max)}{cap_note})",
    )
    if regime_ii:
        add("lambda_floor > 0", floor, floor > 0.0, "lambda_floor must be > 0")
    else:
        add("lambda_floor >= 0", floor, floor >= 0.0, "lambda_floor must be >= 0")
        add(
            "lambda_floor <= lambda_ceiling",
            ceiling - floor,
            floor <= ceiling,
            "lambda_floor must be <= lambda_ceiling",
        )
        add(
            f"lambda_ceiling < {_fmt(lam_max)}",
            lam_max - ceiling,
            ceiling < lam_max,
            f"lambda_ceiling must be < {_fmt(lam_max)}",
        )
        if floor == 0.0:
            warnings.append("lambda_floor = 0: the residual rate certificate requires a positive floor")
    add(
        "min_k lambda_k >= lambda_floor",
        l_min - floor,
        l_min >= floor,
        f"lambda_of(k) must be >= lambda_floor (min {_fmt(l_min)})",
    )
    add(f"max_k lambda_k <= {ceiling_name}", ceiling - l_max, l_max <= ceiling, ceiling_message)
    return ConditionReport(
        condition_set=s.condition_set,
        feasible=not violations,
        delta_threshold=thr,
        lambda_max=lam_max,
        violations=tuple(violations),
        warnings=tuple(warnings),
        deferred=_DEFERRED_II if regime_ii else _DEFERRED_I,
        checks=tuple(checks),
        scaling_theta=theta,
    )
