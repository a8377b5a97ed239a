"""Parameter schedules, perturbation models, and the feasibility validator.

A schedule is its two sequences, alpha_k and lambda_k, tagged regime "I"
(no sigma, delta) or "II" (sigma and delta given).  validate_schedule
judges the sequences sampled over k = 0..horizon and nothing beyond;
validate_run judges the ones a finished run recorded.

Regime I checks the pointwise bounds 0 <= alpha_k < 1 and
0 <= lambda_k < 1.  Its remaining hypotheses (summability of the
inertia-weighted squared steps, summability of the weighted error norms,
bounded iterates) depend on the realized run and are recorded as
deferred-to-runtime; the diagnostics module monitors them.

Regime II requires inertia in [0, 1) that starts at zero and never
decreases, a positive relaxation, and scalars sigma, delta > 0 satisfying

    delta > alpha [alpha (1 + alpha) + sigma] / (1 - alpha^2)

which yields the explicit relaxation ceiling

    lambda_max = (delta - alpha [alpha (1 + alpha) + alpha delta + sigma])
                 / (delta [1 + alpha (1 + alpha) + alpha delta + sigma]),

both taken at alpha = max_k alpha_k.

constant_schedule builds a schedule of either regime; with sigma and
delta its alpha_0 is 0.

Averaged operators admit larger relaxation: for a theta-averaged operator,
validate_schedule(s, theta=theta) multiplies the relaxation ceiling bound
(1 in regime I, lambda_max in regime II) by 1/theta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .operators import _as_array, _integer, _real, _row_norms

# the (rule, ok) pairs of a law's magnitude and exponent, by kind
_NONNEGATIVE = ("be a finite nonnegative real", lambda v: 0.0 <= v < math.inf)
_RATIO = ("be a finite positive real", lambda v: 0.0 < v < math.inf)
_UNUSED = ("be 0 for custom-list", lambda v: v == 0.0)
_LAW_RULES = {
    "power-decay": (_NONNEGATIVE, ("be a finite real", math.isfinite)),
    "geometric": (_NONNEGATIVE, _RATIO),
    "custom-list": (_UNUSED, _UNUSED),
}
ERROR_KINDS = tuple(_LAW_RULES)


@dataclass(frozen=True)
class ParamSchedule:
    """Inertia and relaxation sequences, alpha_k = alpha_of(k) and lambda_k = lambda_of(k).

    sigma and delta are only meaningful for regime II and must be supplied
    together; construction stores them as floats.  Any pair of callables
    builds: feasibility is the validator's job, on the k it samples.
    """

    alpha_of: Callable[[int], float]
    lambda_of: Callable[[int], float]
    sigma: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if (self.sigma is None) != (self.delta is None):
            raise ValueError("sigma and delta must be provided together")
        if self.sigma is not None:
            for key in ("sigma", "delta"):
                object.__setattr__(self, key, _real(getattr(self, key), key))

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
    """Constant alpha_k = alpha and lambda_k = lam.

    With sigma and delta the schedule is regime II's: alpha_0 = 0, as that
    regime demands, then the constant alpha.
    """
    a = _real(alpha, "alpha")
    l = _real(lam, "lam")
    regime_ii = sigma is not None and delta is not None
    return ParamSchedule(
        alpha_of=(lambda k: 0.0 if k == 0 else a) if regime_ii else (lambda k: a),
        lambda_of=lambda k: l,
        sigma=sigma,
        delta=delta,
    )


@dataclass(frozen=True)
class ErrorModel:
    """Perturbation sequence with a declared norm law and seeded directions.

    Norm laws by kind:

    * ``power-decay``  ->  magnitude / (k + 1) ** exponent
    * ``geometric``    ->  magnitude * exponent ** k   (exponent > 0)
    * ``custom-list``  ->  norms[k], and 0 past the end of the list

    A law takes only its own fields: custom-list no nonzero magnitude or
    exponent, the others no norms.  An exact run passes errors=None.

    Directions are uniform on the unit sphere, deterministic in
    (seed, k, dim): see `emit_error` for how they are drawn.  Non-summable
    laws are constructible; ``summability`` flags them.  Where a power
    leaves the float range, ``norm_at`` still returns the law's value: the
    underflowed quotient (power-decay), or inf (0 at magnitude 0) where the
    law itself overflows, which stops a run as diverged.
    """

    kind: str
    magnitude: float = 0.0
    exponent: float = 0.0
    seed: int = 0
    norms: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.kind!r}")
        for key, (rule, ok) in zip(("magnitude", "exponent"), _LAW_RULES[self.kind]):
            object.__setattr__(self, key, _real(getattr(self, key), key, rule, ok))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", "be a nonnegative integer", lambda s: s >= 0))
        if self.kind == "custom-list":
            if self.norms is None:
                raise ValueError("custom-list law needs explicit norms")
            norms = _as_array(self.norms, "norms")
            if norms.ndim != 1:
                raise ValueError(f"norms must be a list of numbers, got {self.norms!r}")
            if norms.min(initial=0.0) < 0.0:
                raise ValueError(f"norms must be nonnegative, got {norms.min().item()!r} at index {norms.argmin()}")
            object.__setattr__(self, "norms", tuple(norms.tolist()))
        elif self.norms is not None:
            raise ValueError(f"norms are only valid for custom-list, not {self.kind!r}")

    @classmethod
    def power_decay(cls, magnitude: float, exponent: float, seed: int = 0) -> "ErrorModel":
        return cls(kind="power-decay", magnitude=magnitude, exponent=exponent, seed=seed)

    @classmethod
    def geometric(cls, magnitude: float, ratio: float, seed: int = 0) -> "ErrorModel":
        return cls(kind="geometric", magnitude=magnitude, exponent=_real(ratio, "ratio", *_RATIO), seed=seed)

    @classmethod
    def from_norms(cls, norms, seed: int = 0) -> "ErrorModel":
        return cls(kind="custom-list", norms=norms, seed=seed)

    def norm_at(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be nonnegative")
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
        if self.kind == "custom-list" or self.magnitude == 0.0:
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
    and error channel.  Per dim it holds the model and its latest block
    with every row already scaled to its step's norm, so the block's other
    steps are row lookups.  It is a memo only: the vector is the same with
    or without it.  A nonzero vector is a read-only view of that block.
    """
    if cache is None:
        cache = {}
    entry = cache.get(dim) if dim.__class__ is int else None  # True and 2.0 would hit dims 1 and 2
    if entry is not None:
        m, lo, hi, rows = entry
        if m is model and lo <= k < hi:
            return rows[k - lo]
    dim = _integer(dim, "dim", "be a positive integer", lambda d: d >= 1)
    if model.norm_at(k) == 0.0:  # also refuses a negative k
        return np.zeros(dim)
    b = _block_rows(dim)
    lo = k - k % b
    seq = np.random.SeedSequence(entropy=model.seed, spawn_key=(k // b,))
    block = np.random.default_rng(seq).standard_normal((b, dim))
    norms = _row_norms(block)
    flat = norms == 0.0  # an all-zero row falls back to the first unit vector
    if flat.any():
        block[flat] = 0.0
        block[flat, 0] = 1.0
        norms[flat] = 1.0
    targets = np.fromiter(map(model.norm_at, range(lo, lo + b)), float, b)
    with np.errstate(over="ignore", invalid="ignore"):  # other steps' rows may leave the float range
        block *= (targets / norms)[:, None]
    block[targets == 0.0] = 0.0  # +0.0, as np.zeros: a scaled row could hold -0.0
    block.flags.writeable = False
    cache[dim] = (model, lo, lo + b, block)
    return block[k - lo]


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    margin: float
    ok: bool


@dataclass(frozen=True)
class ConditionReport:
    """Feasibility verdict for one schedule under one regime.

    ``lambda_max`` is the operative relaxation ceiling bound: 1/scaling_theta
    for regime I, the (rescaled) closed-form ceiling for regime II, NaN
    where that formula is undefined.  feasible holds exactly when
    ``violations`` is empty.
    """

    condition_set: str
    feasible: bool
    delta_threshold: float
    lambda_max: float
    violations: tuple[str, ...]
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
    """Smallest admissible delta under regime II: alpha [alpha (1 + alpha) + sigma] / (1 - alpha^2).

    Defined for 0 <= alpha < 1, where validate_schedule evaluates it;
    any other alpha raises ValueError.
    """
    alpha = _real(alpha, "alpha", "be a real in [0, 1)", lambda a: 0.0 <= a < 1.0)
    sigma = _real(sigma, "sigma")
    return alpha * (alpha * (1.0 + alpha) + sigma) / (1.0 - alpha * alpha)


def lambda_ceiling_ii(alpha: float, sigma: float, delta: float) -> float:
    """Closed-form regime-II relaxation ceiling for the given (alpha, sigma, delta).

    Defined for 0 <= alpha < 1, sigma >= 0 and delta > 0, where
    validate_schedule evaluates it; any other input raises ValueError.
    """
    alpha = _real(alpha, "alpha", "be a real in [0, 1)", lambda a: 0.0 <= a < 1.0)
    sigma = _real(sigma, "sigma", "be a real >= 0", lambda v: v >= 0.0)
    delta = _real(delta, "delta", "be a real > 0", lambda v: v > 0.0)
    c = alpha * (1.0 + alpha) + alpha * delta + sigma
    return (delta - alpha * c) / (delta * (1.0 + c))


def validate_schedule(s: ParamSchedule, horizon: int = 1000, theta: float = 1.0) -> ConditionReport:
    """Feasibility of `s` under its own regime, judged on alpha_k and lambda_k for k = 0..horizon.

    The regime is ``s.condition_set``.  The report is about the sampled
    k and never beyond: a lambda_k that leaves its bounds after the
    horizon is not seen, and a regime-II alpha_k rising toward a limit is
    judged at its sampled maximum.  validate_run judges a finished run.

    ``theta`` in (0, 1] is the averagedness constant of the operator the
    schedule drives: the relaxation ceiling bound is multiplied by
    1/theta, and theta = 1 is the plain validation.  Regime II's threshold
    and ceiling are taken at alpha = max_k alpha_k, and only where their
    formulas are defined (0 <= alpha_k < 1, and sigma >= 0, delta > 0 for
    the ceiling); elsewhere they are NaN and their checks fail.  A NaN
    alpha_k or lambda_k fails every check it enters.  Only a bad theta or
    horizon raises: a built schedule always gets a report.
    """
    theta = _real(theta, "theta", "be a real in (0, 1]", lambda t: 0.0 < t <= 1.0)
    horizon = _integer(horizon, "horizon", "be a nonnegative integer", lambda h: h >= 0)
    ks = range(horizon + 1)
    alphas = np.fromiter(map(s.alpha_of, ks), float, len(ks))
    lambdas = np.fromiter(map(s.lambda_of, ks), float, len(ks))
    return _judge(s, alphas, lambdas, theta)


def validate_run(result) -> ConditionReport:
    """validate_schedule's report on the alpha_k and lambda_k a run recorded, at its operator's theta."""
    if not result.iterations:
        raise ValueError("needs at least one iteration")
    return _judge(result.schedule, result.alphas, result.lambdas, result.problem.operator.theta)


def _judge(s: ParamSchedule, alphas: np.ndarray, lambdas: np.ndarray, theta: float) -> ConditionReport:
    a_min, a_max = float(alphas.min()), float(alphas.max())
    l_min, l_max = float(lambdas.min()), float(lambdas.max())

    checks = []
    violations = []

    def add(name, margin, ok, message):
        checks.append(ConditionCheck(name=name, margin=float(margin), ok=bool(ok)))
        if not ok:
            violations.append(message)

    add("min_k alpha_k >= 0", a_min, a_min >= 0.0, f"alpha_of(k) must be >= 0 (min {_fmt(a_min)})")
    add("max_k alpha_k < 1", 1.0 - a_max, a_max < 1.0, f"alpha_of(k) must be < 1 (max {_fmt(a_max)})")
    if s.condition_set == "I":
        thr, lam_max = math.nan, 1.0 / theta
        add("min_k lambda_k >= 0", l_min, l_min >= 0.0, f"lambda_of(k) must be >= 0 (min {_fmt(l_min)})")
        add(
            f"max_k lambda_k < {_fmt(lam_max)}",
            lam_max - l_max,
            l_max < lam_max,
            f"lambda_of(k) must be < {_fmt(lam_max)} (max {_fmt(l_max)})",
        )
    else:
        sigma, delta = s.sigma, s.delta
        a0 = float(alphas[0])
        nondecreasing = bool(np.all(alphas[1:] >= alphas[:-1]))
        defined = 0.0 <= a_min and a_max < 1.0  # the formulas divide by 1 - alpha^2
        thr = delta_threshold(a_max, sigma) if defined else math.nan
        # sigma >= 0 and delta > 0 keep delta (1 + C) >= delta > 0
        ceiling_defined = defined and sigma >= 0.0 and delta > 0.0
        lam_max = lambda_ceiling_ii(a_max, sigma, delta) / theta if ceiling_defined else math.nan
        add("alpha_of(0) == 0", -abs(a0), a0 == 0.0, f"alpha_of(0) must be 0 (got {_fmt(a0)})")
        add("alpha_of nondecreasing", 0.0 if nondecreasing else -1.0, nondecreasing, "alpha_of must be nondecreasing")
        add("sigma > 0", sigma, sigma > 0.0, "sigma must be > 0")
        add("delta > 0", delta, delta > 0.0, "delta must be > 0")
        add(
            "delta > alpha[alpha(1+alpha)+sigma]/(1-alpha^2)",
            delta - thr,
            delta > thr,
            f"delta must exceed the threshold {_fmt(thr)} (got {_fmt(delta)})"
            if defined
            else "delta threshold undefined (needs 0 <= alpha_k < 1)",
        )
        add("min_k lambda_k > 0", l_min, l_min > 0.0, f"lambda_of(k) must be > 0 (min {_fmt(l_min)})")
        add(
            "max_k lambda_k <= lambda_max",
            lam_max - l_max,
            l_max <= lam_max,
            f"lambda_of(k) must be <= lambda_max = {_fmt(lam_max)} (max {_fmt(l_max)})"
            if ceiling_defined
            else "lambda_max undefined (needs 0 <= alpha_k < 1, sigma >= 0 and delta > 0)",
        )
    return ConditionReport(
        condition_set=s.condition_set,
        feasible=not violations,
        delta_threshold=thr,
        lambda_max=lam_max,
        violations=tuple(violations),
        deferred=_DEFERRED_I if s.condition_set == "I" else _DEFERRED_II,
        checks=tuple(checks),
        scaling_theta=theta,
    )
