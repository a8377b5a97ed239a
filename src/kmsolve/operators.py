"""Operators on R^n with averagedness metadata.

An operator T is theta-averaged when T = (1 - theta) I + theta N for some
nonexpansive N.  theta = 1 means plain nonexpansive with no averagedness
claim; firmly nonexpansive maps (proximity operators, projections,
resolvents) carry theta = 1/2.  The factories below declare the constant
their construction guarantees, and make_affine certifies a caller's claim
exactly.  An OperatorSpec built by hand carries its theta uncertified.
Every module and the CLI check their arguments here: `_real` and
`_integer` take scalars, `as_point` finite vectors and `_as_matrix` finite
matrices, and a refusal names the argument.

The built-in operators are closures that the loop calls on every step, so
each binds its per-call scalars once, when it is built, as private
read-only 0-d float64 arrays: gamma and the 0 of the soft threshold, and
rho of the forward-backward step.
numpy converts a Python float operand again on every ufunc call, and a 0-d
array skips that.  The IEEE sum, difference, product, quotient and maximum
of a float64 array with a 0-d float64 are those with the equal Python
float, so on float64 points every value is the same to the bit.  One
difference: a 0-d float64 is not a "weak" scalar under numpy's promotion
rules (NEP 50), so these operators return float64 for a float32 input,
where a Python float constant would keep float32.  The loop only ever
passes float64 points.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

import numpy as np

Point = np.ndarray

# Rounding allowance for make_affine's certificate: the computed largest
# singular value of an orthogonal or identity q may land a few ulps above 1.
_SPECTRAL_SLACK = 1e-12


_F64 = np.dtype(float)
_pack_f64 = struct.Struct("d").pack  # native byte order, as _F64


def _const(value: float) -> np.ndarray:
    """A read-only 0-d float64 array holding `value`, an operator's bound scalar.

    Its 8 bytes live in an immutable bytes object, which makes the array
    read-only and keeps its data out of the malloc heap.  Built by
    np.array(value) instead, one long-lived 8-byte block per lasso set-up,
    placed among the set-up's large temporaries, kept about 0.4 MB more
    memory resident at the peak.
    """
    return np.ndarray((), _F64, _pack_f64(float(value)))


# the 0 of the soft threshold's maximum, shared by every instance
_ZERO = _const(0.0)


def _real(value, name: str, rule: str = "be a real number", ok: Callable[[float], bool] | None = None) -> float:
    """`value` as a float if it is a real, not a boolean, that fits a float and passes `ok`; else ValueError by name."""
    try:  # float and int come before Real, whose isinstance test takes about 1 us
        if not isinstance(value, bool) and isinstance(value, (float, int, Real)) and (ok is None or ok(float(value))):
            return float(value)
    except OverflowError:  # an integer outside the float range
        pass
    raise ValueError(f"{name} must {rule}, got {value!r}")


def _integer(value, name: str, rule: str = "be an integer", ok: Callable[[int], bool] | None = None) -> int:
    """`value` as an int if it is an integer, not a boolean, that passes `ok`; else ValueError by name."""
    if not isinstance(value, bool) and isinstance(value, (int, Integral)) and (ok is None or ok(int(value))):
        return int(value)
    raise ValueError(f"{name} must {rule}, got {value!r}")


def as_point(x, dim: int | None = None, name: str = "point") -> Point:
    """Coerce to a finite 1-D float64 vector, optionally checking length."""
    try:
        p = np.asarray(x, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} contains an entry outside the float range") from None
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {p.shape}")
    if p.size == 0:
        raise ValueError(f"{name} must have at least one entry")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"{name} has dimension {p.shape[0]}, expected {dim}")
    return p


def _as_matrix(x, name: str) -> np.ndarray:
    """`x` as a finite 2-D float64 array (`x` itself if it is one); else ValueError by name."""
    try:
        a = np.asarray(x, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} contains an entry outside the float range") from None
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def norm(a) -> float:
    """Euclidean norm sqrt(a . a), with no shape check.

    An ndarray goes straight to its own `dot`, the routine np.dot runs,
    without np.dot's dispatch; a list or other array-like is converted by
    np.asarray first.  Either way the value is math.sqrt(float(np.dot(a, a)))
    bit for bit: inf for a vector with an infinite entry or overflowing
    squares, NaN for one with a NaN entry.
    """
    try:
        return math.sqrt(a.dot(a))
    except AttributeError:
        return norm(np.asarray(a))


@dataclass(frozen=True)
class OperatorSpec:
    """A (claimed) nonexpansive operator with declared averagedness constant."""

    apply: Callable[[Point], Point]
    theta: float
    dim: int | None  # None when the operator works in any dimension

    def __post_init__(self):
        object.__setattr__(self, "theta", _real(self.theta, "theta", "lie in (0, 1]", lambda t: 0.0 < t <= 1.0))
        if self.dim is not None:
            object.__setattr__(self, "dim", _integer(self.dim, "dim", "be a positive integer", lambda d: d >= 1))

    def __call__(self, x: Point) -> Point:
        return self.apply(x)


@dataclass(frozen=True)
class IsmOperator:
    """A beta-inverse-strongly-monotone (cocoercive) map, e.g. a smooth convex gradient."""

    apply: Callable[[Point], Point]
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _real(self.beta, "beta", "be a positive real", lambda b: 0.0 < b < math.inf))

    def __call__(self, x: Point) -> Point:
        return self.apply(x)


# spectral_norm's memo: ((shape, C-order bytes) of the last matrix, its
# spectral norm).  The empty key matches no matrix.
_spectral_memo: tuple[tuple, float] = ((), 0.0)


def spectral_norm(mat) -> float:
    """Largest singular value ||mat||_2, computed by an SVD.

    Exact up to floating-point rounding.  make_affine and quadratic_gradient
    need an upper bound on ||mat||_2, which an estimate converging from
    below (power iteration) cannot give.  Raises ValueError for non-matrices
    and for non-finite entries, on every call.

    The last result is memoized in one entry, keyed on the matrix's content:
    its shape and the bytes of its float64 entries in C order, held as one
    private, immutable copy of the size of that matrix.  A repeated matrix
    is a hit whatever its memory layout or identity (an F-ordered copy
    hits); any other shape or any changed bit, a flipped sign of zero
    included, is a miss and runs the SVD.  So calling quadratic_gradient
    twice on the same m, as the lasso pattern in the README does, takes one
    SVD.  The memo never changes a value: a hit returns the float the SVD
    gave for those very bits, and np.linalg.norm copies its input into its
    own buffer, so the layout does not reach the result.  Key and value are
    stored as one tuple in one assignment, so a concurrent reader sees a
    matched pair; two threads that miss together both compute and the last
    one stays.
    """
    global _spectral_memo
    a = _as_matrix(mat, "mat")
    key = (a.shape, a.tobytes())
    memo = _spectral_memo
    if memo[0] == key:
        return memo[1]
    value = float(np.linalg.norm(a, 2))
    _spectral_memo = (key, value)
    return value


def make_identity(dim: int) -> OperatorSpec:
    """The identity map, declared nonexpansive (theta = 1)."""
    return OperatorSpec(apply=lambda x: np.asarray(x, dtype=float), theta=1.0, dim=dim)


def make_soft_threshold(gamma: float, dim: int) -> OperatorSpec:
    """Coordinatewise soft threshold, prox of gamma * l1-norm.  Firmly nonexpansive."""
    g = _const(_real(gamma, "gamma", "be a finite positive real", lambda g: 0.0 < g < math.inf))

    def apply(x):
        return np.sign(x) * np.maximum(np.abs(x) - g, _ZERO)

    return OperatorSpec(apply=apply, theta=0.5, dim=dim)


def make_box_projection(lo, hi) -> OperatorSpec:
    """Projection onto the box [lo, hi] (componentwise).  Firmly nonexpansive.

    The bounds are copied, so changing the caller's arrays later does not
    move the box.
    """
    lo = as_point(lo, name="lo").copy()
    hi = as_point(hi, dim=lo.shape[0], name="hi").copy()
    if not (lo <= hi).all():
        raise ValueError("box bounds require lo <= hi componentwise")

    def apply(x):
        return np.clip(x, lo, hi)

    return OperatorSpec(apply=apply, theta=0.5, dim=lo.shape[0])


def make_affine(q, b, theta: float = 1.0) -> OperatorSpec:
    """Affine map x -> q x + b, certified theta-averaged by an exact spectral norm.

    The map is theta-averaged iff ||q - (1 - theta) I||_2 <= theta; at the
    default theta = 1 that is nonexpansiveness, ||q||_2 <= 1, and a smaller
    theta implies it.  The bound gets a 1e-12 rounding allowance for the
    SVD, so an orthogonal q passes.

    The operator keeps private copies of q and b, so the certificate covers
    the map it applies even if the caller changes its arrays later.  The
    copy of q is C- or F-contiguous (np.array keeps the layout), and on
    such a matrix `q.dot(x)` rounds exactly like `q @ x`; on a strided view
    the two products can differ in the last bit, so a run on a view rounds
    like one on its contiguous copy.
    """
    q = np.array(_as_matrix(q, "q"))
    if q.shape[0] != q.shape[1]:
        raise ValueError("q must be a square matrix")
    b = as_point(b, dim=q.shape[0], name="b").copy()

    def apply(x):
        return q.dot(x) + b

    spec = OperatorSpec(apply=apply, theta=theta, dim=q.shape[0])
    # at theta = 1 the shift is exactly 0, so the certificate is ||q||_2 itself
    cert = spectral_norm(q - (1.0 - spec.theta) * np.eye(q.shape[0]))
    if cert > spec.theta + _SPECTRAL_SLACK:
        raise ValueError(
            f"spectral norm certificate failed: ||q - (1 - theta) I||_2 = {cert} "
            f"exceeds theta + 1e-12 at theta = {spec.theta}"
        )
    return spec


def quadratic_gradient(m, b) -> IsmOperator:
    """Gradient of x -> 0.5 ||m x - b||^2 as an IsmOperator.

    The gradient m^T (m x - b) is Lipschitz with constant L = ||m||_2^2, and
    a convex function with an L-Lipschitz gradient has a (1/L)-cocoercive
    gradient (Baillon-Haddad), so beta = 1 / ||m||_2^2.  ||m||_2 is exact
    (see spectral_norm), so beta does not overstate the modulus beyond
    rounding.  A second call on the same m reuses the SVD through
    spectral_norm's memo.

    The product m x uses the caller's m by reference, not a private copy,
    which would hold one more matrix of m's size.  beta certifies m as
    passed, so a caller that changes m afterwards voids it.
    """
    m = _as_matrix(m, "m")
    b = as_point(b, dim=m.shape[0], name="b")
    sigma = spectral_norm(m)
    if sigma == 0.0:
        raise ValueError("zero matrix: choose beta explicitly via IsmOperator(apply=..., beta=...)")
    mt = np.ascontiguousarray(m.T)

    def apply(x):
        return mt @ (m @ x - b)

    return IsmOperator(apply=apply, beta=1.0 / (sigma * sigma))


def make_fb_composition(resolvent: OperatorSpec, forward: IsmOperator, rho: float) -> OperatorSpec:
    """Forward-backward map x -> resolvent(x - rho * forward(x)).

    Requires 0 < rho < 2 beta and a resolvent with theta <= 1/2; the
    composition is averaged with theta = 2 beta / (4 beta - rho).
    """
    if resolvent.theta > 0.5:
        raise ValueError("resolvent must be firmly nonexpansive (theta <= 1/2)")
    beta = forward.beta
    rho = _real(rho, "rho")
    if not (0.0 < rho < 2.0 * beta):
        raise ValueError(f"rho must lie in (0, 2*beta) = (0, {2.0 * beta}), got {rho}")
    theta = 2.0 * beta / (4.0 * beta - rho)
    j = resolvent.apply
    fwd = forward.apply
    r = _const(rho)

    def apply(x):
        return _fb_value(j, r, x, fwd(x))

    return OperatorSpec(apply=apply, theta=theta, dim=resolvent.dim)


def _fb_value(j, r: np.ndarray, x, b_x):
    """The forward-backward step j(x - r b_x), given the forward value b_x at x and a 0-d rho r."""
    return j(x - r * b_x)
