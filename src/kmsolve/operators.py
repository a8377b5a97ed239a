"""Operators on R^n with averagedness metadata.

An operator T is theta-averaged when T = (1 - theta) I + theta N for some
nonexpansive N.  theta = 1 means plain nonexpansive with no averagedness
claim; firmly nonexpansive maps (proximity operators, projections,
resolvents) carry theta = 1/2.  The factories below declare the constant
their construction guarantees, and make_affine certifies a caller's claim
exactly.  An OperatorSpec built by hand carries its theta unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Point = np.ndarray

# Rounding allowance for make_affine's certificate: the computed largest
# singular value of an orthogonal or identity q may land a few ulps above 1.
_SPECTRAL_SLACK = 1e-12


def as_point(x, dim: int | None = None, name: str = "point") -> Point:
    """Coerce to a finite 1-D float64 vector, optionally checking length."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"{name} has dimension {p.shape[0]}, expected {dim}")
    return p


def norm(a) -> float:
    """Euclidean norm sqrt(a . a), with no shape check.

    inf for a vector with an infinite entry or overflowing squares, NaN for
    one with a NaN entry.
    """
    return math.sqrt(float(np.dot(a, a)))


@dataclass(frozen=True)
class OperatorSpec:
    """A (claimed) nonexpansive operator with declared averagedness constant."""

    apply: Callable[[Point], Point]
    theta: float
    dim: int | None  # None when the operator works in any dimension

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.dim is not None and int(self.dim) < 1:
            raise ValueError("dim must be a positive integer")

    def __call__(self, x: Point) -> Point:
        return self.apply(x)


@dataclass(frozen=True)
class IsmOperator:
    """A beta-inverse-strongly-monotone (cocoercive) map, e.g. a smooth convex gradient."""

    apply: Callable[[Point], Point]
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be a positive real, got {self.beta}")

    def __call__(self, x: Point) -> Point:
        return self.apply(x)


def spectral_norm(mat) -> float:
    """Largest singular value ||mat||_2, computed by an SVD.

    Exact up to floating-point rounding.  make_affine and quadratic_gradient
    need an upper bound on ||mat||_2, which an estimate converging from
    below (power iteration) cannot give.  Raises ValueError for non-matrices
    and for non-finite entries.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return float(np.linalg.norm(a, 2))


def make_identity(dim: int, theta: float = 1.0) -> OperatorSpec:
    """The identity map.  It is theta-averaged for every theta, so callers may declare one."""
    return OperatorSpec(apply=lambda x: np.asarray(x, dtype=float), theta=theta, dim=dim)


def make_soft_threshold(gamma: float, dim: int) -> OperatorSpec:
    """Coordinatewise soft threshold, prox of gamma * l1-norm.  Firmly nonexpansive."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    g = float(gamma)

    def apply(x):
        return np.sign(x) * np.maximum(np.abs(x) - g, 0.0)

    return OperatorSpec(apply=apply, theta=0.5, dim=dim)


def make_box_projection(lo, hi) -> OperatorSpec:
    """Projection onto the box [lo, hi] (componentwise).  Firmly nonexpansive."""
    lo = as_point(lo, name="lo")
    hi = as_point(hi, dim=lo.shape[0], name="hi")
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
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("q must be a square matrix")
    b = as_point(b, dim=q.shape[0], name="b")

    def apply(x):
        return q @ x + b

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
    rounding.
    """
    m = np.asarray(m, dtype=float)
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

    Requires 0 < rho < 2 beta and a firmly nonexpansive backward step; the
    composition is averaged with theta = 2 beta / (4 beta - rho).
    """
    if resolvent.theta != 0.5:
        raise ValueError("resolvent must be firmly nonexpansive (theta = 1/2)")
    beta = forward.beta
    if not (0.0 < rho < 2.0 * beta):
        raise ValueError(f"rho must lie in (0, 2*beta) = (0, {2.0 * beta}), got {rho}")
    theta = 2.0 * beta / (4.0 * beta - rho)
    j = resolvent.apply
    fwd = forward.apply
    r = float(rho)

    def apply(x):
        return _fb_value(j, r, x, fwd(x))

    return OperatorSpec(apply=apply, theta=theta, dim=resolvent.dim)


def _fb_value(j, r: float, x, b_x):
    """The forward-backward step j(x - r b_x), given the forward value b_x at x."""
    return j(x - r * b_x)


def _core_value(t_x, x, theta: float):
    """N x = (T x - (1 - theta) x) / theta, from T x of a theta-averaged T."""
    return (t_x - (1.0 - theta) * x) / theta


def unwrap_averaged(t: OperatorSpec) -> OperatorSpec:
    """Recover the nonexpansive core N = (T - (1 - theta) I) / theta of an averaged T."""
    if t.theta >= 1.0:
        raise ValueError("theta = 1: no declared averagedness to unwrap")
    th = t.theta
    f = t.apply

    def apply(x):
        return _core_value(f(x), x, th)

    return OperatorSpec(apply=apply, theta=1.0, dim=t.dim)
