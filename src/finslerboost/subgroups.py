"""Closed-form transformations of the two noncompact subgroups.

The Abelian 2-parameter subgroup has its boost direction orthogonal to
the preferred axis (the dilatation switches off there); the 1-parameter
subgroup boosts along the axis and carries the full scale factor.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (
    AnisotropySpec,
    FourVector,
    NonOrthogonal,
    NonTimelike,
    OffHorosphere,
    UnitVector3,
    Velocity3,
    ZeroVelocity,
    _cross,
    _dot,
    _horosphere,
    _t3,
    dot3,
    norm3,
)

__all__ = [
    "ORTHO_TOL",
    "HOROSPHERE_TOL",
    "AbelianParams",
    "AxialParams",
    "AxialInvariants",
    "abelian_transform",
    "abelian_velocity",
    "abelian_params_from_velocity",
    "abelian_transform_v",
    "axial_transform",
    "axial_invariants",
    "perpendicular_to",
]

ORTHO_TOL = 1e-12
# The horosphere condition is quadratically degenerate near v = 0, so its
# membership gate is loose.
HOROSPHERE_TOL = 1e-8


def perpendicular_to(nu: UnitVector3) -> UnitVector3:
    """Deterministic unit vector orthogonal to nu."""
    nuv = _t3(nu)
    pivot = [0.0, 0.0, 0.0]
    pivot[min(range(3), key=lambda i: abs(nuv[i]))] = 1.0
    return UnitVector3.normalized(_cross(nuv, pivot))


@dataclass(frozen=True)
class AbelianParams:
    """Direction n orthogonal to the preferred axis, and rapidity alpha.

    Equivalent to the free 2-vector n * alpha in the plane orthogonal to
    nu; use from_tangent to construct from that 2-vector.  Orthogonality
    against a concrete nu is validated by the operations.
    """

    n: UnitVector3
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @classmethod
    def from_tangent(cls, nu: UnitVector3, w) -> "AbelianParams":
        """Build from the plane vector w = n * alpha (w is projected onto
        the plane orthogonal to nu)."""
        nuv, w = _t3(nu), _t3(w)
        d = _dot(nuv, w)
        w = [c - d * m for c, m in zip(w, nuv)]
        alpha = math.sqrt(_dot(w, w))
        if alpha == 0.0:
            return cls(perpendicular_to(nu), 0.0)
        return cls(UnitVector3.normalized(w), alpha)

    def to_json(self) -> dict:
        return {"n": self.n.to_json(), "alpha": self.alpha}


@dataclass(frozen=True)
class AxialParams:
    """Rapidity of a boost along the preferred axis."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")


def _check_orthogonal(nu: UnitVector3, n: UnitVector3) -> None:
    if abs(dot3(nu, n)) > ORTHO_TOL:
        raise NonOrthogonal(f"boost direction not orthogonal to axis: nu.n = {dot3(nu, n)}")


def abelian_transform(nu: UnitVector3, p: AbelianParams, x: FourVector) -> FourVector:
    """Finite Abelian boost applied to event coordinates."""
    _check_orthogonal(nu, p.n)
    nuv = _t3(nu)
    nv = _t3(p.n)
    a = p.alpha
    sx = (x.x, x.y, x.z)
    nx = _dot(nv, sx)
    nux = _dot(nuv, sx)
    half = a * a / 2.0
    t = (half + 1.0) * x.t - a * nx - half * nux
    cn, cnu = -x.t + nux, (x.t - nux) * half - nx * a
    return FourVector(t, *[q + m * cn * a + u * cnu for q, m, u in zip(sx, nv, nuv)])


def abelian_velocity(nu: UnitVector3, p: AbelianParams) -> Velocity3:
    """Primed-frame velocity; always on the unit-level horosphere."""
    _check_orthogonal(nu, p.n)
    half = p.alpha * p.alpha / 2.0
    return Velocity3(
        *[(m * p.alpha + u * half) / (1.0 + half) for m, u in zip(_t3(p.n), _t3(nu))]
    )


def abelian_params_from_velocity(nu: UnitVector3, v: Velocity3) -> AbelianParams:
    """Invert the velocity map on the horosphere.

    Unique for alpha > 0 with v.nu > 0; v.nu = 0 forces alpha = 0.  A
    velocity whose squared norm v.v is zero or subnormal has no float
    direction and raises ZeroVelocity.
    """
    vv, nuv = _t3(v), _t3(nu)
    vsq = _dot(vv, vv)
    if vsq < sys.float_info.min:
        raise ZeroVelocity(f"direction is undefined: v.v = {vsq} is zero or subnormal")
    level = _horosphere(vv, nuv)
    if abs(level - 1.0) > HOROSPHERE_TOL:
        raise OffHorosphere(f"velocity is off the horosphere: level = {level}")
    vnu = _dot(vv, nuv)
    alpha = math.sqrt(2.0 * vnu / (1.0 - vnu)) if vnu > 0 else 0.0
    if alpha == 0.0:
        n = UnitVector3.normalized([c - vnu * u for c, u in zip(vv, nuv)])
        return AbelianParams(n, 0.0)
    half = alpha * alpha / 2.0
    n_vec = [(c * (1.0 + half) - u * half) / alpha for c, u in zip(vv, nuv)]
    return AbelianParams(UnitVector3.normalized(n_vec), alpha)


def abelian_transform_v(nu: UnitVector3, v: Velocity3, x: FourVector) -> FourVector:
    """Abelian boost reparametrized by the frame velocity v.

    Preserves both (x0^2 - x^2) and (x0 - nu.x), hence the anisotropic
    interval for every r.
    """
    vv, nuv = _t3(v), _t3(nu)
    if _dot(vv, vv) > 0:
        level = _horosphere(vv, nuv)
        if abs(level - 1.0) > HOROSPHERE_TOL:
            raise OffHorosphere(f"velocity is off the horosphere: level = {level}")
    sx = (x.x, x.y, x.z)
    vx = _dot(vv, sx)
    nux = _dot(nuv, sx)
    vnu = _dot(vv, nuv)
    w = 1.0 - vnu
    t = (x.t - vx) / w
    cv, cnu = x.t - nux, (2.0 * x.t - nux) * vnu - vx
    return FourVector(t, *[q - (cv * p - cnu * u) / w for q, p, u in zip(sx, vv, nuv)])


def axial_transform(spec: AnisotropySpec, p: AxialParams, x: FourVector) -> FourVector:
    """Boost along the preferred axis with its scale prefactor e^{-r alpha}.

    The flow is additive in alpha; the inverse is the transform at -alpha.
    """
    nuv = _t3(spec.nu)
    sx = (x.x, x.y, x.z)
    nux = _dot(nuv, sx)
    d = math.exp(-spec.r * p.alpha)
    ch, sh = math.cosh(p.alpha), math.sinh(p.alpha)
    t = d * (x.t * ch - nux * sh)
    along = -x.t * sh + nux * ch
    return FourVector(t, *[d * (q - u * nux + u * along) for q, u in zip(sx, nuv)])


@dataclass(frozen=True)
class AxialInvariants:
    """Quantities with definite scaling under the axial subgroup.

    nu_projection scales by e^{(1-r) alpha}, interval_sq by e^{-2 r alpha},
    and cylinder_ratio is exactly invariant.
    """

    nu_projection: float  # x0 - nu.x
    interval_sq: float  # x0^2 - x^2
    cylinder_ratio: float  # |x cross nu| / sqrt(x0^2 - x^2)

    def to_json(self) -> dict:
        return {
            "nu_projection": self.nu_projection,
            "interval_sq": self.interval_sq,
            "cylinder_ratio": self.cylinder_ratio,
        }


def axial_invariants(spec: AnisotropySpec, x: FourVector) -> AxialInvariants:
    """Scaling quantities of the axial subgroup at an event.

    Raises NonTimelike when x0^2 <= |x|^2, where the ratio is undefined.
    """
    sx, nuv = (x.x, x.y, x.z), _t3(spec.nu)
    proj = x.t - _dot(nuv, sx)
    interval = x.t * x.t - _dot(sx, sx)
    if interval <= 0.0:
        raise NonTimelike("cylinder ratio requires a timelike event")
    ratio = norm3(_cross(sx, nuv)) / math.sqrt(interval)
    return AxialInvariants(proj, interval, ratio)
