"""Closed-form transformations of the two noncompact subgroups.

The Abelian 2-parameter subgroup has its boost direction orthogonal to
the preferred axis (the dilatation switches off there); the 1-parameter
subgroup boosts along the axis and carries the full scale factor.
"""
from __future__ import annotations

import math
import sys

from .core import (
    AnisotropySpec,
    FourVector,
    NonOrthogonal,
    NonTimelike,
    OffHorosphere,
    OutOfRange,
    UnitVector3,
    Velocity3,
    ZeroVelocity,
    _cross,
    _dot,
    _frame_scalars,
    _rescaled,
    _require_finite,
    _t3,
    _unit3,
    _Value,
    _vel3,
    minkowski_interval,
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
    """Deterministic unit vector orthogonal to nu: nu x e_k, normalized, for
    the first axis k of least |nu_k|."""
    nuv = _unit3(nu)
    pivot, least = (1.0, 0.0, 0.0), abs(nuv[0])
    if abs(nuv[1]) < least:
        pivot, least = (0.0, 1.0, 0.0), abs(nuv[1])
    if abs(nuv[2]) < least:
        pivot = (0.0, 0.0, 1.0)
    return UnitVector3.normalized(_cross(nuv, pivot))


class AbelianParams(_Value):
    """Direction n orthogonal to the preferred axis, and rapidity alpha.

    Equivalent to the free 2-vector n * alpha in the plane orthogonal to
    nu; use from_tangent to construct from that 2-vector.  Orthogonality
    against a concrete nu is validated by the operations.
    """

    __slots__ = ("n", "alpha")

    def __init__(self, n: UnitVector3, alpha: float):
        _unit3(n)
        if not math.isfinite(alpha):
            _require_finite(alpha)
        set_n, set_alpha = AbelianParams._setters
        set_n(self, n)
        set_alpha(self, alpha)

    @classmethod
    def from_tangent(cls, nu: UnitVector3, w) -> "AbelianParams":
        """Build from the plane vector w = n * alpha (w is projected onto
        the plane orthogonal to nu, then rescaled where w.w is out of
        range: a tiny or huge w keeps its direction, and alpha is |w|).
        OutOfRange naming w where |w| overflows."""
        nuv, w = _unit3(nu), _t3(w)
        d = _dot(nuv, w)
        scale, (x, y, z), size = _rescaled(
            (w[0] - d * nuv[0], w[1] - d * nuv[1], w[2] - d * nuv[2]))
        if size == 0.0:
            return cls(perpendicular_to(nu), 0.0)
        alpha = scale * size  # not finite also where the projection overflows
        if not math.isfinite(alpha):
            raise OutOfRange(f"the norm |w| of the tangent vector w = {list(w)} overflows")
        return cls(UnitVector3(x / size, y / size, z / size), alpha)


class AxialParams(_Value):
    """Rapidity of a boost along the preferred axis."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        if not math.isfinite(alpha):
            _require_finite(alpha)
        AxialParams._setters[0](self, alpha)


def _check_orthogonal(nu: UnitVector3, n: UnitVector3) -> None:
    d = _dot(_unit3(nu), _unit3(n))
    if abs(d) > ORTHO_TOL:
        raise NonOrthogonal(f"boost direction not orthogonal to axis: nu.n = {d}")


def _abelian(nuv: tuple, w: tuple, x: FourVector) -> FourVector:
    """Transverse boost by the tangent vector w (orthogonal to nu) of an
    event: with d = x0 - nu.x, which it keeps, and c = (w.w / 2) d - w.x,
    the image is (x0 + c, x - d w + c nu).  OutOfRange naming x and w where
    the image overflows."""
    (m0, m1, m2), (w0, w1, w2) = nuv, w
    t, a, b, e = x.t, x.x, x.y, x.z
    d = t - (m0 * a + m1 * b + m2 * e)
    c = 0.5 * (w0 * w0 + w1 * w1 + w2 * w2) * d - (w0 * a + w1 * b + w2 * e)
    try:
        return FourVector(t + c, a - w0 * d + m0 * c, b - w1 * d + m1 * c, e - w2 * d + m2 * c)
    except OutOfRange:  # an image component is not finite
        raise OutOfRange(
            f"the Abelian transform of event {x.to_json()} by the tangent vector {list(w)}"
            " overflows"
        ) from None


def _tangent(nuv: tuple, v: tuple) -> tuple:
    """Tangent vector w = (v - (v.nu) nu)/(1 - v.nu) of the transverse boost
    reaching the velocity v.  Its norm alpha is read from the transverse part
    of v, so it does not cancel.  Raises OffHorosphere for v off the unit
    horosphere; v = 0 is on it."""
    gap, root, _ = _frame_scalars(v, nuv)
    level = gap / root
    if abs(level - 1.0) > HOROSPHERE_TOL:
        raise OffHorosphere(f"velocity is off the horosphere: level = {level}")
    s = _dot(v, nuv)
    return (v[0] - s * nuv[0]) / gap, (v[1] - s * nuv[1]) / gap, (v[2] - s * nuv[2]) / gap


def abelian_transform(nu: UnitVector3, p: AbelianParams, x: FourVector) -> FourVector:
    """Finite Abelian boost applied to event coordinates; OutOfRange naming
    x and the tangent vector n alpha where the image overflows."""
    _check_orthogonal(nu, p.n)
    n, a = p.n, p.alpha
    return _abelian(_unit3(nu), (n.x * a, n.y * a, n.z * a), x)


def abelian_velocity(nu: UnitVector3, p: AbelianParams) -> Velocity3:
    """Primed-frame velocity; always on the unit-level horosphere.
    OutOfRange naming alpha where the speed rounds to 1."""
    _check_orthogonal(nu, p.n)
    (n0, n1, n2), (m0, m1, m2), a = _unit3(p.n), _unit3(nu), p.alpha
    half = a * a / 2.0
    den = 1.0 + half
    try:  # where alpha^2 overflows, the components are inf / inf
        return Velocity3((n0 * a + m0 * half) / den, (n1 * a + m1 * half) / den,
                         (n2 * a + m2 * half) / den)
    except OutOfRange:
        raise OutOfRange(f"rapidity alpha = {p.alpha} gives a speed that rounds to 1") from None


def abelian_params_from_velocity(nu: UnitVector3, v: Velocity3) -> AbelianParams:
    """Invert the velocity map on the horosphere: n alpha is the tangent
    vector (v - (v.nu) nu)/(1 - v.nu), with alpha >= 0.  A velocity whose
    squared norm v.v is zero or subnormal has no float direction and raises
    ZeroVelocity.
    """
    nuv, vv = _unit3(nu), _vel3(v)
    vsq = _dot(vv, vv)
    if vsq < sys.float_info.min:
        raise ZeroVelocity(f"direction is undefined: v.v = {vsq} is zero or subnormal")
    return AbelianParams.from_tangent(nu, _tangent(nuv, vv))


def abelian_transform_v(nu: UnitVector3, v: Velocity3, x: FourVector) -> FourVector:
    """Abelian boost reparametrized by the frame velocity v.

    Preserves both (x0^2 - x^2) and (x0 - nu.x), hence the anisotropic
    interval for every r.  OutOfRange naming x and the tangent vector where
    the image overflows.
    """
    nuv = _unit3(nu)
    return _abelian(nuv, _tangent(nuv, _vel3(v)), x)


def axial_transform(spec: AnisotropySpec, p: AxialParams, x: FourVector) -> FourVector:
    """Boost along the preferred axis with its scale prefactor e^{-r alpha}.

    The flow is additive in alpha; the inverse is the transform at -alpha.
    """
    m0, m1, m2 = _unit3(spec.nu)
    a, b, c = x.x, x.y, x.z
    nux = m0 * a + m1 * b + m2 * c
    try:
        d = math.exp(-spec.r * p.alpha)
        ch, sh = math.cosh(p.alpha), math.sinh(p.alpha)
        t = d * (x.t * ch - nux * sh)
        along = -x.t * sh + nux * ch
        return FourVector(t, d * (a - m0 * nux + m0 * along), d * (b - m1 * nux + m1 * along),
                          d * (c - m2 * nux + m2 * along))
    except (OverflowError, ValueError):  # a coefficient or the image is beyond float range
        raise OutOfRange(
            f"rapidity alpha = {p.alpha} with r = {spec.r} overflows the axial transform"
        ) from None


class AxialInvariants(_Value):
    """Quantities with definite scaling under the axial subgroup.

    nu_projection = x0 - nu.x scales by e^{(1-r) alpha}, interval_sq =
    x0^2 - x^2 by e^{-2 r alpha}, and cylinder_ratio = |x cross nu| /
    sqrt(x0^2 - x^2) is exactly invariant.
    """

    __slots__ = ("nu_projection", "interval_sq", "cylinder_ratio")

    def __init__(self, nu_projection: float, interval_sq: float, cylinder_ratio: float):
        set_projection, set_interval, set_ratio = AxialInvariants._setters
        set_projection(self, nu_projection)
        set_interval(self, interval_sq)
        set_ratio(self, cylinder_ratio)

    def to_json(self) -> dict:
        return {
            "nu_projection": self.nu_projection,
            "interval_sq": self.interval_sq,
            "cylinder_ratio": self.cylinder_ratio,
        }


def axial_invariants(spec: AnisotropySpec, x: FourVector) -> AxialInvariants:
    """Scaling quantities of the axial subgroup at an event.

    Raises NonTimelike when x0^2 <= |x|^2, where the ratio is undefined,
    and OutOfRange when a square overflows.
    """
    sx, nuv = (x.x, x.y, x.z), _unit3(spec.nu)
    proj = x.t - _dot(nuv, sx)
    interval = minkowski_interval(x)
    if interval <= 0.0:
        raise NonTimelike("cylinder ratio requires a timelike event")
    ratio = norm3(_cross(sx, nuv)) / math.sqrt(interval)
    return AxialInvariants(proj, interval, ratio)
