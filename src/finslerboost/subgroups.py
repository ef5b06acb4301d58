"""Closed-form transformations of the two noncompact subgroups.

The Abelian 2-parameter subgroup has its boost direction orthogonal to
the preferred axis (the dilatation switches off there); the 1-parameter
subgroup boosts along the axis and carries the full scale factor.
"""
from __future__ import annotations

import math
import sys

from .core import (
    _FLOAT,
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
    _interval,
    _normalized,
    _rescaled,
    _require_finite,
    _t3,
    _unit3,
    _Value,
    _vel3,
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


def _perpendicular(nuv: tuple, xp=_FLOAT) -> tuple:
    """The components of perpendicular_to."""
    return _normalized(_cross(nuv, xp.least_axis(nuv)), xp)


def perpendicular_to(nu: UnitVector3) -> UnitVector3:
    """Deterministic unit vector orthogonal to nu: nu x e_k, normalized, for
    the first axis k of least |nu_k|."""
    x, y, z = _perpendicular(_unit3(nu))
    return UnitVector3(x, y, z)


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


def _check_orthogonal(nuv: tuple, n: tuple, xp=_FLOAT) -> None:
    d = _dot(nuv, n)
    ok = abs(d) <= ORTHO_TOL
    if ok is not True and not xp.all(ok):
        raise NonOrthogonal(xp.explain(ok, "boost direction not orthogonal to axis: nu.n = {}", d))


def _abelian(nuv: tuple, w: tuple, x: tuple, xp=_FLOAT):
    """Transverse boost by the tangent vector w (orthogonal to nu) of an
    event 4-tuple x, as xp.event: with d = x0 - nu.x, which it keeps, and
    c = (w.w / 2) d - w.x, the image is (x0 + c, x - d w + c nu).
    OutOfRange naming x and w where the image overflows."""
    (m0, m1, m2), (w0, w1, w2) = nuv, w
    t, a, b, e = x
    d = t - (m0 * a + m1 * b + m2 * e)
    c = 0.5 * (w0 * w0 + w1 * w1 + w2 * w2) * d - (w0 * a + w1 * b + w2 * e)
    y0, y1, y2, y3 = t + c, a - w0 * d + m0 * c, b - w1 * d + m1 * c, e - w2 * d + m2 * c
    try:
        return xp.event(y0, y1, y2, y3)
    except OutOfRange:  # an image component is not finite
        raise OutOfRange(xp.explain(
            (y0 - y0) + (y1 - y1) + (y2 - y2) + (y3 - y3) == 0.0,
            "the Abelian transform of event {} by the tangent vector {} overflows", list(x), list(w),
        )) from None


def _transverse(nuv: tuple, n: tuple, alpha, x: tuple, xp=_FLOAT):
    """abelian_transform on components."""
    _check_orthogonal(nuv, n, xp)
    return _abelian(nuv, (n[0] * alpha, n[1] * alpha, n[2] * alpha), x, xp)


def _tangent(nuv: tuple, v: tuple, xp=_FLOAT) -> tuple:
    """Tangent vector w = (v - (v.nu) nu)/(1 - v.nu) of the transverse boost
    reaching the velocity v.  Its norm alpha is read from the transverse part
    of v, so it does not cancel.  Raises OffHorosphere for v off the unit
    horosphere; v = 0 is on it."""
    gap, root, _ = _frame_scalars(v, nuv, xp)
    level = gap / root
    ok = abs(level - 1.0) <= HOROSPHERE_TOL
    if ok is not True and not xp.all(ok):
        raise OffHorosphere(xp.explain(ok, "velocity is off the horosphere: level = {}", level))
    s = _dot(v, nuv)
    return (v[0] - s * nuv[0]) / gap, (v[1] - s * nuv[1]) / gap, (v[2] - s * nuv[2]) / gap


def _transverse_v(nuv: tuple, v: tuple, x: tuple, xp=_FLOAT):
    """abelian_transform_v on components."""
    return _abelian(nuv, _tangent(nuv, v, xp), x, xp)


def abelian_transform(nu: UnitVector3, p: AbelianParams, x: FourVector) -> FourVector:
    """Finite Abelian boost applied to event coordinates; OutOfRange naming
    x and the tangent vector n alpha where the image overflows."""
    return _transverse(_unit3(nu), _unit3(p.n), p.alpha, (x.t, x.x, x.y, x.z))


def _abelian_frame(nuv: tuple, n: tuple, a, xp=_FLOAT):
    """abelian_velocity on components, as xp.velocity."""
    _check_orthogonal(nuv, n, xp)
    (n0, n1, n2), (m0, m1, m2) = n, nuv
    half = a * a / 2.0
    den = 1.0 + half
    v0, v1, v2 = (n0 * a + m0 * half) / den, (n1 * a + m1 * half) / den, (n2 * a + m2 * half) / den
    try:  # where alpha^2 overflows, the components are inf / inf
        return xp.velocity(v0, v1, v2)
    except ValueError:
        raise OutOfRange(xp.explain(v0 * v0 + v1 * v1 + v2 * v2 < 1.0,
                                    "rapidity alpha = {} gives a speed that rounds to 1", a)) from None


def abelian_velocity(nu: UnitVector3, p: AbelianParams) -> Velocity3:
    """Primed-frame velocity; always on the unit-level horosphere.
    OutOfRange naming alpha where the speed rounds to 1."""
    return _abelian_frame(_unit3(nu), _unit3(p.n), p.alpha)


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
    return _transverse_v(_unit3(nu), _vel3(v), (x.t, x.x, x.y, x.z))


def _axial(nuv: tuple, r, alpha, x: tuple, xp=_FLOAT):
    """axial_transform on components, as xp.event."""
    m0, m1, m2 = nuv
    t, a, b, c = x
    nux = m0 * a + m1 * b + m2 * c
    try:
        d = xp.exp(-r * alpha)
        ch, sh = xp.cosh(alpha), xp.sinh(alpha)
    except OverflowError:  # a coefficient is beyond float range
        d = ch = sh = math.nan
    y0 = d * (t * ch - nux * sh)
    along = -t * sh + nux * ch
    y1 = d * (a - m0 * nux + m0 * along)
    y2 = d * (b - m1 * nux + m1 * along)
    y3 = d * (c - m2 * nux + m2 * along)
    try:
        return xp.event(y0, y1, y2, y3)
    except OutOfRange:  # a coefficient or the image is beyond float range
        raise OutOfRange(xp.explain(
            (y0 - y0) + (y1 - y1) + (y2 - y2) + (y3 - y3) == 0.0,
            "rapidity alpha = {} with r = {} overflows the axial transform", alpha, r,
        )) from None


def axial_transform(spec: AnisotropySpec, p: AxialParams, x: FourVector) -> FourVector:
    """Boost along the preferred axis with its scale prefactor e^{-r alpha}.

    The flow is additive in alpha; the inverse is the transform at -alpha.
    """
    return _axial(_unit3(spec.nu), spec.r, p.alpha, (x.t, x.x, x.y, x.z))


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


def _axial_scalars(nuv: tuple, x: tuple, xp=_FLOAT) -> tuple:
    """The fields of axial_invariants of an event 4-tuple."""
    t, a, b, c = x
    sx = (a, b, c)
    proj = t - _dot(nuv, sx)
    interval = _interval(t, a, b, c, xp)
    ok = interval > 0.0
    if ok is not True and not xp.all(ok):
        raise NonTimelike(xp.explain(ok, "cylinder ratio requires a timelike event"))
    c0, c1, c2 = _cross(sx, nuv)
    size = xp.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    ok = size < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "norm3({}) is not finite", (c0, c1, c2)))
    return proj, interval, size / xp.sqrt(interval)


def axial_invariants(spec: AnisotropySpec, x: FourVector) -> AxialInvariants:
    """Scaling quantities of the axial subgroup at an event.

    Raises NonTimelike when x0^2 <= |x|^2, where the ratio is undefined,
    and OutOfRange when a square overflows.
    """
    proj, interval, ratio = _axial_scalars(_unit3(spec.nu), (x.t, x.x, x.y, x.z))
    return AxialInvariants(proj, interval, ratio)
