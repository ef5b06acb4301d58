"""The 4-parameter boost subgroup and the dilatation-carrying generalized boosts.

All transformations are passive: a matrix maps event coordinates of the
initial frame to those of the primed frame.  The velocity returned by
velocity_from_params is the primed frame's velocity seen from the initial
frame.
"""
from __future__ import annotations

import math
import sys

from .core import (
    _FLOAT,
    AnisotropySpec,
    FourVector,
    OutOfRange,
    UnitVector3,
    Velocity3,
    _cross,
    _dot,
    _frame_scalars,
    _horosphere,
    _m4x4,
    _ndarray,
    _normalized,
    _r_power,
    _require_finite,
    _unit3,
    _Value,
    _vel3,
)

__all__ = [
    "BoostParams",
    "generator",
    "generalized_generator",
    "boost_matrix",
    "boost_matrix_inverse",
    "compose",
    "velocity_from_params",
    "params_from_velocity",
    "add_velocities",
    "dilation_factor",
    "generalized_boost_matrix",
    "axial_rotation",
    "translate",
    "apply_matrix",
]


class BoostParams(_Value):
    """Boost direction n and rapidity alpha, canonicalized to alpha >= 0.

    The sign ambiguity (n, alpha) <-> (-n, -alpha) leaves the transformation
    unchanged, so negative rapidities are absorbed into the direction.
    """

    __slots__ = ("n", "alpha")

    def __init__(self, n: UnitVector3, alpha: float):
        _unit3(n)
        if not math.isfinite(alpha):
            _require_finite(alpha)
        if alpha < 0:
            n, alpha = -n, -alpha
        set_n, set_alpha = BoostParams._setters
        set_n(self, n)
        set_alpha(self, alpha)

    @classmethod
    def identity(cls, nu: UnitVector3) -> "BoostParams":
        return cls(n=nu, alpha=0.0)

    def to_json(self) -> dict:
        return {"n": self.n.to_json(), "alpha": self.alpha}


def _coefficients(nuv: tuple, n: tuple, alpha, xp=_FLOAT) -> tuple:
    """The boost coefficients with a = (nu.n) alpha:
    km = (1 - e^{-a}) alpha / a, kp = (1 - e^{a}) alpha / a and
    c0 = (cosh a - 1) alpha^2 / a^2 = -km kp / 2."""
    (m0, m1, m2), (n0, n1, n2) = nuv, n
    a = (m0 * n0 + m1 * n1 + m2 * n2) * alpha
    try:
        km = alpha * xp.exprel(-a)
        kp = -alpha * xp.exprel(a)
    except OverflowError:  # |a| > 709.78
        km = kp = math.nan
    c0 = -0.5 * km * kp
    ok = c0 < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(
            ok, "rapidity alpha = {} with axis part (nu.n) alpha = {} overflows the boost"
            " coefficients", alpha, a))
    return km, kp, c0


def _cross_rows(m: tuple) -> list:
    """Rows of the matrix of the map x -> m x x."""
    return [[0.0, -m[2], m[1]], [m[2], 0.0, -m[0]], [-m[1], m[0], 0.0]]


def _generator_rows(nuv: tuple, n: tuple) -> list:
    """Rows of the boost generator G."""
    n0, n1, n2 = n
    m0, m1, m2 = _cross(nuv, n)
    return [
        [0.0, -n0, -n1, -n2],
        [-n0, 0.0, -m2, m1],
        [-n1, m2, 0.0, -m0],
        [-n2, -m1, m0, 0.0],
    ]


def generator(nu: UnitVector3, n: UnitVector3) -> np.ndarray:
    """Infinitesimal boost matrix G with dx = G x dalpha.

    The time row and column carry the pure boost along n; the spatial
    block is the rotation generator about nu x n that keeps the preferred
    axis fixed in the moving frame.
    """
    nv = _unit3(n)
    return _ndarray(_generator_rows(_unit3(nu), nv))


def _generalized_generator_rows(nuv: tuple, n: tuple, r, xp=_FLOAT) -> list:
    """Rows of G - r (nu.n) I; OutOfRange naming r where r (nu.n) overflows."""
    rs = r * _dot(nuv, n)
    ok = abs(rs) < math.inf  # |nu.n| may exceed 1 by the 1e-12 of UnitVector3
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "anisotropy r = {} overflows the generalized generator", r))
    z = rs * 0.0  # the off-diagonal zeros of rs I, signed as rs is
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = _generator_rows(nuv, n)
    return [
        [a0 - rs, a1 - z, a2 - z, a3 - z],
        [b0 - z, b1 - rs, b2 - z, b3 - z],
        [c0 - z, c1 - z, c2 - rs, c3 - z],
        [e0 - z, e1 - z, e2 - z, e3 - rs],
    ]


def generalized_generator(spec: AnisotropySpec, n: UnitVector3) -> np.ndarray:
    """Boost generator plus the compensating scale generator -r (nu.n) I.
    OutOfRange naming r where r (nu.n) overflows."""
    return _ndarray(_generalized_generator_rows(_unit3(spec.nu), _unit3(n), spec.r))


def _rows(nuv: tuple, n: tuple, alpha, xp=_FLOAT) -> list:
    """Rows of Lambda as four lists of four entries."""
    n0, n1, n2 = n
    m0, m1, m2 = nuv
    km, kp, c0 = _coefficients(nuv, n, alpha, xp)
    r1, r2, r3 = -(km * n0 + c0 * m0), -(km * n1 + c0 * m1), -(km * n2 + c0 * m2)
    # spatial entry (i, j) is delta_ij - kp n_i nu_j + nu_i r_j; starting
    # off the diagonal from delta_ij = 0.0 fixes the sign of a zero entry,
    # which the CLI prints (-0.0 and 0.0 differ)
    return [
        [1.0 + c0, r1, r2, r3],
        [kp * n0 + c0 * m0, 1.0 - kp * (n0 * m0) + m0 * r1,
         0.0 - kp * (n0 * m1) + m0 * r2, 0.0 - kp * (n0 * m2) + m0 * r3],
        [kp * n1 + c0 * m1, 0.0 - kp * (n1 * m0) + m1 * r1,
         1.0 - kp * (n1 * m1) + m1 * r2, 0.0 - kp * (n1 * m2) + m1 * r3],
        [kp * n2 + c0 * m2, 0.0 - kp * (n2 * m0) + m2 * r1,
         0.0 - kp * (n2 * m1) + m2 * r2, 1.0 - kp * (n2 * m2) + m2 * r3],
    ]


def _boost_rows(nu: UnitVector3, params: BoostParams) -> list:
    """Rows of Lambda as four lists of four floats."""
    return _rows(_unit3(nu), _unit3(params.n), params.alpha)


def _scaled_rows(nuv: tuple, n: tuple, alpha, r, xp=_FLOAT) -> tuple:
    """Scale D = e^{-r (nu.n) alpha} and the rows of the generalized boost
    D * Lambda.  No entry of Lambda exceeds its (0, 0) entry 1 + c0 in size,
    so OutOfRange when D (1 + c0) overflows."""
    exponent = -r * _dot(nuv, n) * alpha
    try:
        d = xp.exp(exponent)
    except OverflowError:
        d = math.inf
    ok = d < math.inf  # an infinite or NaN exponent gives inf or NaN with no error
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "anisotropy r = {} overflows its scale factor", r))
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = _rows(
        nuv, n, alpha, xp)
    ok = d * a0 < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(
            ok, "anisotropy r = {} with rapidity alpha = {} overflows the generalized boost",
            r, alpha))
    return d, [
        [d * a0, d * a1, d * a2, d * a3],
        [d * b0, d * b1, d * b2, d * b3],
        [d * c0, d * c1, d * c2, d * c3],
        [d * e0, d * e1, d * e2, d * e3],
    ]


def _generalized_rows(spec: AnisotropySpec, params: BoostParams) -> tuple:
    """Scale D and the rows of the generalized boost D * Lambda, as floats."""
    return _scaled_rows(_unit3(spec.nu), _unit3(params.n), params.alpha, spec.r)


def boost_matrix(nu: UnitVector3, params: BoostParams) -> np.ndarray:
    """Closed-form finite boost; unimodular and interval-preserving."""
    return _ndarray(_rows(_unit3(nu), _unit3(params.n), params.alpha))


def boost_matrix_inverse(nu: UnitVector3, params: BoostParams) -> np.ndarray:
    """Inverse boost, obtained by negating the rapidity."""
    return boost_matrix(nu, BoostParams(params.n, -params.alpha))


def _compose_vector(nuv: tuple, n1: tuple, a1, n2: tuple, a2, xp=_FLOAT) -> tuple:
    """n alpha of the composite of (n1, a1) then (n2, a2), and its squared
    norm (see compose); OutOfRange when the coefficients overflow."""
    m0, m1, m2 = nuv
    p0, p1, p2 = n1
    q0, q1, q2 = n2
    d1, d2 = m0 * p0 + m1 * p1 + m2 * p2, m0 * q0 + m1 * q1 + m2 * q2
    l1, l2 = d1 * a1, d2 * a2
    lam = l1 + l2
    try:  # b = k1 (n1 - d1 nu) + k2 (n2 - d2 nu)
        k1 = xp.exp(-0.5 * l2) * a1 * xp.sinhc(0.5 * l1)
        k2 = xp.exp(0.5 * l1) * a2 * xp.sinhc(0.5 * l2)
        s = xp.sinhc(0.5 * lam)
    except OverflowError:  # an axis part beyond 1419.56; k1 or k2 is inf beyond about 709.78
        k1 = k2 = s = math.nan
    v0 = (k1 * (p0 - d1 * m0) + k2 * (q0 - d2 * m0)) / s + lam * m0
    v1 = (k1 * (p1 - d1 * m1) + k2 * (q1 - d2 * m1)) / s + lam * m1
    v2 = (k1 * (p2 - d1 * m2) + k2 * (q2 - d2 * m2)) / s + lam * m2
    asq = v0 * v0 + v1 * v1 + v2 * v2
    ok = asq < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(
            ok, "rapidities alpha = {}, {} overflow the composition coefficients", a1, a2))
    return v0, v1, v2, asq


def compose(nu: UnitVector3, g1: BoostParams, g2: BoostParams) -> BoostParams:
    """Group composition: the element whose matrix is L(g2) L(g1).

    g1 acts first.  The law is written in the chart (lambda, b) of the
    group, HOM(2) of Cohen & Glashow (hep-ph/0601236): the axial rapidity
    lambda = (nu.n) alpha and the tangent vector
    b = alpha sinhc(lambda/2) (n - (nu.n) nu) across nu.  g1 then g2 is
    (lambda1 + lambda2, e^{lambda1/2} b2 + e^{-lambda2/2} b1), and
    n alpha = b / sinhc(lambda/2) + lambda nu.  sinhc is even to the bit, so
    an element and its inverse (n, -alpha) cancel exactly.  A result whose
    squared norm n alpha . n alpha is zero or subnormal has no float
    direction; it is the identity, returned as (n = nu, alpha = 0).
    Coefficients that overflow raise OutOfRange.
    """
    v0, v1, v2, asq = _compose_vector(_unit3(nu), _unit3(g1.n), g1.alpha, _unit3(g2.n), g2.alpha)
    if asq < sys.float_info.min:
        return BoostParams.identity(nu)
    alpha = math.sqrt(asq)  # n alpha needs no rescale here: UnitVector3.normalized's bits
    return BoostParams(UnitVector3(v0 / alpha, v1 / alpha, v2 / alpha), alpha)


def _frame_velocity(nuv: tuple, n: tuple, alpha, xp=_FLOAT):
    """velocity_from_params as xp.velocity of its components; OutOfRange
    where the speed rounds to 1."""
    n0, n1, n2 = n
    m0, m1, m2 = nuv
    km, _, c0 = _coefficients(nuv, n, alpha, xp)
    den = 1.0 + c0
    v0, v1, v2 = (km * n0 + c0 * m0) / den, (km * n1 + c0 * m1) / den, (km * n2 + c0 * m2) / den
    try:  # the components are finite, so only the speed check can fail
        return xp.velocity(v0, v1, v2)
    except ValueError:
        raise OutOfRange(xp.explain(
            v0 * v0 + v1 * v1 + v2 * v2 < 1.0, "rapidity alpha = {} with axis part (nu.n)"
            " alpha = {} gives a speed that rounds to 1", alpha, _dot(n, nuv) * alpha)) from None


def velocity_from_params(nu: UnitVector3, params: BoostParams) -> Velocity3:
    """Velocity of the primed frame for group parameters (n, alpha).

    Raises OutOfRange where the rapidity is so large that the speed rounds
    to 1 (from (nu.n) alpha ~ 19 along the axis, alpha ~ 1e4 across it).
    """
    return _frame_velocity(_unit3(nu), _unit3(params.n), params.alpha)


def _velocity_params(nuv: tuple, v: tuple, xp=_FLOAT) -> tuple:
    """(n, alpha) of params_from_velocity, n as a 3-tuple: (nu, 0.0) where
    v.v is zero or subnormal.  On arrays every row is evaluated, and the rows
    at rest are then replaced by (nu, 0.0)."""
    m0, m1, m2 = nuv
    v0, v1, v2 = v
    rest = v0 * v0 + v1 * v1 + v2 * v2 < sys.float_info.min
    if rest is True:
        return nuv, 0.0
    w, gamma_inv, u = _frame_scalars(v, nuv, xp)  # u = 1 - sqrt(1 - v^2)
    t = (gamma_inv - w) / w
    alpha = xp.sqrt(2.0 * u / w) * xp.log1p_over(t)
    p, q = xp.sqrt(2.0 * w * u), xp.sqrt(u / (2.0 * w))
    n = _normalized((v0 / p - q * m0, v1 / p - q * m1, v2 / p - q * m2), xp)
    if rest is not False:
        n0, n1, n2 = n
        n = xp.where(rest, m0, n0), xp.where(rest, m1, n1), xp.where(rest, m2, n2)
        alpha = xp.where(rest, 0.0, alpha)
    return n, alpha


def params_from_velocity(nu: UnitVector3, v: Velocity3) -> BoostParams:
    """Group parameters (n, alpha) of the boost reaching velocity v.

    A velocity whose squared norm v.v is zero or subnormal has no float
    direction; it gives the identity element (n = nu, alpha = 0).  The
    rapidity is evaluated in a cancellation-free form, log1p(t)/t covering
    the degenerate (horosphere) case t = 0 where the textbook quotient is
    0/0.  OutOfRange where 1 - v.nu rounds to 0 or below.
    """
    (x, y, z), alpha = _velocity_params(_unit3(nu), _vel3(v))
    return BoostParams(UnitVector3(x, y, z), alpha)


def _inverse_frame(nuv: tuple, u: tuple, xp=_FLOAT) -> tuple:
    """Velocity reached by the inverse of the element reaching u, on
    3-tuples: [-gamma (1 + s) u_perp + (C - s) nu]/(1 + C) with s = u.nu,
    u_perp = nu x (u x nu) and C = |u x nu|^2/(1 - u^2).  It has the same
    gamma, horosphere level 1/h and perpendicular part -u_perp/h, where
    h = gamma (1 - s) and 1/h = gamma (1 + s)/(1 + C).  Returns that
    velocity and gamma = 1/sqrt(1 - u^2), read from u: the computed
    velocity can round onto the edge of the ball."""
    s = _dot(u, nuv)
    u_x_nu = _cross(u, nuv)
    p0, p1, p2 = _cross(nuv, u_x_nu)
    m0, m1, m2 = nuv
    w = 1.0 - _dot(u, u)
    c = _dot(u_x_nu, u_x_nu) / w
    root = xp.sqrt(w)
    k = (1.0 + s) / root
    cs, den = c - s, 1.0 + c
    return ((m0 * cs - k * p0) / den, (m1 * cs - k * p1) / den,
            (m2 * cs - k * p2) / den), 1.0 / root


def _act(nuv: tuple, u: tuple, w: tuple, x: tuple, g, xp=_FLOAT) -> tuple:
    """Image of velocity x under the boost reaching u, whose inverse reaches
    w; g = 1/sqrt(1 - u^2) is the gamma of both.

    That boost is
    Lambda = [[g, -g u^T], [g w, I - (g w - (g - 1) nu) nu^T - g nu u^T]]:
    its time row is the frame's 4-velocity, its time column the inverse
    frame's.  It acts on velocities projectively, x -> the spatial part of
    Lambda (1, x) over its time part g (1 - u.x).
    """
    (p0, p1, p2), (q0, q1, q2), (m0, m1, m2) = w, x, nuv
    nu_x, u_x = m0 * q0 + m1 * q1 + m2 * q2, u[0] * q0 + u[1] * q1 + u[2] * q2
    a = g * (1.0 - nu_x)
    b = (g - 1.0) * nu_x - g * u_x
    den = g * (1.0 - u_x)
    ok = den > 0.0  # 1 - u.x rounds to 0 or below
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(
            ok, "velocity {} meets the frame {} at the ball's edge", list(x), list(u)))
    return ((a * p0 + q0 + m0 * b) / den, (a * p1 + q1 + m1 * b) / den,
            (a * p2 + q2 + m2 * b) / den)


def _add_velocities(nuv: tuple, a1: tuple, a2: tuple, xp=_FLOAT) -> tuple:
    """add_velocities on 3-tuples: Lambda(a1)^-1 reaches a1's inverse frame."""
    u, g = _inverse_frame(nuv, a1, xp)
    return _act(nuv, u, a1, a2, g, xp)


def add_velocities(nu: UnitVector3, v1: Velocity3, v2: Velocity3) -> Velocity3:
    """Velocity-space composition consistent with compose(g1, g2).

    v2 is prescribed in the axes of the v1-frame (turned so that nu keeps
    its orientation); as v2 approaches nu the result approaches nu
    regardless of v1.
    """
    return Velocity3(*_add_velocities(_unit3(nu), _vel3(v1), _vel3(v2)))


def dilation_factor(spec: AnisotropySpec, v: Velocity3) -> float:
    """Scale factor D = ((1 - v.nu)/sqrt(1 - v^2))^r; strictly positive unless
    it underflows.  OutOfRange where 1 - v.nu rounds to 0 or below."""
    return _r_power(spec.r, _horosphere(_vel3(v), _unit3(spec.nu)), spec.r)


def generalized_boost_matrix(spec: AnisotropySpec, params: BoostParams) -> np.ndarray:
    """Generalized boost D * Lambda with D = e^{-r (nu.n) alpha}."""
    return _ndarray(_scaled_rows(_unit3(spec.nu), _unit3(params.n), params.alpha, spec.r)[1])


def axial_rotation(nu: UnitVector3, phi: float) -> np.ndarray:
    """Passive rotation of the spatial axes by phi about nu; OutOfRange
    naming phi where it is not finite."""
    nuv = _unit3(nu)
    if not math.isfinite(phi):
        raise OutOfRange(f"rotation angle phi = {phi} is not finite")
    c, s = math.cos(phi), math.sin(phi)
    rows = [[1.0, 0.0, 0.0, 0.0]]
    for i, cr in enumerate(_cross_rows(nuv)):
        rows.append(
            [0.0]
            + [c * float(i == j) - s * cr[j] + (1.0 - c) * (nuv[i] * nuv[j]) for j in range(3)]
        )
    return _ndarray(rows)


def translate(x: FourVector, a: FourVector) -> FourVector:
    """Space-time translation; intervals of differences are unchanged.
    OutOfRange naming x and a where the image overflows."""
    try:
        return FourVector(x.t + a.t, x.x + a.x, x.y + a.y, x.z + a.z)
    except OutOfRange:  # an image component is not finite
        raise OutOfRange(f"translate of event {x.to_json()} by {a.to_json()} overflows") from None


def _image(m: tuple, x: tuple, xp=_FLOAT):
    """xp.event of m x for the 16 entries m of a matrix, row by row, and an
    event 4-tuple x."""
    p0, p1, p2, p3, q0, q1, q2, q3, s0, s1, s2, s3, u0, u1, u2, u3 = m
    t, a, b, c = x
    y0, y1 = p0 * t + p1 * a + p2 * b + p3 * c, q0 * t + q1 * a + q2 * b + q3 * c
    y2, y3 = s0 * t + s1 * a + s2 * b + s3 * c, u0 * t + u1 * a + u2 * b + u3 * c
    try:
        return xp.event(y0, y1, y2, y3)
    except OutOfRange:  # an image component is not finite
        raise OutOfRange(xp.explain(
            (y0 - y0) + (y1 - y1) + (y2 - y2) + (y3 - y3) == 0.0,
            "apply_matrix of the matrix {} (row-major) to event {} overflows", list(m), list(x),
        )) from None


def apply_matrix(m, x: FourVector) -> FourVector:
    """m x for a 4x4 ndarray or four rows of four floats; ValueError for
    any other shape, OutOfRange naming m and x where the image overflows."""
    return _image(_m4x4(m), (x.t, x.x, x.y, x.z))
