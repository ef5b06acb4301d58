"""Lobachevsky geometry of the 3-velocity ball and its invariant surfaces.

Boosts act on velocity space as isometries.  The Abelian subgroup leaves
each horosphere level set invariant; the axial subgroup leaves each
equidistant cylinder invariant.
"""
from __future__ import annotations

import csv
import math

from .boost import _act, _inverse_frame
from .core import (
    _FLOAT,
    OutOfRange,
    UnitVector3,
    Velocity3,
    _cross,
    _dot,
    _horosphere,
    _seq,
    _unit3,
    _Value,
    _vel3,
)
from .subgroups import _abelian, perpendicular_to

__all__ = [
    "SurfaceSample",
    "lobachevsky_distance",
    "horosphere_level",
    "cylinder_level",
    "induced_motion",
    "sample_surface",
]

SURFACE_CHECK_TOL = 1e-8


def _distance(a1: tuple, a2: tuple, xp=_FLOAT) -> float:
    """lobachevsky_distance of two velocity 3-tuples."""
    diff = (a1[0] - a2[0], a1[1] - a2[1], a1[2] - a2[2])
    w1, w2 = 1.0 - _dot(a1, a1), 1.0 - _dot(a2, a2)
    proj = _dot(a1, diff)
    return xp.asinh(xp.sqrt(w1 * _dot(diff, diff) + proj * proj) / xp.sqrt(w1 * w2))


def lobachevsky_distance(v1: Velocity3, v2: Velocity3) -> float:
    """Hyperbolic distance d with sinh d = g1 g2 sqrt((1 - v1.v2)^2 - w1 w2),
    wi = 1 - vi^2 = 1/gi^2.  With D = v1 - v2 the radicand is
    w1 |D|^2 + (v1.D)^2, two non-negative terms, so nothing cancels."""
    return _distance(_vel3(v1), _vel3(v2))


def horosphere_level(nu: UnitVector3, v: Velocity3) -> float:
    """(1 - v.nu)/sqrt(1 - v^2); strictly positive.  OutOfRange where
    1 - v.nu rounds to 0 or below, at the ball's edge along nu."""
    return _horosphere(_vel3(v), _unit3(nu))


def _cylinder(v: tuple, nuv: tuple) -> float:
    """cylinder_level of a velocity 3-tuple."""
    c = _cross(v, nuv)
    return _dot(c, c) / (1.0 - _dot(v, v))


def cylinder_level(nu: UnitVector3, v: Velocity3) -> float:
    """|v x nu|^2/(1 - v^2); zero iff v is parallel to nu.  Unlike
    v^2 - (v.nu)^2, the cross product does not cancel near the axis."""
    return _cylinder(_vel3(v), _unit3(nu))


def induced_motion(nu: UnitVector3, frame_v: Velocity3, v: Velocity3) -> Velocity3:
    """Image of velocity v in the frame moving at frame_v.

    Realized through the group action: the boost reaching frame_v acts on
    v projectively (boost._act), with the subgroup's compensating axis turn
    built into its matrix.  Preserves the Lobachevsky distance between any
    two velocities; a frame at rest is the identity.
    """
    nuv, u, x = _unit3(nu), _vel3(frame_v), _vel3(v)
    w, g = _inverse_frame(nuv, u)
    return Velocity3(*_act(nuv, u, w, x, g))


class SurfaceSample(_Value):
    """Deterministic grid of velocity points on one invariant level set of
    the family "horosphere" or "cylinder"."""

    __slots__ = ("family", "level", "points")

    def __init__(self, family: str, level: float, points: tuple = ()):
        set_family, set_level, set_points = SurfaceSample._setters
        set_family(self, family)
        set_level(self, level)
        set_points(self, points)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "level": self.level,
            "points": [p.to_json() for p in self.points],
        }

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(["vx", "vy", "vz", "level"])
        for p in self.points:
            writer.writerow([repr(p.vx), repr(p.vy), repr(p.vz), repr(self.level)])


def _plane_basis(nu: UnitVector3):
    e1 = _unit3(perpendicular_to(nu))
    return e1, _unit3(UnitVector3.normalized(_cross(_unit3(nu), e1)))


def _linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list:
    """num evenly spaced floats start + (stop - start) i / div; the last is
    stop when endpoint is true."""
    div = max(num - 1, 1) if endpoint else num
    points = [start + (stop - start) * i / div for i in range(num)]
    if endpoint and num > 1:
        points[-1] = stop
    return points


def _verify(nu, family, level, v: tuple) -> Velocity3:
    """The point v, after checking that it re-evaluates to its level; a
    speed that rounds to 1 re-evaluates to inf."""
    try:
        p = Velocity3(*v)
    except ValueError:  # the speed rounds to 1, or a component overflowed
        got = math.inf
    else:
        got = horosphere_level(nu, p) if family == "horosphere" else cylinder_level(nu, p)
    if not abs(got - level) <= SURFACE_CHECK_TOL * max(1.0, abs(level)):  # nan fails
        raise OutOfRange(
            f"sampled point re-evaluates to {got}, expected level {level}"
        )
    return p


def sample_surface(
    nu: UnitVector3,
    family: str,
    level: float,
    resolution: tuple = (8, 8),
    extent: float = 2.0,
) -> SurfaceSample:
    """Sample one member of an invariant surface family.

    Horospheres (level > 0) are swept by their Euclidean inner plane
    coordinates, realized as the Abelian-subgroup orbit of the axial point
    at that level.  Cylinders (level >= 0) are swept by axial rapidity and
    azimuth; level 0 degenerates to the diameter parallel to nu, sampled at
    resolution[0] rapidities, and resolution[1] is not used.

    Every emitted point is re-checked against its family function.
    """
    n1, n2 = _seq(resolution, 2)
    if n1 < 1 or n2 < 1:
        raise ValueError("resolution must be at least 1x1")
    if not math.isfinite(level):
        raise OutOfRange(f"surface level must be finite: {level}")
    if not math.isfinite(extent):
        raise OutOfRange(f"surface extent must be finite: {extent}")
    nuv = _unit3(nu)
    e1, e2 = _plane_basis(nu)
    points = []
    if family == "horosphere":
        if level <= 0:
            raise OutOfRange("horosphere level must be strictly positive")
        alpha0 = -math.log(level)
        try:
            sh, ch = math.sinh(alpha0), math.cosh(alpha0)
        except OverflowError:  # a level below about 2.8e-309
            raise OutOfRange(f"horosphere level = {level} overflows") from None
        base = (ch, sh * nuv[0], sh * nuv[1], sh * nuv[2])
        for b1 in _linspace(-extent, extent, n1):
            for b2 in _linspace(-extent, extent, n2):
                w = tuple(b1 * p + b2 * q for p, q in zip(e1, e2))
                try:
                    u = _abelian(nuv, w, base)
                except ValueError:  # an event component overflowed
                    raise OutOfRange(f"horosphere extent = {extent} overflows") from None
                points.append(_verify(nu, family, level, (u.x / u.t, u.y / u.t, u.z / u.t)))
    elif family == "cylinder":
        if level < 0:
            raise OutOfRange("cylinder level must be nonnegative")
        for t in _linspace(-extent, extent, n1):
            a = math.tanh(t)
            if level == 0.0:
                points.append(_verify(nu, family, level, tuple(a * c for c in nuv)))
                continue
            rho = math.sqrt(level * (1.0 - a * a) / (1.0 + level))
            for theta in _linspace(0.0, 2.0 * math.pi, n2, endpoint=False):
                ct, st = math.cos(theta), math.sin(theta)
                v = tuple(a * c + rho * (ct * p + st * q) for c, p, q in zip(nuv, e1, e2))
                points.append(_verify(nu, family, level, v))
    else:
        raise ValueError(f"unknown surface family: {family!r}")
    return SurfaceSample(family=family, level=float(level), points=tuple(points))
