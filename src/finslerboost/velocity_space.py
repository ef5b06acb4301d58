"""Lobachevsky geometry of the 3-velocity ball and its invariant surfaces.

Boosts act on velocity space as isometries.  The Abelian subgroup leaves
each horosphere level set invariant; the axial subgroup leaves each
equidistant cylinder invariant.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .boost import (
    BoostParams,
    add_velocities,
    params_from_velocity,
    velocity_from_params,
)
from .core import (
    DEFAULT_TOL,
    FourVector,
    OutOfRange,
    Tolerance,
    UnitVector3,
    Velocity3,
    _cross,
    _dot,
    _horosphere,
    _t3,
    norm3,
)
from .subgroups import AbelianParams, abelian_transform, perpendicular_to

__all__ = [
    "SurfaceSample",
    "lobachevsky_distance",
    "horosphere_level",
    "cylinder_level",
    "induced_motion",
    "sample_surface",
]

SURFACE_CHECK_TOL = 1e-8


def lobachevsky_distance(v1: Velocity3, v2: Velocity3) -> float:
    """Hyperbolic distance: artanh of the Einstein relative speed."""
    a1, a2 = _t3(v1), _t3(v2)
    diff = [p - q for p, q in zip(a1, a2)]
    crs = _cross(a1, a2)
    den = 1.0 - _dot(a1, a2)
    wsq = (_dot(diff, diff) - _dot(crs, crs)) / (den * den)
    w = math.sqrt(max(wsq, 0.0))
    return math.atanh(min(w, 1.0 - 1e-16))


def horosphere_level(nu: UnitVector3, v: Velocity3) -> float:
    """(1 - v.nu)/sqrt(1 - v^2); strictly positive."""
    return _horosphere(_t3(v), _t3(nu))


def cylinder_level(nu: UnitVector3, v: Velocity3) -> float:
    """|v x nu|^2/(1 - v^2); zero iff v is parallel to nu.  Unlike
    v^2 - (v.nu)^2, the cross product does not cancel near the axis."""
    vv = _t3(v)
    c = _cross(vv, _t3(nu))
    return _dot(c, c) / (1.0 - _dot(vv, vv))


def induced_motion(
    nu: UnitVector3,
    frame_v: Velocity3,
    v: Velocity3,
    tol: Tolerance = DEFAULT_TOL,
) -> Velocity3:
    """Image of velocity v in the frame moving at frame_v.

    Realized through the group action: the inverse of the boost reaching
    frame_v is composed with the element reaching v, with the subgroup's
    compensating axis turn built into the addition law.  Preserves the
    Lobachevsky distance between any two velocities.
    """
    if frame_v.speed() < tol.abs_tol:
        return v
    g = params_from_velocity(nu, frame_v, tol)
    back_v = velocity_from_params(nu, BoostParams(g.n, -g.alpha), tol)
    return add_velocities(nu, back_v, v)


@dataclass(frozen=True)
class SurfaceSample:
    """Deterministic grid of velocity points on one invariant level set."""

    family: str  # "horosphere" | "cylinder"
    level: float
    points: tuple = field(default_factory=tuple)

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
    e1 = perpendicular_to(nu)
    e2 = UnitVector3.normalized(np.cross(nu.as_array(), e1.as_array()))
    return e1.as_array(), e2.as_array()


def _verify(nu, family, level, v: Velocity3) -> Velocity3:
    got = horosphere_level(nu, v) if family == "horosphere" else cylinder_level(nu, v)
    if abs(got - level) > SURFACE_CHECK_TOL * max(1.0, abs(level)):
        raise AssertionError(
            f"sampled point re-evaluates to {got}, expected level {level}"
        )
    return v


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
    azimuth; level 0 degenerates to the diameter parallel to nu.

    Every emitted point is re-checked against its family function.
    """
    n1, n2 = resolution
    if n1 < 1 or n2 < 1:
        raise ValueError("resolution must be at least 1x1")
    nuv = nu.as_array()
    e1, e2 = _plane_basis(nu)
    points = []
    if family == "horosphere":
        if level <= 0:
            raise OutOfRange("horosphere level must be strictly positive")
        alpha0 = -math.log(level)
        base = FourVector.from_array(
            np.concatenate(([math.cosh(alpha0)], math.sinh(alpha0) * nuv))
        )
        for b1 in np.linspace(-extent, extent, n1):
            for b2 in np.linspace(-extent, extent, n2):
                w = b1 * e1 + b2 * e2
                mag = norm3(w)
                if mag == 0.0:
                    u = base
                else:
                    p = AbelianParams(UnitVector3.normalized(w / mag), mag)
                    u = abelian_transform(nu, p, base)
                v = Velocity3.from_array(u.spatial() / u.t)
                points.append(_verify(nu, family, level, v))
    elif family == "cylinder":
        if level < 0:
            raise OutOfRange("cylinder level must be nonnegative")
        for t in np.linspace(-extent, extent, n1):
            a = math.tanh(t)
            if level == 0.0:
                points.append(_verify(nu, family, level, Velocity3.from_array(a * nuv)))
                continue
            rho = math.sqrt(level * (1.0 - a * a) / (1.0 + level))
            for theta in np.linspace(0.0, 2.0 * math.pi, n2, endpoint=False):
                v = Velocity3.from_array(
                    a * nuv + rho * (math.cos(theta) * e1 + math.sin(theta) * e2)
                )
                points.append(_verify(nu, family, level, v))
    else:
        raise ValueError(f"unknown surface family: {family!r}")
    return SurfaceSample(family=family, level=float(level), points=tuple(points))
