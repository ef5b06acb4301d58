"""The 4-parameter boost subgroup and the dilatation-carrying generalized boosts.

All transformations are passive: a matrix maps event coordinates of the
initial frame to those of the primed frame.  The velocity returned by
velocity_from_params is the primed frame's velocity seen from the initial
frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    DEFAULT_TOL,
    AnisotropySpec,
    FourVector,
    Tolerance,
    UnitVector3,
    Velocity3,
    _cross,
    _dot,
    _horosphere,
    _t3,
    dot3,
)

if TYPE_CHECKING:
    import numpy as np

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
    "add_velocities_raw",
    "dilation_factor",
    "generalized_boost_matrix",
    "axial_rotation",
    "translate",
    "apply_matrix",
]


@dataclass(frozen=True)
class BoostParams:
    """Boost direction n and rapidity alpha, canonicalized to alpha >= 0.

    The sign ambiguity (n, alpha) <-> (-n, -alpha) leaves the transformation
    unchanged, so negative rapidities are absorbed into the direction.
    """

    n: UnitVector3
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.alpha < 0:
            object.__setattr__(self, "alpha", -self.alpha)
            object.__setattr__(self, "n", -self.n)

    @classmethod
    def identity(cls, nu: UnitVector3) -> "BoostParams":
        return cls(n=nu, alpha=0.0)

    def to_json(self) -> dict:
        return {"n": self.n.to_json(), "alpha": self.alpha}

    @classmethod
    def from_json(cls, obj) -> "BoostParams":
        return cls(UnitVector3.from_json(obj["n"]), float(obj["alpha"]))


# The closed forms have removable singularities only in expm1(x)/x and
# log1p(t)/t; below the switch threshold an explicit Taylor series
# replaces each of the two.

def _exprel(x: float, switch: float) -> float:
    """expm1(x) / x; tends to 1 as x -> 0."""
    if abs(x) < switch:
        return 1.0 + x / 2 + x * x / 6 + x**3 / 24 + x**4 / 120
    return math.expm1(x) / x


def _log1p_over(t: float, switch: float) -> float:
    """log(1 + t) / t; tends to 1 as t -> 0."""
    if abs(t) < switch:
        return 1.0 - t / 2 + t * t / 3 - t**3 / 4
    return math.log1p(t) / t


def _coefficients(nu: UnitVector3, params: BoostParams, switch: float):
    """Fields of n and nu, and the boost coefficients with a = (nu.n) alpha:
    km = (1 - e^{-a}) alpha / a, kp = (1 - e^{a}) alpha / a and
    c0 = (cosh a - 1) alpha^2 / a^2 = -km kp / 2."""
    n, nuv, alpha = _t3(params.n), _t3(nu), params.alpha
    a = _dot(nuv, n) * alpha
    km = alpha * _exprel(-a, switch)
    kp = -alpha * _exprel(a, switch)
    return n, nuv, km, kp, -0.5 * km * kp


def _cross_rows(m: tuple) -> list:
    """Rows of the matrix of the map x -> m x x."""
    return [[0.0, -m[2], m[1]], [m[2], 0.0, -m[0]], [-m[1], m[0], 0.0]]


def generator(nu: UnitVector3, n: UnitVector3) -> np.ndarray:
    """Infinitesimal boost matrix G with dx = G x dalpha.

    The time row and column carry the pure boost along n; the spatial
    block is the rotation generator about nu x n that keeps the preferred
    axis fixed in the moving frame.
    """
    import numpy as np

    nv = _t3(n)
    rows = [[0.0, *[-c for c in nv]]]
    for c, row in zip(nv, _cross_rows(_cross(_t3(nu), nv))):
        rows.append([-c, *row])
    return np.array(rows)


def generalized_generator(spec: AnisotropySpec, n: UnitVector3) -> np.ndarray:
    """Boost generator plus the compensating scale generator -r (nu.n) I."""
    import numpy as np

    s = dot3(spec.nu, n)
    return generator(spec.nu, n) - spec.r * s * np.eye(4)


def _boost_rows(
    nu: UnitVector3, params: BoostParams, switch: float, scale: float = 1.0
) -> list:
    """Rows of scale * Lambda as four lists of four floats."""
    (n0, n1, n2), (m0, m1, m2), km, kp, c0 = _coefficients(nu, params, switch)
    r1, r2, r3 = -(km * n0 + c0 * m0), -(km * n1 + c0 * m1), -(km * n2 + c0 * m2)
    # spatial entry (i, j) is delta_ij - kp n_i nu_j + nu_i r_j; starting
    # off the diagonal from delta_ij = 0.0 fixes the sign of a zero entry,
    # which the CLI prints (-0.0 and 0.0 differ)
    rows = [
        [1.0 + c0, r1, r2, r3],
        [kp * n0 + c0 * m0, 1.0 - kp * (n0 * m0) + m0 * r1,
         0.0 - kp * (n0 * m1) + m0 * r2, 0.0 - kp * (n0 * m2) + m0 * r3],
        [kp * n1 + c0 * m1, 0.0 - kp * (n1 * m0) + m1 * r1,
         1.0 - kp * (n1 * m1) + m1 * r2, 0.0 - kp * (n1 * m2) + m1 * r3],
        [kp * n2 + c0 * m2, 0.0 - kp * (n2 * m0) + m2 * r1,
         0.0 - kp * (n2 * m1) + m2 * r2, 1.0 - kp * (n2 * m2) + m2 * r3],
    ]
    if scale == 1.0:
        return rows
    return [[scale * c for c in row] for row in rows]


def _generalized_rows(
    spec: AnisotropySpec, params: BoostParams, tol: Tolerance
) -> list:
    """Rows of the generalized boost D * Lambda with D = e^{-r (nu.n) alpha}."""
    d = math.exp(-spec.r * dot3(spec.nu, params.n) * params.alpha)
    return _boost_rows(spec.nu, params, tol.limit_switch, d)


def boost_matrix(
    nu: UnitVector3, params: BoostParams, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Closed-form finite boost; unimodular and interval-preserving."""
    import numpy as np

    return np.array(_boost_rows(nu, params, tol.limit_switch))


def boost_matrix_inverse(
    nu: UnitVector3, params: BoostParams, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Inverse boost, obtained by negating the rapidity."""
    return boost_matrix(nu, BoostParams(params.n, -params.alpha), tol)


def compose(
    nu: UnitVector3,
    g1: BoostParams,
    g2: BoostParams,
    tol: Tolerance = DEFAULT_TOL,
) -> BoostParams:
    """Group composition: the element whose matrix is L(g2) L(g1).

    g1 acts first.  A result below abs_tol in norm is the identity and is
    returned as (n = nu, alpha = 0).
    """
    nuv = _t3(nu)
    n1, a1 = _t3(g1.n), g1.alpha
    n2, a2 = _t3(g2.n), g2.alpha
    s1a = _dot(nuv, n1) * a1
    s2a = _dot(nuv, n2) * a2
    x = _dot(nuv, [p * a1 + q * a2 for p, q in zip(n1, n2)])
    c1 = -a1 * _exprel(s1a, tol.limit_switch)
    c2 = -math.exp(s1a) * a2 * _exprel(s2a, tol.limit_switch)
    pref = -1.0 / _exprel(x, tol.limit_switch)  # x / (1 - e^x)
    vec = [pref * (c1 * p + c2 * q) for p, q in zip(n1, n2)]
    alpha = math.sqrt(_dot(vec, vec))
    if alpha < tol.abs_tol:
        return BoostParams.identity(nu)
    return BoostParams(UnitVector3.normalized(vec), alpha)


def velocity_from_params(
    nu: UnitVector3, params: BoostParams, tol: Tolerance = DEFAULT_TOL
) -> Velocity3:
    """Velocity of the primed frame for group parameters (n, alpha)."""
    n, nuv, km, _, c0 = _coefficients(nu, params, tol.limit_switch)
    return Velocity3(*[(km * p + c0 * q) / (1.0 + c0) for p, q in zip(n, nuv)])


def params_from_velocity(
    nu: UnitVector3, v: Velocity3, tol: Tolerance = DEFAULT_TOL
) -> BoostParams:
    """Group parameters (n, alpha) of the boost reaching velocity v.

    Velocities below abs_tol return the identity element by convention.
    The rapidity is evaluated in a cancellation-free form whose series
    branch covers the degenerate (horosphere) band where the textbook
    quotient is 0/0.
    """
    vv = _t3(v)
    vsq = _dot(vv, vv)
    if math.sqrt(vsq) < tol.abs_tol:
        return BoostParams.identity(nu)
    nuv = _t3(nu)
    w = 1.0 - _dot(vv, nuv)
    gamma_inv = math.sqrt(1.0 - vsq)
    u = vsq / (1.0 + gamma_inv)  # 1 - sqrt(1 - v^2), cancellation-free
    t = (gamma_inv - w) / w
    alpha = math.sqrt(2.0 * u / w) * _log1p_over(t, tol.limit_switch)
    p, q = math.sqrt(2.0 * w * u), math.sqrt(u / (2.0 * w))
    n_vec = [c / p - q * m for c, m in zip(vv, nuv)]
    return BoostParams(UnitVector3.normalized(n_vec), alpha)


def _add_velocities(nuv: tuple, a1: tuple, a2: tuple) -> tuple:
    """Velocity composition on float 3-tuples."""
    g1s = math.sqrt(1.0 - _dot(a1, a1))
    d1 = 1.0 - _dot(a1, nuv)
    nu_v2 = _dot(nuv, a2)
    v1_v2 = _dot(a1, a2)
    along = v1_v2 + nu_v2 * (g1s - 1.0)
    den = d1 + v1_v2 * g1s + nu_v2 * (d1 + g1s) * (g1s - 1.0)
    return tuple(
        ((p * (1.0 - nu_v2) + q * g1s) * d1 + m * along * g1s) / den
        for p, q, m in zip(a1, a2, nuv)
    )


def add_velocities_raw(nu: UnitVector3, a1, a2) -> np.ndarray:
    """Velocity composition on plain arrays; admits the boundary point
    a2 = nu, where the result is nu regardless of a1."""
    import numpy as np

    return np.array(_add_velocities(_t3(nu), _t3(a1), _t3(a2)))


def add_velocities(nu: UnitVector3, v1: Velocity3, v2: Velocity3) -> Velocity3:
    """Velocity-space composition consistent with compose(g1, g2).

    v2 is prescribed in the axes of the v1-frame (turned so that nu keeps
    its orientation); as v2 approaches nu the result approaches nu
    regardless of v1.
    """
    return Velocity3(*_add_velocities(_t3(nu), _t3(v1), _t3(v2)))


def dilation_factor(spec: AnisotropySpec, v: Velocity3) -> float:
    """Scale factor D = ((1 - v.nu)/sqrt(1 - v^2))^r; strictly positive."""
    return _horosphere(_t3(v), _t3(spec.nu)) ** spec.r


def generalized_boost_matrix(
    spec: AnisotropySpec, params: BoostParams, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Generalized boost D * Lambda with D = e^{-r (nu.n) alpha}."""
    import numpy as np

    return np.array(_generalized_rows(spec, params, tol))


def axial_rotation(nu: UnitVector3, phi: float) -> np.ndarray:
    """Passive rotation of the spatial axes by phi about nu."""
    import numpy as np

    nuv = _t3(nu)
    c, s = math.cos(phi), math.sin(phi)
    rows = [[1.0, 0.0, 0.0, 0.0]]
    for i, cr in enumerate(_cross_rows(nuv)):
        rows.append(
            [0.0]
            + [c * float(i == j) - s * cr[j] + (1.0 - c) * (nuv[i] * nuv[j]) for j in range(3)]
        )
    return np.array(rows)


def translate(x: FourVector, a: FourVector) -> FourVector:
    """Space-time translation; intervals of differences are unchanged."""
    return FourVector(x.t + a.t, x.x + a.x, x.y + a.y, x.z + a.z)


def apply_matrix(m, x: FourVector) -> FourVector:
    """m x for a 4x4 ndarray or four rows of four floats."""
    t, a, b, c = x.t, x.x, x.y, x.z
    rows = m.tolist() if hasattr(m, "tolist") else m
    return FourVector(*[r0 * t + r1 * a + r2 * b + r3 * c for r0, r1, r2, r3 in rows])
