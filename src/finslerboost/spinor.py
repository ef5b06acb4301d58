"""Dirac matrix algebra and the bispinor representation of the boosts.

The gamma matrices are fixed to the standard Dirac representation; every
quantity exposed here (intertwining, power identities, invariants) is
representation-independent, so the choice is free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boost import BoostParams, _exprel, dilation_factor, params_from_velocity
from .core import (
    DEFAULT_TOL,
    AnisotropySpec,
    DegenerateRatio,
    NullDensity,
    Tolerance,
    UnitVector3,
    Velocity3,
    _cross,
    _dot,
    _horosphere,
    _t3,
    cross3,
    dot3,
)

__all__ = [
    "GammaBasis",
    "gamma_basis",
    "spinor_generator",
    "spinor_boost",
    "bispinor_matrix",
    "bispinor_transform",
    "dirac_adjoint",
    "bilinear_current",
    "finsler_bispinor_invariant",
    "bispinor_matrix_via_params",
]

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class GammaBasis:
    """Dirac matrices gamma^0..gamma^3 and the spin matrices Sigma^1..Sigma^3."""

    gamma: tuple
    sigma: tuple


@lru_cache(maxsize=1)
def gamma_basis() -> GammaBasis:
    """Standard Dirac representation: gamma^0 diagonal, Sigma = diag(sigma, sigma)."""
    g0 = np.diag([1, 1, -1, -1]).astype(complex)
    gammas = [g0]
    sigmas = []
    for sk in _SIGMA:
        gk = np.zeros((4, 4), dtype=complex)
        gk[:2, 2:] = sk
        gk[2:, :2] = -sk
        gammas.append(gk)
        sigmas.append(np.kron(np.eye(2), sk))
    for m in gammas + sigmas:
        m.setflags(write=False)
    return GammaBasis(tuple(gammas), tuple(sigmas))


def _gamma_dot(vec) -> np.ndarray:
    g = gamma_basis().gamma
    return vec[0] * g[1] + vec[1] * g[2] + vec[2] * g[3]


def _sigma_dot(vec) -> np.ndarray:
    s = gamma_basis().sigma
    return vec[0] * s[0] + vec[1] * s[1] + vec[2] * s[2]


def spinor_generator(nu: UnitVector3, n: UnitVector3) -> np.ndarray:
    """Spin-space generator: boost along n plus rotation about nu x n.

    Squares to (nu.n)^2 I; nilpotent when n is orthogonal to nu.
    """
    g0 = gamma_basis().gamma[0]
    m = cross3(nu, n)
    return -g0 @ _gamma_dot(n.as_array()) - 1j * _sigma_dot(m)


def spinor_boost(
    nu: UnitVector3, params: BoostParams, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Closed-form spin matrix S(nu; n, alpha) = exp(K alpha / 2).

    The power identities of the generator K terminate the exponential:
    S = I cosh(a/2) + K (alpha/2) sinh(a/2)/(a/2) with a = (nu.n) alpha.
    For n orthogonal to nu this reduces exactly to I + K alpha / 2.
    """
    k = spinor_generator(nu, params.n)
    a = dot3(nu, params.n) * params.alpha
    half = 0.5 * a
    # sinh(h)/h = (exprel(h) + exprel(-h)) / 2, with no cancellation
    sinhc = 0.5 * (_exprel(half, tol.limit_switch) + _exprel(-half, tol.limit_switch))
    return math.cosh(half) * np.eye(4, dtype=complex) + (0.5 * params.alpha * sinhc) * k


def bispinor_matrix(spec: AnisotropySpec, v: Velocity3) -> np.ndarray:
    """Closed-form bispinor transformation matrix D^{-3/2} S in terms of v."""
    nuv = _t3(spec.nu)
    vv = _t3(v)
    vnu = _dot(vv, nuv)
    root = math.sqrt(1.0 - _dot(vv, vv))
    level = _horosphere(vv, nuv)
    pref = level ** (-1.5 * spec.r) / (2.0 * math.sqrt((1.0 - vnu) * root))
    g0 = gamma_basis().gamma[0]
    bracket = (
        (1.0 - vnu + root) * np.eye(4, dtype=complex)
        - 1j * _sigma_dot(_cross(nuv, vv))
        - g0 @ _gamma_dot([p - (1.0 - root) * u for p, u in zip(vv, nuv)])
    )
    return pref * bracket


def bispinor_transform(
    spec: AnisotropySpec, v: Velocity3, psi: np.ndarray
) -> np.ndarray:
    """Apply the generalized bispinor boost to psi."""
    return bispinor_matrix(spec, v) @ np.asarray(psi, dtype=complex)


def dirac_adjoint(psi: np.ndarray) -> np.ndarray:
    """Row bispinor psi-dagger gamma^0."""
    psi = np.asarray(psi, dtype=complex)
    return psi.conj() @ gamma_basis().gamma[0]


def bilinear_current(psi: np.ndarray) -> np.ndarray:
    """Vector current j^n = psibar gamma^n psi (4 real components)."""
    psi = np.asarray(psi, dtype=complex)
    bar = dirac_adjoint(psi)
    return np.array([float((bar @ g @ psi).real) for g in gamma_basis().gamma])


def _real_part(z: complex, scale: float, tol: Tolerance) -> float:
    if abs(z.imag) > tol.abs_tol * max(1.0, scale):
        raise ValueError(f"expected a real bilinear, got imaginary part {z.imag}")
    return float(z.real)


def finsler_bispinor_invariant(
    spec: AnisotropySpec, psi: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Anisotropy-weighted scalar density, invariant under bispinor boosts.

    Returns [((nu_n j^n)/rho)^2]^{-3r/2} rho with rho = psibar psi and
    nu_n = (1, -nu).  Singular at rho = 0 (NullDensity) and, for r > 0,
    when the current is null along the preferred direction.
    """
    psi = np.asarray(psi, dtype=complex)
    bar = dirac_adjoint(psi)
    scale = float(np.vdot(psi, psi).real)
    rho = _real_part(complex(bar @ psi), scale, tol)
    if abs(rho) < tol.abs_tol * max(1.0, scale):
        raise NullDensity("psibar psi vanishes; the invariant form is singular")
    j = bilinear_current(psi)
    q = (j[0] - dot3(spec.nu, j[1:])) / rho
    if q == 0.0:
        if spec.r > 0:
            raise DegenerateRatio("current null along the preferred direction")
        if spec.r < 0:
            return 0.0
        return rho
    return (q * q) ** (-1.5 * spec.r) * rho


# D^{-3/2} S through the parametrization maps; the production path is the
# closed form in bispinor_matrix, this is its cross-check.
def bispinor_matrix_via_params(
    spec: AnisotropySpec, v: Velocity3, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    params = params_from_velocity(spec.nu, v, tol)
    d = dilation_factor(spec, v)
    return d ** -1.5 * spinor_boost(spec.nu, params, tol)
