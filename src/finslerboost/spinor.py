"""Dirac matrix algebra and the bispinor representation of the boosts.

The gamma matrices are fixed to the standard Dirac representation; every
quantity exposed here (intertwining, power identities, invariants) is
representation-independent, so the choice is free.

In this basis every generator and transform here has the block form
[[A, B], [B, A]] with A = a I - i sigma.p and B = -sigma.q, where sigma
are the Pauli matrices.  The 2x2 blocks are computed on Python complex
numbers; a 4x4 ndarray is assembled only when a function returns one.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .boost import BoostParams
from .core import (
    _FLOAT,
    AnisotropySpec,
    NullDensity,
    OutOfRange,
    Tolerance,
    UnitVector3,
    Velocity3,
    _cross,
    _frame_scalars,
    _ndarray,
    _pairs,
    _r_power,
    _seq,
    _unit3,
    _Value,
    _vel3,
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
]


class GammaBasis(_Value):
    """Dirac matrices gamma^0..gamma^3 and the spin matrices Sigma^1..Sigma^3."""

    __slots__ = ("gamma", "sigma")

    def __init__(self, gamma: tuple, sigma: tuple):
        set_gamma, set_sigma = GammaBasis._setters
        set_gamma(self, gamma)
        set_sigma(self, sigma)

    def _key(self) -> tuple:
        # an ndarray compares elementwise and does not hash: read its entries
        return _entries(self._values())


def _entries(x):
    """x, an ndarray or nested sequences of them, as nested tuples of entries."""
    x = x.tolist() if hasattr(x, "tolist") else x
    return tuple(map(_entries, x)) if isinstance(x, (list, tuple)) else x


@lru_cache(maxsize=1)
def gamma_basis() -> GammaBasis:
    """Standard Dirac representation: gamma^0 = diag(1, 1, -1, -1),
    gamma^k = [[0, sigma_k], [-sigma_k, 0]] and Sigma^k = kron(I, sigma_k),
    entry by entry, so that the signed zeros are those numpy's kron gives."""
    pauli = (((0j, 1 + 0j), (1 + 0j, 0j)), ((0j, -1j), (1j, 0j)), ((1 + 0j, 0j), (0j, -1 + 0j)))
    gammas = [[[complex(d * (i == j)) for j in range(4)] for i, d in enumerate((1, 1, -1, -1))]]
    gammas += [[[0j, 0j, *u], [0j, 0j, *l], [-u[0], -u[1], 0j, 0j], [-l[0], -l[1], 0j, 0j]]
               for u, l in pauli]
    sigmas = [[[complex(i == j) * c for j in range(2) for c in row] for i in range(2) for row in s]
              for s in pauli]
    matrices = [_ndarray(m, complex) for m in gammas + sigmas]
    for m in matrices:
        m.setflags(write=False)
    return GammaBasis(tuple(matrices[:4]), tuple(matrices[4:]))


def _blocks(a, p, q, xp=_FLOAT) -> tuple:
    """Rows of the blocks A = a I - i sigma.p and B = -sigma.q."""
    px, py, pz = p
    qx, qy, qz = q
    c = xp.complex
    return (
        ((c(a, -pz), c(-py, -px)), (c(py, -px), c(a, pz))),
        ((c(-qz, 0.0), c(-qx, qy)), (c(-qx, -qy), c(qz, 0.0))),
    )


def _matrix(blocks, build=_ndarray):
    """The 4x4 matrix [[A, B], [B, A]], built from its rows of complex
    entries by build(rows, complex)."""
    (a0, a1), (b0, b1) = blocks
    return build([[*a0, *b0], [*a1, *b1], [*b0, *a0], [*b1, *a1]], complex)


def _sum4(m0, x0, m1, x1, m2, x2, m3, x3, xp=_FLOAT):
    """m0 x0 + m1 x1 + m2 x2 + m3 x3 of complex numbers or complex arrays,
    summed left to right, each product written on the real and imaginary
    parts as Python multiplies complex numbers."""
    re = ((m0.real * x0.real - m0.imag * x0.imag) + (m1.real * x1.real - m1.imag * x1.imag)
          + (m2.real * x2.real - m2.imag * x2.imag) + (m3.real * x3.real - m3.imag * x3.imag))
    im = ((m0.real * x0.imag + m0.imag * x0.real) + (m1.real * x1.imag + m1.imag * x1.real)
          + (m2.real * x2.imag + m2.imag * x2.real) + (m3.real * x3.imag + m3.imag * x3.real))
    return xp.complex(re, im)


def _apply(blocks, psi: tuple, xp=_FLOAT) -> tuple:
    """[[A, B], [B, A]] psi for psi = (u0, u1, l0, l1)."""
    (a0, a1), (b0, b1) = blocks
    u0, u1, l0, l1 = psi
    return (
        _sum4(a0[0], u0, a0[1], u1, b0[0], l0, b0[1], l1, xp),
        _sum4(a1[0], u0, a1[1], u1, b1[0], l0, b1[1], l1, xp),
        _sum4(b0[0], u0, b0[1], u1, a0[0], l0, a0[1], l1, xp),
        _sum4(b1[0], u0, b1[1], u1, a1[0], l0, a1[1], l1, xp),
    )


def _c4(psi) -> tuple:
    """Four complex numbers of any 4-sequence; OutOfRange naming psi when one is not finite."""
    u0, u1, l0, l1 = _seq(psi, 4)
    psi = complex(u0), complex(u1), complex(l0), complex(l1)
    if not all(map(cmath.isfinite, psi)):
        raise OutOfRange(f"bispinor {_pairs(psi)} is not finite")
    return psi


def spinor_generator(nu: UnitVector3, n: UnitVector3) -> np.ndarray:
    """Spin-space generator: boost along n plus rotation about nu x n.

    Squares to (nu.n)^2 I; nilpotent when n is orthogonal to nu.
    """
    nv = _unit3(n)
    return _matrix(_blocks(0.0, _cross(_unit3(nu), nv), nv))


def _spin_parts(nuv: tuple, nv: tuple, alpha, xp=_FLOAT) -> tuple:
    """a, p and q of the blocks of S(nu; n, alpha) (see spinor_boost)."""
    (m0, m1, m2), (n0, n1, n2) = nuv, nv
    half = 0.5 * ((m0 * n0 + m1 * n1 + m2 * n2) * alpha)
    try:
        sinhc = xp.sinhc(half)
    except OverflowError:  # |(nu.n) alpha| > 1419.56, before cosh(half) overflows
        sinhc = math.nan
    f = 0.5 * alpha * sinhc
    ok = f < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "rapidity alpha = {} overflows the spin coefficients", alpha))
    p0, p1, p2 = m1 * n2 - m2 * n1, m2 * n0 - m0 * n2, m0 * n1 - m1 * n0  # nu x n
    return xp.cosh(half), (f * p0, f * p1, f * p2), (f * n0, f * n1, f * n2)


def spinor_boost(nu: UnitVector3, params: BoostParams) -> np.ndarray:
    """Closed-form spin matrix S(nu; n, alpha) = exp(K alpha / 2).

    The power identities of the generator K terminate the exponential:
    S = I cosh(a/2) + K (alpha/2) sinh(a/2)/(a/2) with a = (nu.n) alpha.
    For n orthogonal to nu this reduces exactly to I + K alpha / 2.
    """
    a, p, q = _spin_parts(_unit3(nu), _unit3(params.n), params.alpha)
    return _matrix(_blocks(a, p, q))


def _bispinor_blocks(nuv: tuple, vv: tuple, r, xp=_FLOAT) -> tuple:
    """Blocks of the closed-form bispinor transformation D^{-3/2} S.  Their
    entries are the seven scalars a, p and q, so OutOfRange when one of them
    overflows."""
    m0, m1, m2 = nuv
    v0, v1, v2 = vv
    gap, root, lag = _frame_scalars(vv, nuv, xp)
    weight = _r_power(r, gap / root, -1.5 * r, xp=xp)
    pref = weight / (2.0 * xp.sqrt(gap * root))
    a = pref * (gap + root)
    c0, c1, c2 = _cross(nuv, vv)
    p0, p1, p2 = pref * c0, pref * c1, pref * c2
    q0, q1, q2 = pref * (v0 - lag * m0), pref * (v1 - lag * m1), pref * (v2 - lag * m2)
    ok = (a - a) + (p0 - p0) + (p1 - p1) + (p2 - p2) + (q0 - q0) + (q1 - q1) + (q2 - q2) == 0.0
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(
            ok, "anisotropy r = {} overflows the bispinor transform at velocity {}", r, list(vv)))
    return _blocks(a, (p0, p1, p2), (q0, q1, q2), xp)


def bispinor_matrix(spec: AnisotropySpec, v: Velocity3) -> np.ndarray:
    """Closed-form bispinor transformation matrix D^{-3/2} S in terms of v."""
    return _matrix(_bispinor_blocks(_unit3(spec.nu), _vel3(v), spec.r))


def _transform(nuv: tuple, vv: tuple, r, psi: tuple, xp=_FLOAT) -> tuple:
    """bispinor_transform of psi = (u0, u1, l0, l1); OutOfRange naming the
    inputs where the image overflows."""
    y0, y1, y2, y3 = _apply(_bispinor_blocks(nuv, vv, r, xp), psi, xp)
    ok = (y0 - y0) + (y1 - y1) + (y2 - y2) + (y3 - y3) == 0.0
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(
            ok, "bispinor_transform(AnisotropySpec(nu=UnitVector3(x={}, y={}, z={}), r={}),"
            " Velocity3(vx={}, vy={}, vz={}), {}) is not finite",
            nuv[0], nuv[1], nuv[2], r, vv[0], vv[1], vv[2], psi))
    return y0, y1, y2, y3


def bispinor_transform(spec: AnisotropySpec, v: Velocity3, psi) -> np.ndarray:
    """Apply the generalized bispinor boost to psi; OutOfRange naming the
    inputs where the image overflows."""
    psi = _c4(psi)
    return _ndarray(_transform(_unit3(spec.nu), _vel3(v), spec.r, psi), complex)


def dirac_adjoint(psi) -> np.ndarray:
    """Row bispinor psi-dagger gamma^0."""
    u0, u1, l0, l1 = _c4(psi)
    return _ndarray([u0.conjugate(), u1.conjugate(), -l0.conjugate(), -l1.conjugate()], complex)


def _density(psi: tuple) -> float:
    """psibar psi = |u|^2 - |l|^2 for psi = (u, l)."""
    u0, u1, l0, l1 = psi
    return (
        u0.real * u0.real + u0.imag * u0.imag + u1.real * u1.real + u1.imag * u1.imag
        - (l0.real * l0.real + l0.imag * l0.imag + l1.real * l1.real + l1.imag * l1.imag)
    )


def _norm_sq(psi: tuple) -> float:
    """psi^dagger psi = |u|^2 + |l|^2 for psi = (u, l), summed one
    component at a time."""
    u0, u1, l0, l1 = psi
    return (
        u0.real * u0.real + u0.imag * u0.imag + (u1.real * u1.real + u1.imag * u1.imag)
        + (l0.real * l0.real + l0.imag * l0.imag) + (l1.real * l1.real + l1.imag * l1.imag)
    )


def _current(psi: tuple, xp=_FLOAT) -> tuple:
    """j^0..j^3 of bilinear_current for psi = (u0, u1, l0, l1), complex
    numbers or complex arrays.  The products are written on the real and
    imaginary parts, as Python multiplies complex numbers: numpy's complex
    multiply rounds differently."""
    u0, u1, l0, l1 = psi
    a0, b0, a1, b1 = u0.real, -u0.imag, u1.real, -u1.imag  # conj(u0), conj(u1)
    x0, y0, x1, y1 = l0.real, l0.imag, l1.real, l1.imag
    j0 = _norm_sq(psi)
    j1 = 2.0 * ((a0 * x1 - b0 * y1) + (a1 * x0 - b1 * y0))  # Re(conj(u0) l1 + conj(u1) l0)
    j2 = 2.0 * ((a0 * y1 + b0 * x1) - (a1 * y0 + b1 * x0))  # Im(conj(u0) l1 - conj(u1) l0)
    j3 = 2.0 * ((a0 * x0 - b0 * y0) - (a1 * x1 - b1 * y1))  # Re(conj(u0) l0 - conj(u1) l1)
    ok = (j0 - j0) + (j1 - j1) + (j2 - j2) + (j3 - j3) == 0.0
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "bilinear_current({}) is not finite", psi))
    return j0, j1, j2, j3


def bilinear_current(psi) -> np.ndarray:
    """Vector current j^n = psibar gamma^n psi (4 real components).  For
    psi = (u, l): j^0 = |u|^2 + |l|^2 and
    j^k = u^dagger sigma_k l + l^dagger sigma_k u = 2 Re(u^dagger sigma_k l).
    OutOfRange naming psi where a component overflows."""
    return _ndarray(_current(_c4(psi)))


def _invariant(nuv: tuple, r, psi: tuple, xp=_FLOAT) -> float:
    """finsler_bispinor_invariant of psi = (u0, u1, l0, l1).  The numerator
    is |d0|^2 + |d1|^2 with d0 = u0 - (nz l0 + (nx - i ny) l1) and
    d1 = u1 - ((nx + i ny) l0 - nz l1), each product written on the real and
    imaginary parts as Python multiplies complex numbers, the float nz taken
    as complex(nz, 0.0)."""
    u0, u1, l0, l1 = psi
    nx, ny, nz = nuv
    a, b, c, e = l0.real, l0.imag, l1.real, l1.imag
    d0r = u0.real - ((nz * a - 0.0 * b) + (nx * c - -ny * e))
    d0i = u0.imag - ((nz * b + 0.0 * a) + (nx * e + -ny * c))
    d1r = u1.real - ((nx * a - ny * b) - (nz * c - 0.0 * e))
    d1i = u1.imag - ((nx * b + ny * a) - (nz * e + 0.0 * c))
    num = d0r * d0r + d0i * d0i + d1r * d1r + d1i * d1i
    j0 = _norm_sq(psi)
    ok = (j0 < math.inf) & (num < math.inf)
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "bispinor {} overflows its squared size", _pairs(psi)))
    rho = _density(psi)
    ok = abs(rho) > Tolerance.abs_tol * j0  # j0 >= |rho|; psi = 0 is null
    if ok is not True and not xp.all(ok):
        raise NullDensity(xp.explain(ok, "psibar psi vanishes; the invariant form is singular"))
    q = num / rho
    return _r_power(r, q * q, -1.5 * r, rho,
                    lambda: ("overflows the invariant of bispinor {}", _pairs(psi)), xp) * rho


def finsler_bispinor_invariant(spec: AnisotropySpec, psi) -> float:
    """Anisotropy-weighted scalar density, invariant under bispinor boosts.

    Returns [((nu_n j^n)/rho)^2]^{-3r/2} rho with rho = psibar psi and
    nu_n = (1, -nu).  For psi = (u, l) the numerator nu_n j^n is
    |u - (sigma.nu) l|^2, a sum of four squares, so it does not cancel for
    a current near null along nu.  Singular at rho = 0 (NullDensity) and,
    for r > 0, when the current is null along nu (DegenerateRatio).
    OutOfRange when |psi|^2 or the result overflows.
    """
    psi = _c4(psi)
    return _invariant(_unit3(spec.nu), spec.r, psi)
