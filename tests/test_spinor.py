import math
import re

import mpmath
import numpy as np
import pytest

from finslerboost import (
    AnisotropySpec,
    BoostParams,
    NullDensity,
    OutOfRange,
    Velocity3,
    bispinor_matrix,
    bispinor_transform,
    dirac_adjoint,
    finsler_bispinor_invariant,
    gamma_basis,
    spinor_boost,
    spinor_generator,
    velocity_from_params,
)
from finslerboost.spinor import bilinear_current
from support import E_X, ETA, NU_Z, _mp_dot, _mp_params, rand_unit

EYE = np.eye(4, dtype=complex)


def rand_psi(rng):
    return rng.normal(size=4) + 1j * rng.normal(size=4)


def test_gamma_anticommutators():
    g = gamma_basis().gamma
    for i in range(4):
        for k in range(4):
            anti = g[i] @ g[k] + g[k] @ g[i]
            assert np.array_equal(anti, 2.0 * ETA[i, k] * EYE)


def test_gamma_examples():
    g = gamma_basis().gamma
    assert np.array_equal(g[1] @ g[2] + g[2] @ g[1], np.zeros((4, 4)))
    assert np.array_equal(g[0] @ g[0], EYE)
    assert np.array_equal(g[0] @ g[0] + g[0] @ g[0], 2.0 * EYE)


def test_sigma_block_structure():
    s = gamma_basis().sigma
    pauli = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    for sk, pk in zip(s, pauli):
        assert np.array_equal(sk[:2, :2], pk)
        assert np.array_equal(sk[2:, 2:], pk)
        assert np.array_equal(sk[:2, 2:], np.zeros((2, 2)))


def test_generator_nilpotent_orthogonal():
    k = spinor_generator(NU_Z, E_X)
    assert np.max(np.abs(k @ k)) < 1e-15


def test_generator_parallel_squares_to_identity():
    k = spinor_generator(NU_Z, NU_Z)
    g = gamma_basis().gamma
    assert np.array_equal(k, -g[0] @ g[3])
    assert np.max(np.abs(k @ k - EYE)) < 1e-15


def test_spinor_boost_identity_and_nilpotent_case():
    assert np.array_equal(spinor_boost(NU_Z, BoostParams(NU_Z, 0.0)), EYE)
    alpha = 1.4
    s = spinor_boost(NU_Z, BoostParams(E_X, alpha))
    k = spinor_generator(NU_Z, E_X)
    assert np.max(np.abs(s - (EYE + 0.5 * alpha * k))) < 1e-15


def test_intertwining():
    """S(-alpha) inverts S(alpha); the intertwining relation itself is the
    spinor suite's."""
    rng = np.random.default_rng(97)
    for _ in range(1000):
        nu, n = rand_unit(rng), rand_unit(rng)
        alpha = float(rng.uniform(-3, 3))
        smat = spinor_boost(nu, BoostParams(n, alpha))
        sinv = spinor_boost(nu, BoostParams(n, -alpha))
        assert np.max(np.abs(sinv @ smat - EYE)) < 1e-12


def test_dirac_adjoint_examples():
    assert np.array_equal(dirac_adjoint([1, 0, 0, 0]), [1, 0, 0, 0])
    assert np.array_equal(dirac_adjoint([0, 0, 1, 0]), [0, 0, -1, 0])
    rng = np.random.default_rng(103)
    for _ in range(100):
        psi = rand_psi(rng)
        rho = complex(dirac_adjoint(psi) @ psi)
        assert abs(rho.imag) < 1e-12 * max(1.0, abs(rho.real))


def test_bispinor_identity_at_rest():
    spec = AnisotropySpec(NU_Z, 0.7)
    psi = np.array([1.0, 2.0 - 1j, 0.5j, -0.25])
    out = bispinor_transform(spec, Velocity3(0, 0, 0), psi)
    assert np.max(np.abs(out - psi)) < 1e-15


def test_invariant_reduces_to_density_at_r0():
    rng = np.random.default_rng(113)
    spec = AnisotropySpec(NU_Z, 0.0)
    for _ in range(50):
        psi = rand_psi(rng)
        rho = complex(dirac_adjoint(psi) @ psi).real
        if abs(rho) < 0.1:
            continue
        assert finsler_bispinor_invariant(spec, psi) == pytest.approx(rho, rel=1e-12)


def test_invariant_null_density_raises():
    # upper and lower components of equal weight: psibar psi = 0
    psi = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(NullDensity):
        finsler_bispinor_invariant(AnisotropySpec(NU_Z, 0.4), psi)


@pytest.mark.parametrize("lam", (1.0, 1e-3, 1e-7, 1e-30, 1e-100))
def test_invariant_degree_two_down_to_tiny_scales(lam):
    rng = np.random.default_rng(131)
    for _ in range(200):
        spec = AnisotropySpec(rand_unit(rng), float(rng.uniform(-0.9, 0.9)))
        psi = rand_psi(rng)
        if abs(complex(dirac_adjoint(psi) @ psi).real) < 0.1:
            continue
        assert finsler_bispinor_invariant(spec, lam * psi) == pytest.approx(
            lam * lam * finsler_bispinor_invariant(spec, psi), rel=1e-12, abs=0
        )
    spec = AnisotropySpec(NU_Z, 0.4)
    small = lam * np.array([1e-5, 0.0, 2e-6, 0.0], dtype=complex)
    assert finsler_bispinor_invariant(spec, small) == pytest.approx(
        lam * lam * finsler_bispinor_invariant(spec, small / lam), rel=1e-14, abs=0
    )
    with pytest.raises(NullDensity):
        finsler_bispinor_invariant(spec, lam * np.array([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(NullDensity):
        finsler_bispinor_invariant(spec, np.zeros(4, dtype=complex))


def test_invariant_basis_state():
    # For psi = (1,0,0,0): rho = 1 and the spatial current vanishes in the
    # standard basis, so nu_n j^n = 1 and the invariant is 1 for every r.
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    j = bilinear_current(psi)
    assert np.array_equal(j, [1.0, 0.0, 0.0, 0.0])
    for r in (-0.5, 0.0, 0.3, 1.0):
        assert finsler_bispinor_invariant(AnisotropySpec(NU_Z, r), psi) == 1.0


def test_velocity_consistency_of_spin_boost():
    # velocity reached by the vector boost matches the one used to build
    # the closed-form bispinor matrix
    rng = np.random.default_rng(131)
    for _ in range(100):
        nu = rand_unit(rng)
        g = BoostParams(rand_unit(rng), float(rng.uniform(0.1, 3.0)))
        v = velocity_from_params(nu, g)
        spec = AnisotropySpec(nu, 0.0)
        direct = bispinor_matrix(spec, v)
        assert np.max(np.abs(direct - spinor_boost(nu, g))) < 1e-9


def test_bispinor_blocks_near_rest_against_mpmath():
    """The B block -sigma.q of bispinor_matrix at speeds 1e-3 to 1e-12.  Its
    q is a multiple of v - (1 - sqrt(1 - v^2)) nu, whose lag 1 - sqrt(1 - v^2)
    is about v^2 / 2 and cancels if written so.  The reference takes the
    parameter path at 50 digits: (n, alpha) of v, D = ((1 - v.nu) /
    sqrt(1 - v^2))^r and q = D^{-3/2} (alpha / 2) (sinh(a / 2) / (a / 2)) n with
    a = (nu.n) alpha.  Every entry is within 2e-15 of the block's largest."""
    rng = np.random.default_rng(2311)
    worst = 0.0
    for speed in 10.0 ** -np.arange(3, 13):
        for _ in range(20):
            nu, r = rand_unit(rng), float(rng.uniform(-0.9, 0.9))
            v = Velocity3.from_array(speed * rand_unit(rng).as_array())
            got = bispinor_matrix(AnisotropySpec(nu, r), v)[:2, 2:].tolist()
            m, u = nu.to_json(), v.to_json()
            with mpmath.workdps(50):
                n, alpha = _mp_params(m, u)
                half = _mp_dot(m, n) * alpha / 2
                level = (1 - _mp_dot(u, m)) / mpmath.sqrt(1 - _mp_dot(u, u))
                f = level ** (-1.5 * mpmath.mpf(r)) * alpha / 2 * mpmath.sinh(half) / half
                qx, qy, qz = (f * c for c in n)
                want = [[-qz, mpmath.mpc(-qx, qy)], [mpmath.mpc(-qx, -qy), qz]]
                size = max(abs(w) for row in want for w in row)
                worst = max(worst, *(float(abs(mpmath.mpc(g) - w) / size)
                                     for gs, ws in zip(got, want) for g, w in zip(gs, ws)))
    assert worst <= 2e-15, worst


@pytest.mark.parametrize("r", (0.3, -0.5))
def test_invariant_near_null_along_nu_against_mpmath(r):
    """For psi = (1, 0, 1 - 1e-9, 0) the current is within 1e-18 of null
    along z: j0 - j.z cancels, |u - (sigma.nu) l|^2 does not.  The invariant
    against the definition at 60 digits, with the float inputs exact; what
    is left is the rounding of rho = 1 - (1 - 1e-9)^2."""
    psi = [1.0, 0.0, 1.0 - 1e-9, 0.0]
    with mpmath.workdps(60):
        u0, u1, l0, l1 = map(mpmath.mpf, psi)
        j0 = u0 * u0 + u1 * u1 + l0 * l0 + l1 * l1
        jz = 2 * (u0 * l0 - u1 * l1)
        rho = u0 * u0 + u1 * u1 - l0 * l0 - l1 * l1
        exact = ((j0 - jz) / rho) ** (-3 * mpmath.mpf(r)) * rho
    got = finsler_bispinor_invariant(AnisotropySpec(NU_Z, r), psi)
    assert abs(got / float(exact) - 1.0) <= 1e-8, (got, exact)


@pytest.mark.parametrize("call", [
    dirac_adjoint,
    bilinear_current,
    lambda psi: bispinor_transform(AnisotropySpec(NU_Z, 0.3), Velocity3(0.0, 0.0, 0.5), psi),
    lambda psi: finsler_bispinor_invariant(AnisotropySpec(NU_Z, 0.3), psi),
], ids=["adjoint", "current", "transform", "invariant"])
def test_non_finite_bispinor_is_out_of_range_naming_it(call):
    """A NaN component used to pass through to four NaNs, or to read as an
    overflowing squared size."""
    message = "bispinor [[nan, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]] is not finite"
    with pytest.raises(OutOfRange, match=re.escape(message)):
        call([math.nan, 0, 0, 0])


@pytest.mark.parametrize("call, name", [
    (lambda: bilinear_current([1e200, 0, 0, 0]), "bilinear_current(((1e+200+0j), 0j, 0j, 0j))"),
    # the (0, 0) entry of the transform is 1.33
    (lambda: bispinor_transform(AnisotropySpec(NU_Z, 0.3), Velocity3(0.0, 0.0, 0.5),
                                [1.5e308, 0, 0, 0]), "bispinor_transform(AnisotropySpec("),
])
def test_bispinor_result_that_overflows_is_out_of_range(call, name):
    with pytest.raises(OutOfRange, match=re.escape(name)):
        call()
