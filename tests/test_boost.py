import math
import re
import sys

import mpmath
import numpy as np
import pytest

from finslerboost import (
    AnisotropySpec,
    AxialParams,
    BoostParams,
    FourVector,
    OutOfRange,
    UnitVector3,
    Velocity3,
    add_velocities,
    apply_matrix,
    bispinor_matrix,
    axial_rotation,
    axial_transform,
    boost_matrix,
    boost_matrix_inverse,
    compose,
    dilation_factor,
    dot3,
    finsler_bispinor_invariant,
    finsler_interval_sq,
    generalized_boost_matrix,
    generalized_generator,
    generator,
    minkowski_interval,
    params_from_velocity,
    sample_surface,
    spinor_boost,
    translate,
    velocity_from_params,
)
from finslerboost.boost import _boost_rows, _coefficients
from finslerboost.core import _exprel, _log1p_over, _sinhc
from finslerboost.checks import expm
from support import (E_X, ETA, NU_Z, _mp_dot, _mp_frame_velocity, _mp_params,
                     _mp_product_params, _mp_rows, _mp_unit, rand_unit)


def rand_params(rng):
    return BoostParams(rand_unit(rng), float(rng.uniform(-3, 3)))


def test_generator_parallel_case():
    g = generator(NU_Z, NU_Z)
    expect = np.zeros((4, 4))
    expect[0, 3] = expect[3, 0] = -1.0
    assert np.allclose(g, expect, atol=0)


def test_generator_orthogonal_case():
    g = generator(NU_Z, E_X)
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = -1.0
    expect[1, 3] = 1.0
    expect[3, 1] = -1.0
    assert np.allclose(g, expect, atol=0)


def test_generator_antisymmetric_after_lowering():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = generator(rand_unit(rng), rand_unit(rng))
        low = ETA @ g
        assert np.max(np.abs(low + low.T)) < 1e-15


def test_boost_identity_at_zero_rapidity():
    assert np.allclose(boost_matrix(NU_Z, BoostParams(NU_Z, 0.0)), np.eye(4), atol=0)


def test_boost_standard_along_axis():
    lam = boost_matrix(NU_Z, BoostParams(NU_Z, 1.0))
    expect = np.eye(4)
    expect[0, 0] = expect[3, 3] = math.cosh(1.0)
    expect[0, 3] = expect[3, 0] = -math.sinh(1.0)
    assert np.max(np.abs(lam - expect)) < 1e-15


def test_boost_matches_exponential():
    lam = boost_matrix(NU_Z, BoostParams(E_X, 0.7))
    assert np.max(np.abs(lam - expm(0.7 * generator(NU_Z, E_X)))) < 1e-10


def test_boost_unimodular_and_interval_preserving():
    rng = np.random.default_rng(8)
    for _ in range(300):
        nu, g = rand_unit(rng), rand_params(rng)
        lam = boost_matrix(nu, g)
        assert abs(np.linalg.det(lam) - 1.0) < 1e-10
        x = FourVector(2.0, *rng.uniform(-1, 1, size=3))
        assert minkowski_interval(apply_matrix(lam, x)) == pytest.approx(
            minkowski_interval(x), rel=1e-10, abs=1e-10
        )


def test_boost_inverse():
    rng = np.random.default_rng(13)
    lam = boost_matrix_inverse(NU_Z, BoostParams(NU_Z, 1.0))
    assert lam[0, 3] == pytest.approx(math.sinh(1.0))
    for _ in range(200):
        nu, g = rand_unit(rng), rand_params(rng)
        prod = boost_matrix_inverse(nu, g) @ boost_matrix(nu, g)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_compose_identity_element():
    rng = np.random.default_rng(17)
    g1 = rand_params(rng)
    nu = rand_unit(rng)
    out = compose(nu, g1, BoostParams.identity(nu))
    assert out.alpha == pytest.approx(g1.alpha, abs=1e-12)
    assert np.allclose(out.n.as_array(), g1.n.as_array(), atol=1e-12)


def test_compose_parallel_rapidities_add():
    g = compose(NU_Z, BoostParams(NU_Z, 0.5), BoostParams(NU_Z, 0.5))
    assert g.alpha == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(g.n.as_array(), NU_Z.as_array(), atol=1e-12)


def test_velocity_examples():
    assert velocity_from_params(NU_Z, BoostParams(NU_Z, 0.0)).speed() == 0.0
    v = velocity_from_params(NU_Z, BoostParams(NU_Z, 0.8))
    assert np.allclose(v.as_array(), math.tanh(0.8) * NU_Z.as_array(), atol=1e-14)
    v = velocity_from_params(NU_Z, BoostParams(E_X, 1.0))
    assert np.allclose(v.as_array(), (2 / 3, 0.0, 1 / 3), atol=1e-12)


def test_params_from_velocity_examples():
    g = params_from_velocity(NU_Z, Velocity3(0.0, 0.0, math.tanh(1.0)))
    assert g.alpha == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(g.n.as_array(), NU_Z.as_array(), atol=1e-9)
    g = params_from_velocity(NU_Z, Velocity3(2 / 3, 0.0, 1 / 3))
    assert g.alpha == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(g.n.as_array(), E_X.as_array(), atol=1e-12)
    ident = params_from_velocity(NU_Z, Velocity3(0.0, 0.0, 0.0))
    assert ident.alpha == 0.0 and ident.n == NU_Z


def test_add_velocities_identity_and_fixed_point():
    v1 = Velocity3(0.3, -0.2, 0.1)
    assert np.allclose(
        add_velocities(NU_Z, v1, Velocity3(0, 0, 0)).as_array(), v1.as_array(), atol=1e-15
    )


def test_dilation_examples():
    spec = AnisotropySpec(NU_Z, 1.0)
    assert dilation_factor(spec, Velocity3(0, 0, 0)) == 1.0
    assert dilation_factor(spec, Velocity3(0.6, 0, 0)) == pytest.approx(1.25, rel=1e-14)
    for r in (-0.5, 0.3, 1.7):
        spec = AnisotropySpec(NU_Z, r)
        alpha = 0.9
        v = Velocity3(0, 0, math.tanh(alpha))
        assert dilation_factor(spec, v) == pytest.approx(math.exp(-r * alpha), rel=1e-12)


def test_generalized_boost():
    rng = np.random.default_rng(37)
    g = rand_params(rng)
    nu = rand_unit(rng)
    assert np.array_equal(
        generalized_boost_matrix(AnisotropySpec(nu, 0.0), g), boost_matrix(nu, g)
    )
    # orthogonal direction: the dilatation switches off
    from finslerboost.subgroups import perpendicular_to

    perp = perpendicular_to(nu)
    gp = BoostParams(perp, 1.3)
    spec = AnisotropySpec(nu, 0.8)
    assert np.max(
        np.abs(generalized_boost_matrix(spec, gp) - boost_matrix(nu, gp))
    ) < 1e-14


def test_axial_rotation():
    assert np.allclose(axial_rotation(NU_Z, 0.0), np.eye(4), atol=0)
    assert np.max(np.abs(axial_rotation(NU_Z, 2 * math.pi) - np.eye(4))) < 1e-10
    q = axial_rotation(NU_Z, math.pi / 2)
    x = apply_matrix(q, FourVector(0, 1, 0, 0))
    assert np.allclose(x.as_array(), (0, 0, -1, 0), atol=1e-15)
    y = apply_matrix(q, FourVector(0, 0, 1, 0))
    assert np.allclose(y.as_array(), (0, 1, 0, 0), atol=1e-15)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_axial_rotation_refuses_a_nonfinite_angle(phi):
    """A NaN matrix for nan, a bare math domain error for inf before."""
    with pytest.raises(OutOfRange, match=re.escape(f"rotation angle phi = {phi} is not finite")):
        axial_rotation(NU_Z, phi)


def test_axial_rotation_preserves_finsler_interval():
    rng = np.random.default_rng(43)
    for _ in range(200):
        nu = rand_unit(rng)
        spec = AnisotropySpec(nu, float(rng.uniform(-0.9, 0.9)))
        q = axial_rotation(nu, float(rng.uniform(0, 2 * math.pi)))
        x3 = rng.uniform(-1, 1, size=3)
        x = FourVector(float(np.linalg.norm(x3)) + rng.uniform(0.1, 2.0), *x3)
        assert finsler_interval_sq(apply_matrix(q, x), spec) == pytest.approx(
            finsler_interval_sq(x, spec), rel=1e-10
        )


def test_translate():
    x = FourVector(1, 2, 3, 4)
    assert translate(x, FourVector(0, 0, 0, 0)) == x
    assert translate(x, FourVector(1, 1, 1, 1)) == FourVector(2, 3, 4, 5)
    y = FourVector(0.5, -1, 2, 0)
    a = FourVector(3, 1, -2, 7)
    dx = translate(x, a).as_array() - translate(y, a).as_array()
    assert np.array_equal(dx, x.as_array() - y.as_array())


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0, 0.0, 0.0]] * 3,
    [[1.0, 0.0, 0.0, 0.0]] * 5,
    [[1.0, 0.0, 0.0]] * 4,
    [[1.0, 0.0, 0.0, 0.0, 0.0]] * 4,
    [[1.0, 0.0, 0.0, 0.0]] * 3 + [[0.0, 0.0, 1.0]],
    np.eye(3),
    np.eye(5),
    np.zeros(16),
])
def test_apply_matrix_refuses_a_matrix_that_is_not_4x4(rows):
    """The shape is named, as matrix_to_json names it; not a TypeError about
    FourVector's arguments or a ValueError about unpacking."""
    with pytest.raises(ValueError, match=r"^expected a 4x4 matrix$"):
        apply_matrix(rows, FourVector(1.0, 0.5, -0.25, 0.125))


def test_canonical_boost_params():
    g = BoostParams(E_X, -1.5)
    assert g.alpha == 1.5
    assert g.n == UnitVector3(-1.0, 0.0, 0.0)
    assert np.max(
        np.abs(boost_matrix(NU_Z, g) - expm(-1.5 * generator(NU_Z, E_X)))
    ) < 1e-10


def _rel_err(ours, exact, x):
    with mpmath.workdps(50):
        want = exact(mpmath.mpf(x))
        return float(abs((ours(x) - want) / want))


def test_series_coefficients_against_mpmath():
    """Each coefficient, composed from the two primitives the way the library
    composes it, is within 2 ulp of its 50-digit value from subnormal
    arguments up to 20; each primitive is exactly 1 at 0."""
    mags = np.concatenate([
        np.geomspace(1e-320, 1e-9, 300),
        np.geomspace(1e-9, 20.0, 1000),
        1e-4 * np.array([1 - 1e-9, 1 + 1e-9, 1 - 1e-3, 1 + 1e-3]),
    ])
    xs = [float(s * m) for m in mags for s in (1.0, -1.0)]
    cases = {
        "k-": (lambda a: _exprel(-a), lambda a: -mpmath.expm1(-a) / a),
        "k+": (lambda a: -_exprel(a), lambda a: -mpmath.expm1(a) / a),
        "(cosh a - 1)/a^2": (
            lambda a: 0.5 * _exprel(a) * _exprel(-a),
            lambda a: 2 * mpmath.sinh(a / 2) ** 2 / a**2,
        ),
        "sinh h/h": (_sinhc, lambda h: mpmath.sinh(h) / h),
        "log1p(t)/t": (lambda t: _log1p_over(t), lambda t: mpmath.log1p(t) / t),
    }
    assert _exprel(0.0) == _exprel(-0.0) == _log1p_over(0.0) == _sinhc(0.0) == 1.0
    assert all(_sinhc(-h) == _sinhc(h) for h in xs)  # even to the bit
    worst = {}
    for name, (ours, exact) in cases.items():
        pts = [t for t in xs if t > -1.0] if name == "log1p(t)/t" else xs
        worst[name] = max(_rel_err(ours, exact, x) for x in pts)
    assert max(worst.values()) <= 2 * 2.220446049250313e-16, worst


def _boost_rows_loop(nu, params, scale=1.0):
    """Reference: the rows as a loop over (i, j), entry
    delta_ij - kp n_i nu_j + nu_i row0_j."""
    n, nuv = params.n.to_json(), nu.to_json()
    km, kp, c0 = _coefficients(nuv, n, params.alpha)
    row0 = [-(km * p + c0 * q) for p, q in zip(n, nuv)]
    rows = [[1.0 + c0, *row0]]
    for i in range(3):
        rows.append(
            [kp * n[i] + c0 * nuv[i]]
            + [float(i == j) - kp * (n[i] * nuv[j]) + nuv[i] * row0[j] for j in range(3)]
        )
    if scale == 1.0:
        return rows
    return [[scale * c for c in row] for row in rows]


def test_boost_rows_match_loop_reference_bit_for_bit():
    """Every entry equals the loop form's, signed zeros included: on random
    and on coordinate axes (where entries are zero), at scale 1 and not,
    inside and outside the near-zero band |(nu.n) alpha| < 1e-4."""
    rng = np.random.default_rng(163)
    sw = 1e-4
    axes = [UnitVector3(*row) for row in np.vstack([np.eye(3), -np.eye(3)]).tolist()]
    inside = outside = 0
    for k in range(2000):
        nu = axes[k % 6] if k % 3 == 0 else rand_unit(rng)
        n = axes[(k // 3) % 6] if k % 4 == 0 else rand_unit(rng)
        alpha = float(rng.uniform(-3, 3))
        if k % 2:
            # |(nu.n) alpha| inside the band
            alpha = float(rng.uniform(-0.99, 0.99)) * sw / max(abs(dot3(nu, n)), sw)
        params = BoostParams(n, alpha)
        if abs(dot3(nu, n) * params.alpha) < sw:
            inside += 1
        else:
            outside += 1
        scale = 1.0 if k % 5 < 2 else math.exp(float(rng.uniform(-2, 2)))
        got = [[scale * c for c in row] for row in _boost_rows(nu, params)]
        want = _boost_rows_loop(nu, params, scale)
        assert [[c.hex() for c in row] for row in got] == [
            [c.hex() for c in row] for row in want
        ], (nu, params, scale)
    assert inside >= 800 and outside >= 800


# The 50-digit rows against exp(alpha G), G at 50 digits from the normalized
# nu and n: the float generator's nu and n are unit only to about 1e-16.

NU_TILT = UnitVector3.normalized((0.3, -0.5, 0.8))
N_TILT = UnitVector3.normalized((-0.6, 0.2, 0.7))


@pytest.mark.parametrize("nu, n, alpha", [
    (NU_TILT, N_TILT, 2.3),
    (NU_TILT, NU_TILT, -1.9),
    (NU_TILT, -NU_TILT, 2.6),
    (NU_TILT, UnitVector3.normalized(np.cross(NU_TILT.as_array(), N_TILT.as_array())), 1.4),
    (NU_Z, E_X, -2.2),
    (NU_TILT, N_TILT, 3e-9),
], ids=["generic", "along-nu", "against-nu", "transverse", "transverse-axes", "near-zero"])
def test_mp_rows_against_the_exponential_of_the_generator(nu, n, alpha):
    with mpmath.workdps(50):
        (n0, n1, n2), (p0, p1, p2) = _mp_unit(n.to_json()), _mp_unit(nu.to_json())
        m0, m1, m2 = p1 * n2 - p2 * n1, p2 * n0 - p0 * n2, p0 * n1 - p1 * n0  # nu x n
        g = mpmath.matrix([[0, -n0, -n1, -n2], [-n0, 0, -m2, m1],
                           [-n1, m2, 0, -m0], [-n2, -m1, m0, 0]])
        want = mpmath.expm(alpha * g)
        rows = _mp_rows(nu.to_json(), n.to_json(), mpmath.mpf(alpha))
        err = max(abs(rows[i][j] - want[i, j]) for i in range(4) for j in range(4))
        size = max(abs(want[i, j] - (i == j)) for i in range(4) for j in range(4))
        assert err <= 1e-40 * size, (err, size)


# Near zero: the parameter maps and the composition against the 50-digit rows.

NEAR_ZERO = [float(m) for m in np.geomspace(1e-150, 1e-4, 30)]


def _near_zero_directions(rng, nu):
    """A random direction, one exactly across nu, and one nearly along it."""
    perp = np.cross(nu.as_array(), rand_unit(rng).as_array())
    return [rand_unit(rng), UnitVector3.normalized(perp),
            UnitVector3.normalized(nu.as_array() + 1e-3 * perp)]


def test_velocity_from_params_near_zero_against_mpmath():
    rng = np.random.default_rng(211)
    worst = 0.0
    with mpmath.workdps(50):
        for mag in NEAR_ZERO:
            nu = rand_unit(rng)
            for n in _near_zero_directions(rng, nu):
                got = velocity_from_params(nu, BoostParams(n, mag))
                want = _mp_frame_velocity(_mp_rows(nu.to_json(), n.to_json(), mpmath.mpf(mag)))
                speed = mpmath.sqrt(_mp_dot(want, want))
                assert got.speed() == pytest.approx(mag, rel=1e-4)
                err = max(abs(g - w) for g, w in zip(got.to_json(), want)) / speed
                worst = max(worst, float(err))
    assert worst <= 4.5e-16, worst


def test_params_from_velocity_near_zero_against_mpmath():
    # a frame slower than the old 1e-10 rest band is a boost, not the identity
    g = params_from_velocity(NU_Z, Velocity3(1e-11, 0.0, 0.0))
    assert g.alpha == pytest.approx(1e-11, rel=1e-15)
    assert g.n.x == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(223)
    worst_alpha = worst_n = 0.0
    with mpmath.workdps(50):
        for mag in NEAR_ZERO:
            nu = rand_unit(rng)
            for d in _near_zero_directions(rng, nu):
                v = Velocity3(*(mag * d.as_array()).tolist())
                got = params_from_velocity(nu, v)
                n, alpha = _mp_params(_mp_unit(nu.to_json()), v.to_json())
                # the reference reaches v again
                back = _mp_frame_velocity(_mp_rows(nu.to_json(), n, alpha))
                assert max(abs(b - c) for b, c in zip(back, v.to_json())) <= 1e-40 * mag
                worst_alpha = max(worst_alpha, float(abs(got.alpha - alpha) / alpha))
                worst_n = max(worst_n, float(max(
                    abs(g - w) for g, w in zip(got.n.to_json(), n))))
    assert worst_alpha <= 4.5e-16 and worst_n <= 4.5e-16, (worst_alpha, worst_n)


def test_compose_near_zero_against_mpmath():
    # two transverse boosts below the old 1e-10 identity band
    g = compose(NU_Z, BoostParams(E_X, 1e-11), BoostParams(UnitVector3(0.0, 1.0, 0.0), 1e-11))
    assert g.alpha == pytest.approx(math.sqrt(2.0) * 1e-11, rel=1e-15)
    rng = np.random.default_rng(227)
    worst_alpha = worst_n = 0.0
    with mpmath.workdps(50):
        for mag in NEAR_ZERO:
            nu = rand_unit(rng)
            n1, n2, n3 = _near_zero_directions(rng, nu)
            for p, q in ((n1, n2), (n2, n3), (n3, n1)):
                g1 = BoostParams(p, mag * float(rng.uniform(0.5, 2.0)))
                g2 = BoostParams(q, mag * float(rng.uniform(0.5, 2.0)))
                got = compose(nu, g1, g2)
                n, alpha = _mp_product_params(nu.to_json(), g1, g2)
                worst_alpha = max(worst_alpha, float(abs(got.alpha - alpha) / alpha))
                worst_n = max(worst_n, float(max(
                    abs(g - w) for g, w in zip(got.n.to_json(), n))))
    assert worst_alpha <= 4.5e-16 and worst_n <= 4.5e-16, (worst_alpha, worst_n)


@pytest.mark.parametrize("alpha", [10.0, 20.0, 40.0, 50.0, 200.0, 300.0, 700.0])
def test_compose_cancels_opposite_axis_boosts_exactly(alpha):
    for n in (NU_Z, -NU_Z):
        g, inverse = BoostParams(n, alpha), BoostParams(-n, alpha)
        assert compose(NU_Z, g, inverse) == BoostParams.identity(NU_Z)


def test_compose_against_the_product_of_matrices():
    """g2 the inverse (n, -alpha) of a random g1, at rapidities up to 700,
    composes to the identity exactly, in both orders.  A random pair is
    within a few ulp of n alpha of the 50-digit product L(g2) L(g1), in
    both orders: the reversed product is far from it, so this pins the
    order."""
    rng = np.random.default_rng(229)
    for top in (5.0, 20.0, 40.0, 100.0, 300.0, 700.0):
        for _ in range(50):
            nu, n = rand_unit(rng), rand_unit(rng)
            g = BoostParams(n, float(rng.uniform(top / 2, top)))
            inverse = BoostParams(n, -g.alpha)
            assert compose(nu, g, inverse) == BoostParams.identity(nu), (nu, g)
            assert compose(nu, inverse, g) == BoostParams.identity(nu), (nu, g)
    worst = {}
    with mpmath.workdps(50):
        for top in (3.0, 20.0):
            for _ in range(100):
                nu = rand_unit(rng)
                g1, g2 = (BoostParams(rand_unit(rng), float(rng.uniform(-top, top)))
                          for _ in range(2))
                for a, b in ((g1, g2), (g2, g1)):
                    got = compose(nu, a, b)
                    n, alpha = _mp_product_params(nu.to_json(), a, b)
                    want = [alpha * c for c in n]
                    diff = [got.alpha * c - w for c, w in zip(got.n.to_json(), want)]
                    err = float(mpmath.sqrt(_mp_dot(diff, diff) / _mp_dot(want, want)))
                    worst[top] = max(worst.get(top, 0.0), err)
    assert worst[3.0] <= 1e-15 and worst[20.0] <= 5e-15, worst


def test_subnormal_squared_norm_has_no_direction():
    """Below sqrt(sys.float_info.min) ~ 1.5e-154, v.v and alpha^2 are
    subnormal or zero: the maps return the identity instead of a direction
    from a few significant bits, and the forward map has no fork."""
    for speed in (0.0, 1e-160, 1e-155):
        assert speed * speed < sys.float_info.min
        assert params_from_velocity(NU_Z, Velocity3(speed, 0.0, 0.0)) == BoostParams.identity(NU_Z)
    g = params_from_velocity(NU_Z, Velocity3(2e-154, 0.0, 0.0))
    assert g.alpha == pytest.approx(2e-154, rel=1e-15)
    v = velocity_from_params(NU_Z, BoostParams(E_X, 1e-160))
    assert v.vx == 1e-160 and v.vy == 0.0 and 0.0 <= v.vz < 1e-320
    ey = UnitVector3(0.0, 1.0, 0.0)
    tiny = compose(NU_Z, BoostParams(E_X, 1e-160), BoostParams(ey, 1e-160))
    assert tiny == BoostParams.identity(NU_Z)
    small = compose(NU_Z, BoostParams(E_X, 2e-154), BoostParams(ey, 2e-154))
    assert small.alpha == pytest.approx(math.sqrt(2.0) * 2e-154, rel=1e-15)


@pytest.mark.parametrize("n, alpha, what", [
    (NU_Z, 25.0, "speed that rounds to 1"),
    (E_X, 1e5, "speed that rounds to 1"),
    (NU_Z, 800.0, "overflows"),
    (UnitVector3(0.0, 0.0, -1.0), 800.0, "overflows"),
    (E_X, 1e200, "overflows"),
])
def test_rapidity_outside_the_float_domain_is_out_of_range(n, alpha, what):
    g = BoostParams(n, alpha)
    with pytest.raises(OutOfRange, match=f"rapidity alpha = .*{what}"):
        velocity_from_params(NU_Z, g)
    if what == "overflows":
        with pytest.raises(OutOfRange, match="rapidity"):
            boost_matrix(NU_Z, g)
    else:
        assert np.isfinite(boost_matrix(NU_Z, g)).all()


@pytest.mark.parametrize("g1, g2, alpha, n", [
    # b = e^{355} 0.1 e_x and b / sinhc(355) = 71 / (1 - e^{-710}) = 71
    (BoostParams(NU_Z, 710.0), BoostParams(E_X, 0.1), 71.0 * math.sqrt(101.0),
     (1.0 / math.sqrt(101.0), 0.0, 10.0 / math.sqrt(101.0))),
    (BoostParams(NU_Z, 400.0), BoostParams(NU_Z, 400.0), 800.0, (0.0, 0.0, 1.0)),
], ids=["compose-axis-710", "compose-400-400"])
def test_compose_of_large_axis_parts_is_finite(g1, g2, alpha, n):
    """The composite of two axis parts of up to 709 each is finite."""
    got = compose(NU_Z, g1, g2)
    assert got.alpha == pytest.approx(alpha, rel=1e-15)
    assert got.n.to_json() == pytest.approx(n, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("call", [
    lambda: compose(NU_Z, BoostParams(NU_Z, 710.0), BoostParams(NU_Z, 710.0)),
    lambda: compose(  # the axis part is -inf, where x / (1 - e^x) was 1 / 0
        NU_Z, BoostParams(UnitVector3(0.0, 0.0, -1 - 4e-13), sys.float_info.max),
        BoostParams(E_X, 1.0)),
    lambda: spinor_boost(NU_Z, BoostParams(NU_Z, 1500.0)),
    lambda: axial_transform(
        AnisotropySpec(NU_Z, 0.0), AxialParams(800.0), FourVector(1.0, 0.0, 0.0, 0.0)
    ),
    lambda: axial_transform(  # e^{-r alpha} and cosh alpha are finite, their product is not
        AnisotropySpec(NU_Z, -1.0), AxialParams(400.0), FourVector(1.0, 0.0, 0.0, 0.0)
    ),
], ids=["compose-axis-710-710", "compose-infinite-axis-part", "spinor-1500",
        "axial-800", "axial-r-400"])
def test_coefficient_overflow_is_out_of_range(call):
    with pytest.raises(OutOfRange, match=r"rapidit(y|ies) alpha = .* overflows?"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: generalized_boost_matrix(AnisotropySpec(NU_Z, -1e3), BoostParams(NU_Z, 1.0)),
     "anisotropy r = -1000.0"),
    (lambda: dilation_factor(AnisotropySpec(NU_Z, -1e3), Velocity3(0.0, 0.0, 0.9)),
     "anisotropy r = -1000.0"),
    (lambda: bispinor_matrix(AnisotropySpec(NU_Z, 1e3), Velocity3(0.0, 0.0, 0.9)),
     "anisotropy r = 1000.0"),
    (lambda: finsler_interval_sq(FourVector(2.0, 0.0, 0.0, 1.9), AnisotropySpec(NU_Z, -1e3)),
     "anisotropy r = -1000.0"),
    (lambda: finsler_bispinor_invariant(AnisotropySpec(NU_Z, 1e3), [1, 0, 0.999, 0]),
     "anisotropy r = 1000.0"),
    (lambda: sample_surface(NU_Z, "horosphere", 1.0, (3, 3), extent=1e155),
     "horosphere extent = 1e+155"),
    (lambda: sample_surface(NU_Z, "horosphere", 1e-310, (3, 3)),
     "horosphere level = 1e-310"),
    (lambda: finsler_interval_sq(FourVector(1e200, 0.0, 0.0, 0.0), AnisotropySpec(NU_Z, 0.5)),
     "event [1e+200, 0.0, 0.0, 0.0]"),
    (lambda: finsler_interval_sq(FourVector(1e200, 0.0, 0.0, 1e200), AnisotropySpec(NU_Z, 0.5)),
     "event [1e+200, 0.0, 0.0, 1e+200]"),
    (lambda: minkowski_interval(FourVector(1e200, 1e200, 0.0, 0.0)),
     "event [1e+200, 1e+200, 0.0, 0.0]"),
    (lambda: finsler_interval_sq(FourVector(2e3, 0.0, 0.0, 1.9e3), AnisotropySpec(NU_Z, -193)),
     "anisotropy r = -193"),
    (lambda: finsler_interval_sq(  # t^2 - x^2 is 0.0, t^2 + x^2 overflows
        FourVector(1.3e154, 1.3e154, 0.0, 0.0), AnisotropySpec(NU_Z, 0.5)),
     "event [1.3e+154, 1.3e+154, 0.0, 0.0]"),
    (lambda: finsler_interval_sq(  # (t - z)^2 overflows; for r < 0 its power would be 0.0
        FourVector(1.2e154, 0.0, 0.0, -0.5e154), AnisotropySpec(NU_Z, -0.5)),
     "event [1.2e+154, 0.0, 0.0, -5e+153]"),
    (lambda: generalized_boost_matrix(  # e^{360} and cosh(400) are finite, their product not
        AnisotropySpec(NU_Z, -0.9), BoostParams(NU_Z, 400.0)),
     "anisotropy r = -0.9 with rapidity alpha = 400.0"),
    (lambda: bispinor_matrix(  # the weight e^{707} over 7.5e-5
        AnisotropySpec(NU_Z, 65.0), Velocity3(0.0, 0.0, 0.999999)),
     "anisotropy r = 65.0"),
    (lambda: finsler_bispinor_invariant(  # the power is finite, the power times rho not
        AnisotropySpec(NU_Z, -10.0), [1e150, 0, -1e150 * (1 - 1e-6), 0]),
     "anisotropy r = -10.0"),
    (lambda: finsler_bispinor_invariant(AnisotropySpec(NU_Z, 0.3), [1e160, 0, 0, 0]),
     "bispinor [[1e+160, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"),
    # r (nu.n) alpha overflows to inf, where exp returns inf with no error;
    # the boost coefficients overflow as well, and D is named first
    (lambda: generalized_boost_matrix(AnisotropySpec(NU_Z, -1e300), BoostParams(NU_Z, 1e10)),
     "anisotropy r = -1e+300"),
    (lambda: bispinor_matrix(  # -1.5 r overflows to -inf, and pow returns inf with no error
        AnisotropySpec(NU_Z, 1.5e308), Velocity3(0.0, 0.0, 0.5)),
     "anisotropy r = 1.5e+308"),
    (lambda: finsler_bispinor_invariant(AnisotropySpec(NU_Z, -1.5e308), [1, 0, -0.5, 0]),
     "anisotropy r = -1.5e+308"),
    (lambda: generalized_generator(  # nu.n exceeds 1 by 4e-13, r (nu.n) overflows
        AnisotropySpec(NU_Z, sys.float_info.max), UnitVector3(0.0, 0.0, 1 + 4e-13)),
     "anisotropy r = 1.7976931348623157e+308"),
    (lambda: apply_matrix(  # cosh 20 times 1e300
        boost_matrix(NU_Z, BoostParams(NU_Z, 20.0)), FourVector(1e300, 0.0, 0.0, 0.0)),
     f"apply_matrix of the matrix {boost_matrix(NU_Z, BoostParams(NU_Z, 20.0)).ravel().tolist()}"
     " (row-major) to event [1e+300, 0.0, 0.0, 0.0]"),
    (lambda: translate(FourVector(1.7e308, 0.0, 0.0, 0.0), FourVector(1.7e308, 0.0, 0.0, 0.0)),
     "translate of event [1.7e+308, 0.0, 0.0, 0.0] by [1.7e+308, 0.0, 0.0, 0.0]"),
], ids=["generalized-boost", "dilation", "bispinor", "interval", "bispinor-invariant",
        "horosphere-extent", "horosphere-level", "interval-timelike-size",
        "interval-ray-size", "minkowski-size", "interval-product", "interval-band-size",
        "interval-projection-size", "generalized-boost-product", "bispinor-product",
        "bispinor-invariant-product", "bispinor-size", "generalized-boost-infinite-exponent",
        "bispinor-infinite-exponent", "bispinor-invariant-infinite-exponent",
        "generalized-generator", "apply-matrix", "translate"])
def test_overflow_is_out_of_range_naming_the_input(call, name):
    with pytest.raises(OutOfRange, match=f"{re.escape(name)} overflows"):
        call()
