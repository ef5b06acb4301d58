import math
import re

import mpmath
import numpy as np
import pytest

from finslerboost import (
    AbelianParams,
    AnisotropySpec,
    AxialParams,
    BoostParams,
    FourVector,
    NonOrthogonal,
    NonTimelike,
    OffHorosphere,
    OutOfRange,
    UnitVector3,
    Velocity3,
    ZeroVelocity,
    abelian_params_from_velocity,
    abelian_transform,
    abelian_transform_v,
    abelian_velocity,
    axial_invariants,
    axial_transform,
    compose,
    dot3,
    finsler_interval_sq,
)
from finslerboost.subgroups import perpendicular_to
from support import E_X, NU_Z, _mp_dot, rand_unit


def rand_event(rng):
    x3 = rng.uniform(-1, 1, size=3)
    return FourVector(float(np.linalg.norm(x3)) + rng.uniform(0.1, 2.0), *x3)


def rand_abelian(rng, nu):
    e1 = perpendicular_to(nu)
    e2 = UnitVector3.normalized(np.cross(nu.as_array(), e1.as_array()))
    th = rng.uniform(0, 2 * math.pi)
    n = UnitVector3.normalized(
        math.cos(th) * e1.as_array() + math.sin(th) * e2.as_array()
    )
    return AbelianParams(n, float(rng.uniform(-2, 2)))


@pytest.mark.parametrize("raw", [
    (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.0, 0.0, -1.0), (0.0, -0.0, 1.0),
    (1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0),
    (-2.0, 1.0, -1.0), (0.3, -1.7, 2.9),
])
def test_perpendicular_to_crosses_the_first_axis_of_least_component(raw):
    """nu x e_k, normalized, with k the first index of least |nu_k|: ties
    go to the lower axis, and the signed zeros are those of the cross
    product."""
    nu = UnitVector3.normalized(raw)
    k = min(range(3), key=lambda i: abs(nu.to_json()[i]))
    pivot = [0.0, 0.0, 0.0]
    pivot[k] = 1.0
    want = UnitVector3.normalized(np.cross(nu.to_json(), pivot).tolist())
    got = perpendicular_to(nu)
    assert list(map(repr, got.to_json())) == list(map(repr, want.to_json()))
    assert abs(dot3(got, nu)) < 1e-15


def test_abelian_identity():
    x = FourVector(1.0, 0.5, -0.25, 0.75)
    out = abelian_transform(NU_Z, AbelianParams(E_X, 0.0), x)
    assert out == x


def test_abelian_hand_value():
    out = abelian_transform(NU_Z, AbelianParams(E_X, 1.0), FourVector(1, 0, 0, 0))
    assert np.allclose(out.as_array(), (1.5, -1.0, 0.0, 0.5), atol=1e-15)


def test_abelian_inverse_is_negated_rapidity():
    rng = np.random.default_rng(47)
    for _ in range(300):
        nu = rand_unit(rng)
        p = rand_abelian(rng, nu)
        x = rand_event(rng)
        back = abelian_transform(
            nu, AbelianParams(p.n, -p.alpha), abelian_transform(nu, p, x)
        )
        assert np.max(np.abs(back.as_array() - x.as_array())) < 1e-12


def test_abelian_rejects_non_orthogonal():
    with pytest.raises(NonOrthogonal):
        abelian_transform(NU_Z, AbelianParams(NU_Z, 0.5), FourVector(1, 0, 0, 0))


def test_abelian_from_tangent():
    p = AbelianParams.from_tangent(NU_Z, (2.0, 0.0, 0.0))
    assert p.n == E_X and p.alpha == 2.0
    zero = AbelianParams.from_tangent(NU_Z, (0.0, 0.0, 0.0))
    assert zero.alpha == 0.0 and abs(dot3(NU_Z, zero.n)) < 1e-12
    # w.w underflows to 0 or overflows: w is rescaled before its norm
    for size in (1e-170, 1e160):
        assert AbelianParams.from_tangent(NU_Z, (size, 0.0, 0.0)) == AbelianParams(E_X, size)


def test_abelian_from_tangent_refuses_a_norm_that_overflows():
    """Each component is finite, |w| is not: the error names w and |w|."""
    with pytest.raises(OutOfRange, match=re.escape(
            "the norm |w| of the tangent vector w = [1.7e+308, 1.7e+308, 0.0] overflows")):
        AbelianParams.from_tangent(NU_Z, [1.7e308, 1.7e308, 0.0])


def test_abelian_velocity_example_and_horosphere_condition():
    assert abelian_velocity(NU_Z, AbelianParams(E_X, 0.0)).speed() == 0.0
    v = abelian_velocity(NU_Z, AbelianParams(E_X, 1.0))
    assert np.allclose(v.as_array(), (2 / 3, 0.0, 1 / 3), atol=1e-15)
    rng = np.random.default_rng(53)
    for _ in range(300):
        nu = rand_unit(rng)
        v = abelian_velocity(nu, rand_abelian(rng, nu))
        level = (1.0 - dot3(v, nu)) / math.sqrt(1.0 - v.speed() ** 2)
        assert abs(level - 1.0) < 1e-12


def test_abelian_params_inversion():
    p = abelian_params_from_velocity(NU_Z, Velocity3(2 / 3, 0.0, 1 / 3))
    assert p.alpha == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p.n.as_array(), E_X.as_array(), atol=1e-12)
    rng = np.random.default_rng(59)
    for _ in range(300):
        nu = rand_unit(rng)
        p = rand_abelian(rng, nu)
        if abs(p.alpha) < 1e-3:
            continue
        v = abelian_velocity(nu, p)
        back = abelian_params_from_velocity(nu, v)
        # alpha is recovered up to the (n, alpha) <-> (-n, -alpha) gauge
        assert back.alpha == pytest.approx(abs(p.alpha), rel=1e-10)
        sign = 1.0 if p.alpha > 0 else -1.0
        assert np.max(np.abs(back.n.as_array() - sign * p.n.as_array())) < 1e-9


def test_abelian_params_small_velocity_limit():
    p = AbelianParams(E_X, 1e-4)
    back = abelian_params_from_velocity(NU_Z, abelian_velocity(NU_Z, p))
    assert back.alpha == pytest.approx(1e-4, rel=1e-6)


def test_abelian_params_near_zero_against_mpmath():
    """On a generic nu, alpha from 1e-150 to 3 comes back to 50-digit
    accuracy: alpha = |v_perp|/(1 - v.nu) and n = v_perp/|v_perp| of the
    float velocity, with v_perp = v - (v.nu) nu.  The round trip returns the
    drawn alpha to 1e-15 relative up to 1e-4; beyond, the rounding of v.nu
    is amplified by 1/(1 - v.nu) = 1 + alpha^2/2 (7.1e-15 at alpha = 3 over
    300 seeds).  The drawn n has its own rounding off the plane, |n.nu|, which
    the inversion projects away."""
    rng = np.random.default_rng(61)
    worst_alpha = worst_n = 0.0
    with mpmath.workdps(50):
        for mag in np.geomspace(1e-150, 3.0, 60).tolist():
            nu = rand_unit(rng)
            p = AbelianParams(AbelianParams.from_tangent(nu, rng.normal(size=3)).n, mag)
            v = abelian_velocity(nu, p)
            back = abelian_params_from_velocity(nu, v)
            assert back.alpha == pytest.approx(mag, rel=1e-15 * (1.0 + mag * mag))
            off_plane = abs(dot3(p.n, nu))
            assert np.max(np.abs(back.n.as_array() - p.n.as_array())) <= 1e-15 + off_plane
            s = _mp_dot(v.to_json(), nu.to_json())
            perp = [a - s * b for a, b in zip(v.to_json(), nu.to_json())]
            size = mpmath.sqrt(_mp_dot(perp, perp))
            exact = size / (1 - s)
            worst_alpha = max(worst_alpha, float(abs(back.alpha - exact) / exact))
            worst_n = max(worst_n, max(
                float(abs(g - c / size)) for g, c in zip(back.n.to_json(), perp)))
    assert worst_alpha <= 1e-15 and worst_n <= 1e-15, (worst_alpha, worst_n)
    # where v.v is subnormal or zero, the velocity has no float direction
    for speed in (0.0, 1e-160, 1e-155):
        with pytest.raises(ZeroVelocity):
            abelian_params_from_velocity(NU_Z, Velocity3(speed, 0.0, 0.0))


def test_abelian_params_error_paths():
    with pytest.raises(ZeroVelocity):
        abelian_params_from_velocity(NU_Z, Velocity3(0, 0, 0))
    with pytest.raises(OffHorosphere):
        abelian_params_from_velocity(NU_Z, Velocity3(0, 0, 0.5))


def test_abelian_transform_v():
    x = FourVector(1.3, 0.2, -0.1, 0.4)
    assert abelian_transform_v(NU_Z, Velocity3(0, 0, 0), x) == x
    out = abelian_transform_v(NU_Z, Velocity3(2 / 3, 0.0, 1 / 3), FourVector(1, 0, 0, 0))
    assert np.allclose(out.as_array(), (1.5, -1.0, 0.0, 0.5), atol=1e-12)
    with pytest.raises(OffHorosphere):
        abelian_transform_v(NU_Z, Velocity3(0, 0, 0.5), x)


def test_abelian_transform_v_invariants():
    """The anisotropic interval at three values of r; the Minkowski interval
    and x0 - nu.x are the subgroups suite's abelian-invariants."""
    rng = np.random.default_rng(61)
    for _ in range(500):
        nu = rand_unit(rng)
        v = abelian_velocity(nu, rand_abelian(rng, nu))
        x = rand_event(rng)
        xp = abelian_transform_v(nu, v, x)
        for r in (-0.6, 0.0, 0.8):
            spec = AnisotropySpec(nu, r)
            assert finsler_interval_sq(xp, spec) == pytest.approx(
                finsler_interval_sq(x, spec), rel=1e-9
            )


def test_abelian_matches_boost_matrix_and_parameter_map():
    """The map through the velocity; the match with the generalized boost
    is the subgroups suite's abelian-vs-orthogonal-boost."""
    rng = np.random.default_rng(67)
    for _ in range(300):
        nu = rand_unit(rng)
        p = rand_abelian(rng, nu)
        x = rand_event(rng)
        rng.uniform(-0.9, 0.9)  # an unused r, drawn to keep this seed's samples
        direct = abelian_transform(nu, p, x)
        if abs(p.alpha) > 1e-3:
            via = abelian_transform_v(nu, abelian_velocity(nu, p), x)
            assert np.max(np.abs(direct.as_array() - via.as_array())) < 1e-10


def test_abelian_commutativity_and_closure():
    """Closure: the full composition law restricted to the plane.  The
    commutativity is the subgroups suite's abelian-commutativity."""
    rng = np.random.default_rng(71)
    for _ in range(300):
        nu = rand_unit(rng)
        p1, p2 = rand_abelian(rng, nu), rand_abelian(rng, nu)
        rand_event(rng)  # an unused event, drawn to keep this seed's samples
        g = compose(nu, BoostParams(p1.n, p1.alpha), BoostParams(p2.n, p2.alpha))
        w = p1.n.as_array() * p1.alpha + p2.n.as_array() * p2.alpha
        assert np.max(np.abs(g.n.as_array() * g.alpha - w)) < 1e-10
        assert abs(dot3(nu, g.n) * g.alpha) < 1e-10


def test_axial_identity_and_hand_value():
    spec = AnisotropySpec(NU_Z, 0.5)
    x = FourVector(1.0, 0.2, 0.3, -0.4)
    assert axial_transform(spec, AxialParams(0.0), x) == x
    out = axial_transform(spec, AxialParams(math.log(2.0)), FourVector(1, 0, 0, 0))
    assert out.t == pytest.approx((5 / 4) / math.sqrt(2.0), rel=1e-14)
    assert out.z == pytest.approx(-(3 / 4) / math.sqrt(2.0), rel=1e-14)
    assert out.x == 0.0 and out.y == 0.0


def test_axial_inverse_pair_and_flow():
    """-alpha inverts alpha; the flow's additivity is the subgroups suite's
    axial-flow-additivity."""
    rng = np.random.default_rng(73)
    for _ in range(300):
        nu = rand_unit(rng)
        spec = AnisotropySpec(nu, float(rng.uniform(-0.9, 0.9)))
        a1, _ = rng.uniform(-2, 2, size=2)
        x = rand_event(rng)
        back = axial_transform(
            spec, AxialParams(-a1), axial_transform(spec, AxialParams(a1), x)
        )
        assert np.max(np.abs(back.as_array() - x.as_array())) < 1e-12


def test_axial_preserves_finsler_only_for_own_r():
    spec = AnisotropySpec(NU_Z, 0.5)
    x = FourVector(2.0, 0.3, -0.2, 0.5)
    xp = axial_transform(spec, AxialParams(0.8), x)
    assert finsler_interval_sq(xp, spec) == pytest.approx(
        finsler_interval_sq(x, spec), rel=1e-10
    )
    other = AnisotropySpec(NU_Z, 0.1)
    assert finsler_interval_sq(xp, other) != pytest.approx(
        finsler_interval_sq(x, other), rel=1e-6
    )


def test_axial_invariants_examples():
    inv = axial_invariants(AnisotropySpec(NU_Z, 0.3), FourVector(1, 0, 0, 0))
    assert (inv.nu_projection, inv.interval_sq, inv.cylinder_ratio) == (1.0, 1.0, 0.0)
    inv = axial_invariants(AnisotropySpec(NU_Z, 0.3), FourVector(2, 1, 0, 0))
    assert inv.nu_projection == 2.0
    assert inv.interval_sq == 3.0
    assert inv.cylinder_ratio == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
    with pytest.raises(NonTimelike):
        axial_invariants(AnisotropySpec(NU_Z, 0.3), FourVector(1, 2, 0, 0))


def test_axial_scaling_laws():
    """The cylinder ratio is kept, down to ratios of 0 that the subgroups
    suite skips below 1e-6; the scaling of the projection and the interval
    is the suite's axial-scaling-laws."""
    rng = np.random.default_rng(79)
    spec = AnisotropySpec(NU_Z, 0.5)
    for _ in range(300):
        x = rand_event(rng)
        before = axial_invariants(spec, x)
        after = axial_invariants(spec, axial_transform(spec, AxialParams(math.log(2.0)), x))
        assert after.cylinder_ratio == pytest.approx(before.cylinder_ratio, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("build", [
    lambda alpha: BoostParams(E_X, alpha),
    lambda alpha: AbelianParams(E_X, alpha),
    lambda alpha: AxialParams(alpha),
], ids=["boost", "abelian", "axial"])
@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_non_finite_rapidity_is_rejected_naming_it(build, alpha):
    with pytest.raises(ValueError, match=f"not a finite number: {alpha}"):
        build(alpha)


def test_abelian_overflow_is_out_of_range_naming_the_inputs():
    """alpha^2 overflows: the image event and the velocity (inf / inf) are
    not finite, which was a bare ValueError.  Both Abelian transforms name
    the event and the tangent vector, as an event can overflow by itself;
    the velocity names alpha wherever its speed rounds to 1."""
    p = AbelianParams(E_X, 1e160)
    with pytest.raises(OutOfRange, match=re.escape(
            "Abelian transform of event [1.0, 0.0, 0.0, 0.0] by the tangent vector"
            " [1e+160, 0.0, 0.0] overflows")):
        abelian_transform(NU_Z, p, FourVector(1.0, 0.0, 0.0, 0.0))
    for alpha in (1e160, 2e4):  # alpha^2 overflows; the speed rounds to 1
        with pytest.raises(OutOfRange, match=re.escape(f"rapidity alpha = {alpha} gives a speed")):
            abelian_velocity(NU_Z, AbelianParams(E_X, alpha))
    x = FourVector(1.5e308, 0.0, 0.0, -1.5e308)  # x0 - nu.x overflows at any alpha
    with pytest.raises(OutOfRange, match=re.escape(
            "Abelian transform of event [1.5e+308, 0.0, 0.0, -1.5e+308] by the tangent vector"
            " [1.0, 0.0, 0.0] overflows")):
        abelian_transform(NU_Z, AbelianParams(E_X, 1.0), x)
    with pytest.raises(OutOfRange, match=re.escape(
            "Abelian transform of event [1.5e+308, 0.0, 0.0, -1.5e+308] by the tangent vector"
            " [0.0, 0.0, 0.0] overflows")):
        abelian_transform_v(NU_Z, Velocity3(0.0, 0.0, 0.0), x)
