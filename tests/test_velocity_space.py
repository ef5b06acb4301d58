import math

import numpy as np
import pytest

from finslerboost import (
    AbelianParams,
    AnisotropySpec,
    OutOfRange,
    UnitVector3,
    Velocity3,
    abelian_velocity,
    cylinder_level,
    dilation_factor,
    horosphere_level,
    induced_motion,
    lobachevsky_distance,
    sample_surface,
)
from finslerboost.subgroups import perpendicular_to

NU_Z = UnitVector3(0.0, 0.0, 1.0)


def rand_unit(rng):
    return UnitVector3.normalized(rng.normal(size=3))


def rand_speed(rng):
    return Velocity3.from_array(
        math.tanh(rng.uniform(0, 3)) * rand_unit(rng).as_array()
    )


def test_distance_examples():
    v = Velocity3(0.1, 0.2, -0.3)
    assert lobachevsky_distance(v, v) == 0.0
    assert lobachevsky_distance(
        Velocity3(0, 0, 0), Velocity3(0, 0, math.tanh(1.0))
    ) == pytest.approx(1.0, rel=1e-12)


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(137)
    for _ in range(300):
        a, b, c = rand_speed(rng), rand_speed(rng), rand_speed(rng)
        assert lobachevsky_distance(a, b) == pytest.approx(
            lobachevsky_distance(b, a), rel=1e-12
        )
        assert lobachevsky_distance(a, c) <= (
            lobachevsky_distance(a, b) + lobachevsky_distance(b, c) + 1e-12
        )


def test_level_examples():
    assert horosphere_level(NU_Z, Velocity3(0, 0, 0)) == 1.0
    alpha = 1.3
    assert horosphere_level(NU_Z, Velocity3(0, 0, math.tanh(alpha))) == pytest.approx(
        math.exp(-alpha), rel=1e-12
    )
    assert cylinder_level(NU_Z, Velocity3(0, 0, 0.7)) == 0.0
    assert cylinder_level(NU_Z, Velocity3(0.6, 0, 0)) == pytest.approx(0.5625, rel=1e-14)


def test_cylinder_level_near_axis_keeps_digits():
    # v^2 - (v.nu)^2 cancels here; |v x nu|^2 does not.
    eps = 1e-5
    v = Velocity3(0.9 * math.sin(eps), 0.0, 0.9 * math.cos(eps))
    exact = 0.81 * math.sin(eps) ** 2 / 0.19
    assert abs(cylinder_level(NU_Z, v) - exact) <= 1e-12 * exact


def test_induced_motion_identity():
    v = Velocity3(0.2, -0.1, 0.4)
    assert induced_motion(NU_Z, Velocity3(0, 0, 0), v) == v


def test_induced_motion_is_isometry():
    rng = np.random.default_rng(139)
    for _ in range(500):
        nu = rand_unit(rng)
        frame = rand_speed(rng)
        a, b = rand_speed(rng), rand_speed(rng)
        d0 = lobachevsky_distance(a, b)
        d1 = lobachevsky_distance(
            induced_motion(nu, frame, a), induced_motion(nu, frame, b)
        )
        assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-12)


def test_horosphere_levels_invariant_under_abelian_motions():
    rng = np.random.default_rng(149)
    for _ in range(500):
        nu = rand_unit(rng)
        frame = abelian_velocity(
            nu, AbelianParams(perpendicular_to(nu), float(rng.uniform(-2, 2)))
        )
        v = rand_speed(rng)
        assert horosphere_level(nu, induced_motion(nu, frame, v)) == pytest.approx(
            horosphere_level(nu, v), rel=1e-9
        )


def test_cylinder_levels_invariant_under_axial_motions():
    rng = np.random.default_rng(151)
    for _ in range(500):
        nu = rand_unit(rng)
        frame = Velocity3.from_array(math.tanh(rng.uniform(-3, 3)) * nu.as_array())
        v = rand_speed(rng)
        c0 = cylinder_level(nu, v)
        c1 = cylinder_level(nu, induced_motion(nu, frame, v))
        assert c1 == pytest.approx(c0, rel=1e-9, abs=1e-12)


def test_dilation_is_level_power():
    rng = np.random.default_rng(157)
    for _ in range(1000):
        nu = rand_unit(rng)
        r = float(rng.uniform(-0.9, 0.9))
        v = rand_speed(rng)
        assert abs(
            dilation_factor(AnisotropySpec(nu, r), v) - horosphere_level(nu, v) ** r
        ) < 1e-12


def test_sample_horosphere():
    sample = sample_surface(NU_Z, "horosphere", 1.0, resolution=(8, 8))
    assert len(sample.points) == 64
    # an odd grid passes through the plane origin, i.e. through v = 0
    odd = sample_surface(NU_Z, "horosphere", 1.0, resolution=(9, 9))
    assert any(p.speed() < 1e-12 for p in odd.points)
    for p in sample.points:
        assert horosphere_level(NU_Z, p) == pytest.approx(1.0, abs=1e-8)
    tilted = sample_surface(UnitVector3.normalized((1, 1, 1)), "horosphere", 0.5, (5, 3))
    assert len(tilted.points) == 15
    for p in tilted.points:
        assert horosphere_level(UnitVector3.normalized((1, 1, 1)), p) == pytest.approx(
            0.5, abs=1e-8
        )


def test_sample_cylinder():
    sample = sample_surface(NU_Z, "cylinder", 0.5625, resolution=(4, 6))
    assert len(sample.points) == 24
    for p in sample.points:
        assert cylinder_level(NU_Z, p) == pytest.approx(0.5625, abs=1e-8)
    degenerate = sample_surface(NU_Z, "cylinder", 0.0, resolution=(5, 6))
    assert len(degenerate.points) == 5
    for p in degenerate.points:
        assert abs(p.vx) < 1e-15 and abs(p.vy) < 1e-15


def test_sample_surface_errors():
    with pytest.raises(OutOfRange):
        sample_surface(NU_Z, "horosphere", 0.0)
    with pytest.raises(OutOfRange):
        sample_surface(NU_Z, "cylinder", -0.5)
    # levels whose points no longer re-evaluate to the level in float64
    for family in ("horosphere", "cylinder"):
        with pytest.raises(OutOfRange, match="re-evaluates"):
            sample_surface(NU_Z, family, 1e8)
    with pytest.raises(ValueError):
        sample_surface(NU_Z, "paraboloid", 1.0)


def test_surface_serialization(tmp_path):
    import csv
    import io

    sample = sample_surface(NU_Z, "cylinder", 0.25, resolution=(3, 4))
    as_json = sample.to_json()
    assert as_json["family"] == "cylinder"
    assert len(as_json["points"]) == 12
    buf = io.StringIO()
    sample.write_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["vx", "vy", "vz", "level"]
    assert len(rows) == 13
    assert float(rows[1][3]) == 0.25
