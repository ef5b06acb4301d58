import collections
import math
import re

import mpmath
import numpy as np
import pytest

from finslerboost import (
    AnisotropySpec,
    OutOfRange,
    UnitVector3,
    Velocity3,
    add_velocities,
    bispinor_matrix,
    cylinder_level,
    dilation_factor,
    dot3,
    horosphere_level,
    induced_motion,
    lobachevsky_distance,
    params_from_velocity,
    sample_surface,
)
from finslerboost.subgroups import perpendicular_to
from finslerboost.velocity_space import _inverse_frame
from support import NU_Z, _mp_dot, _mp_frame_rows, _mp_rows_image, rand_speed, rand_unit


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


def _mp_distance(v1, v2):
    """acosh(g1 g2 (1 - v1.v2)) at 60 digits, the float inputs taken as exact."""
    with mpmath.workdps(60):
        a, b = v1.to_json(), v2.to_json()
        return mpmath.acosh(
            (1 - _mp_dot(a, b)) / mpmath.sqrt((1 - _mp_dot(a, a)) * (1 - _mp_dot(b, b)))
        )


def test_distance_against_mpmath():
    """Relative error against 60 digits: random pairs at rapidity 0-3 and
    3-12, nearly equal pairs, and two speeds of 1 - 1e-10 head to head.
    Above rapidity 3 the rounding of 1 - v.v is what remains."""
    rng = np.random.default_rng(181)

    def rel_err(a, b):
        d = _mp_distance(a, b)
        return abs(float((lobachevsky_distance(a, b) - d) / d))

    def nearly(a, eps):
        return a, Velocity3(*(c + eps * rng.uniform(-1, 1) for c in a.to_json()))

    for pairs, bound in (
        ([(rand_speed(rng), rand_speed(rng)) for _ in range(1000)], 1e-14),
        ([(rand_speed(rng, 3, 12), rand_speed(rng, 3, 12)) for _ in range(1000)], 1e-7),
        ([nearly(rand_speed(rng), eps) for eps in (1e-6, 1e-9, 1e-12) for _ in range(300)],
         5e-14),
        ([(Velocity3(0.9999999999, 0, 0), Velocity3(-0.9999999999, 0, 0))], 1e-10),
    ):
        got = max(rel_err(a, b) for a, b in pairs)
        assert got <= bound, (bound, got)


def _frames(rng):
    """(nu, frame) pairs: generic frames, frames within 1e-3 rad of +nu or
    -nu, and frames perpendicular to nu; speeds up to tanh 3."""
    for _ in range(3000):
        yield rand_unit(rng), rand_speed(rng)
    for k in range(600):
        nu = rand_unit(rng)
        tilt = float(rng.uniform(0, 1e-3))
        e = perpendicular_to(nu).as_array()
        d = math.cos(tilt) * nu.as_array() + math.sin(tilt) * e
        sign = 1.0 if k % 2 else -1.0
        yield nu, Velocity3.from_array(sign * math.tanh(rng.uniform(0.01, 3)) * d)
    for _ in range(600):
        nu = rand_unit(rng)
        e = UnitVector3.normalized(np.cross(nu.as_array(), rng.normal(size=3)))
        yield nu, Velocity3.from_array(math.tanh(rng.uniform(0.01, 3)) * e.as_array())


def _fast_frames_near_rest(rng):
    """(nu, frame, v): frames at rapidity 2 to 3 and a v that the frame sees
    within speed 0.1 of rest, the frame's Einstein sum with a slow velocity."""
    for _ in range(3000):
        nu = rand_unit(rng)
        u = math.tanh(rng.uniform(2, 3)) * rand_unit(rng).as_array()
        s = math.tanh(rng.uniform(0, 0.1)) * rand_unit(rng).as_array()
        g = 1 / math.sqrt(1 - dot3(u, u))
        v = (u + s / g + g / (1 + g) * dot3(u, s) * u) / (1 + dot3(u, s))
        yield nu, Velocity3.from_array(u), Velocity3.from_array(v)


def _gap(got, want):
    return max(abs(float(p - q)) for p, q in zip(got, want))


def test_velocity_action_against_mpmath():
    """induced_motion is Lambda(u) and add_velocities(v1, .) is Lambda(v1)^-1
    acting on velocities; both against the boost's rows at 50 digits.  On
    the `_frames` draws the same rows give the image of rest, which the
    closed-form inverse frame matches; it has the frame's speed and the
    reciprocal of its horosphere level."""
    rng = np.random.default_rng(173)
    drawn = [(nu, frame, rand_speed(rng)) for nu, frame in _frames(rng)]
    near_rest = list(_fast_frames_near_rest(rng))
    pairs = [(rand_unit(rng), rand_speed(rng), rand_speed(rng)) for _ in range(3000)]
    worst_back = 0.0
    with mpmath.workdps(50):
        for draws, act, sign, bound in (
            (drawn, induced_motion, 1, 1e-13),
            (near_rest, induced_motion, 1, 1e-13),
            (pairs, add_velocities, -1, 2e-14),
        ):
            worst = 0.0
            for nu, frame, v in draws:
                rows = _mp_frame_rows(nu.to_json(), frame.to_json(), sign)
                got = act(nu, frame, v).to_json()
                worst = max(worst, _gap(got, _mp_rows_image(rows, v.to_json())))
                if draws is drawn:
                    back, _ = _inverse_frame(tuple(nu.to_json()), tuple(frame.to_json()))
                    rest = [row[0] / rows[0][0] for row in rows[1:]]  # Lambda (1, 0)
                    worst_back = max(worst_back, _gap(back, rest))
                    back_v = Velocity3(*back)
                    assert abs(back_v.speed() - frame.speed()) <= 1e-15
                    level = horosphere_level(nu, back_v) * horosphere_level(nu, frame)
                    assert abs(level - 1.0) <= 1e-13
            assert worst <= bound, (act.__name__, worst)
    assert worst_back <= 1e-14, worst_back


def test_cylinder_levels_invariant_under_axial_motions():
    rng = np.random.default_rng(151)
    for _ in range(500):
        nu = rand_unit(rng)
        frame = Velocity3.from_array(math.tanh(rng.uniform(-3, 3)) * nu.as_array())
        v = rand_speed(rng)
        c0 = cylinder_level(nu, v)
        c1 = cylinder_level(nu, induced_motion(nu, frame, v))
        assert c1 == pytest.approx(c0, rel=1e-9, abs=1e-12)


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


@pytest.mark.parametrize("resolution", [(0, 3), (3, 0)])
def test_sample_surface_empty_resolution(resolution):
    with pytest.raises(ValueError, match="resolution must be at least 1x1"):
        sample_surface(NU_Z, "horosphere", 1.0, resolution)


@pytest.mark.parametrize("family", ["horosphere", "cylinder"])
@pytest.mark.parametrize("level", [math.inf, math.nan])
def test_sample_surface_nonfinite_level(family, level):
    with pytest.raises(OutOfRange, match="level must be finite"):
        sample_surface(NU_Z, family, level)


@pytest.mark.parametrize("family", ["horosphere", "cylinder"])
@pytest.mark.parametrize("extent", [math.inf, -math.inf, math.nan])
def test_sample_surface_nonfinite_extent(family, extent):
    """Refused up front, naming the extent; it overflowed an event or failed
    the level re-check before."""
    with pytest.raises(OutOfRange, match=re.escape(f"surface extent must be finite: {extent}")):
        sample_surface(NU_Z, family, 0.5, (2, 2), extent)


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


def _inside(d, s):
    """The velocity s d, with s lowered until its speed is below 1."""
    while True:
        try:
            return Velocity3.from_array(s * d)
        except OutOfRange:
            s = math.nextafter(s, 0.0)


def test_velocity_action_near_the_edge_ends_in_a_velocity_or_out_of_range():
    """At speeds 1 - 10^U(-16, -1) the result can round onto the edge of the
    ball: add_velocities and induced_motion return a Velocity3 or raise
    OutOfRange, never a bare ValueError or ZeroDivisionError.  Every third
    v2 is v1's inverse frame, at speeds within 3e-16 of 1 where 1 - u.x of
    add_velocities can round to 0."""
    rng = np.random.default_rng(181)
    outcomes = collections.Counter()
    for i in range(300):
        nu = rand_unit(rng)
        if i % 3:
            v1, v2 = (_inside(rand_unit(rng).as_array(), 1 - 10 ** rng.uniform(-16, -1))
                      for _ in range(2))
        else:
            v1 = _inside(rand_unit(rng).as_array(), 1 - 10 ** rng.uniform(-16, -15.5))
            v2 = _inside(np.array(_inverse_frame(nu.to_json(), v1.to_json())[0]), 1.0)
        for act in (add_velocities, induced_motion):
            try:
                assert type(act(nu, v1, v2)) is Velocity3
                outcomes["velocity"] += 1
            except OutOfRange as exc:
                outcomes["speed" if "speed must be below 1" in str(exc) else "edge"] += 1
    assert set(outcomes) == {"velocity", "speed", "edge"}, outcomes


def test_velocities_at_the_edge_along_nu_end_in_a_value_or_out_of_range():
    """v = s nu with s = 1 - 2^-k, k = 50..53, and nu normalized from normal
    draws: inside the ball, 1 - v.nu can still round to 0 or below.  The
    level, the dilation at r = +-0.3, the bispinor matrix and the boost
    parameters end in a finite value or OutOfRange: never a complex number,
    a level or dilation of 0.0, or a bare error."""
    rng = np.random.default_rng(401)
    outcomes = collections.Counter()
    for _ in range(100):
        nu = rand_unit(rng)
        for k in range(50, 54):
            try:  # |nu| can exceed 1 by an ulp
                v = Velocity3(*[(1.0 - 2.0 ** -k) * c for c in nu.to_json()])
            except OutOfRange:
                continue
            for call in (
                lambda: horosphere_level(nu, v),
                lambda: dilation_factor(AnisotropySpec(nu, 0.3), v),
                lambda: dilation_factor(AnisotropySpec(nu, -0.3), v),
                lambda: bispinor_matrix(AnisotropySpec(nu, 0.3), v),
                lambda: params_from_velocity(nu, v).alpha,
            ):
                try:
                    value = call()
                except OutOfRange:
                    outcomes["edge"] += 1
                    continue
                if isinstance(value, np.ndarray):
                    assert np.isfinite(value).all()
                else:
                    assert type(value) is float and 0.0 < value < math.inf, value
                outcomes["value"] += 1
    assert set(outcomes) == {"value", "edge"}, outcomes
