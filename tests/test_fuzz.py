"""Seeded domain fuzz: every public function, and the CLI, on inputs that
span the float range.

Magnitudes are 10^U(-300, 308.2), or one of EDGES, the float range's edges
and the sizes whose squares or products overflow; speeds are
1 - 10^U(-16, -0.01), and nu is off unit length by up to the 1e-12 that
UnitVector3 accepts.  Every outcome must
be a finite float, a finite ndarray, a value type with finite fields, or a
DomainError: never a bare exception, a complex number, inf or NaN.  The CLI
must exit 0 or 2 and print strict JSON or nothing.
"""
import math
import random
import sys

import numpy as np
import pytest

from finslerboost import (
    AbelianParams,
    AnisotropySpec,
    AxialParams,
    BoostParams,
    DomainError,
    FourVector,
    UnitVector3,
    Velocity3,
    boost,
    core,
    spinor,
    subgroups,
    velocity_space,
)
from finslerboost.cli import main
from support import strict_json

DRAWS = 200
EDGES = (sys.float_info.max, 1.5e308, 1e300, 1.3e154, 1e10, 1e-300, 5e-324)


def _mag(rng) -> float:
    size = rng.choice(EDGES) if rng.random() < 0.1 else 10.0 ** rng.uniform(-300, 308.2)
    return rng.choice((-1.0, 1.0)) * size


def _unit(rng) -> UnitVector3:
    """A random direction or an axis, off unit length by up to about 1e-12."""
    if rng.random() < 0.2:
        v = [0.0, 0.0, 0.0]
        v[rng.randrange(3)] = rng.choice((-1.0, 1.0))
    else:
        v = list(UnitVector3.normalized([rng.gauss(0, 1) for _ in range(3)]).to_json())
    k = 1.0 + rng.uniform(-4.9e-13, 4.9e-13)
    return UnitVector3(*[k * c for c in v])


def _speed(rng) -> float:
    return 1.0 - 10.0 ** rng.uniform(-16, -0.01) if rng.random() < 0.7 else rng.random()


def _velocity(rng, nu: UnitVector3) -> Velocity3:
    """A velocity at a random speed, a third of them along +-nu."""
    d = nu if rng.random() < 0.3 else _unit(rng)
    s = _speed(rng) * rng.choice((-1.0, 1.0))
    while True:
        try:
            return Velocity3(*[s * c for c in d.to_json()])
        except DomainError:  # the speed rounds to 1
            s *= 1.0 - 10.0 ** rng.uniform(-16, -12)


def _scalar(rng) -> float:
    return rng.uniform(-3, 3) if rng.random() < 0.6 else _mag(rng)


def _r(rng) -> float:
    k = rng.random()
    return rng.uniform(-3, 3) if k < 0.6 else float(rng.randint(-3, 3)) if k < 0.8 else _mag(rng)


def _event(rng, nu: UnitVector3) -> FourVector:
    """A random event, one at a common scale, or one with x0 = nu.x."""
    k = rng.random()
    if k < 0.4:
        return FourVector(*[_mag(rng) for _ in range(4)])
    scale = 10.0 ** rng.uniform(-300, 307)  # the event must be finite
    sx = [rng.gauss(0, 1) * scale for _ in range(3)]
    if k < 0.8:
        return FourVector(rng.gauss(0, 2) * scale, *sx)
    return FourVector(core.dot3(nu, sx), *sx)


def _psi(rng) -> list:
    scale = 10.0 ** rng.uniform(-300, 308.2)
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * scale for _ in range(4)]


def _perpendicular(rng, nu: UnitVector3) -> UnitVector3:
    e1 = subgroups.perpendicular_to(nu).to_json()
    e2 = core.cross3(nu, e1).tolist()
    t = rng.uniform(0, 2 * math.pi)
    return UnitVector3.normalized([math.cos(t) * p + math.sin(t) * q for p, q in zip(e1, e2)])


def _horosphere_velocity(rng, nu: UnitVector3) -> Velocity3:
    while True:
        try:
            return subgroups.abelian_velocity(
                nu, AbelianParams(_perpendicular(rng, nu), _scalar(rng)))
        except DomainError:
            continue


def _calls(rng):
    """(name, thunk) for one draw of every public function."""
    nu = _unit(rng)
    spec = AnisotropySpec(nu, _r(rng))
    n = _unit(rng)
    params = BoostParams(n, _scalar(rng))
    v1, v2 = _velocity(rng, nu), _velocity(rng, nu)
    x, y = _event(rng, nu), _event(rng, nu)
    a, b = [_mag(rng) for _ in range(3)], [_mag(rng) for _ in range(3)]
    ap = AbelianParams(_perpendicular(rng, nu), _scalar(rng))
    hv = _horosphere_velocity(rng, nu)
    psi = _psi(rng)
    level, extent = _mag(rng), _scalar(rng)
    return [
        ("dot3", lambda: core.dot3(a, b)),
        ("cross3", lambda: core.cross3(a, b)),
        ("norm3", lambda: core.norm3(a)),
        ("minkowski_interval", lambda: core.minkowski_interval(x)),
        ("finsler_interval_sq", lambda: core.finsler_interval_sq(x, spec)),
        ("generator", lambda: boost.generator(nu, n)),
        ("generalized_generator", lambda: boost.generalized_generator(spec, n)),
        ("boost_matrix", lambda: boost.boost_matrix(nu, params)),
        ("boost_matrix_inverse", lambda: boost.boost_matrix_inverse(nu, params)),
        ("compose", lambda: boost.compose(nu, params, BoostParams(_unit(rng), _scalar(rng)))),
        ("velocity_from_params", lambda: boost.velocity_from_params(nu, params)),
        ("params_from_velocity", lambda: boost.params_from_velocity(nu, v1)),
        ("add_velocities", lambda: boost.add_velocities(nu, v1, v2)),
        ("dilation_factor", lambda: boost.dilation_factor(spec, v1)),
        ("generalized_boost_matrix", lambda: boost.generalized_boost_matrix(spec, params)),
        ("axial_rotation", lambda: boost.axial_rotation(nu, _scalar(rng))),
        ("translate", lambda: boost.translate(x, y)),
        ("apply_matrix", lambda: boost.apply_matrix(boost.boost_matrix(nu, params), x)),
        ("perpendicular_to", lambda: subgroups.perpendicular_to(nu)),
        ("from_tangent", lambda: AbelianParams.from_tangent(nu, a)),
        ("abelian_transform", lambda: subgroups.abelian_transform(nu, ap, x)),
        ("abelian_velocity", lambda: subgroups.abelian_velocity(nu, ap)),
        ("abelian_params_from_velocity",
         lambda: subgroups.abelian_params_from_velocity(nu, hv)),
        ("abelian_transform_v", lambda: subgroups.abelian_transform_v(nu, hv, x)),
        ("axial_transform",
         lambda: subgroups.axial_transform(spec, AxialParams(_scalar(rng)), x)),
        ("axial_invariants", lambda: subgroups.axial_invariants(spec, x)),
        ("lobachevsky_distance", lambda: velocity_space.lobachevsky_distance(v1, v2)),
        ("horosphere_level", lambda: velocity_space.horosphere_level(nu, v1)),
        ("cylinder_level", lambda: velocity_space.cylinder_level(nu, v1)),
        ("induced_motion", lambda: velocity_space.induced_motion(nu, v1, v2)),
        ("sample_surface", lambda: velocity_space.sample_surface(
            nu, rng.choice(("horosphere", "cylinder")), level, (2, 2), extent)),
        ("spinor_generator", lambda: spinor.spinor_generator(nu, n)),
        ("spinor_boost", lambda: spinor.spinor_boost(nu, params)),
        ("bispinor_matrix", lambda: spinor.bispinor_matrix(spec, v1)),
        ("bispinor_transform", lambda: spinor.bispinor_transform(spec, v1, psi)),
        ("dirac_adjoint", lambda: spinor.dirac_adjoint(psi)),
        ("bilinear_current", lambda: spinor.bilinear_current(psi)),
        ("finsler_bispinor_invariant",
         lambda: spinor.finsler_bispinor_invariant(spec, psi)),
    ]


def _finite(value) -> bool:
    """A finite float, a finite ndarray, or a value type whose fields are."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if isinstance(value, core._Value):
        return all(_finite(getattr(value, f)) for f in value.__slots__)
    return isinstance(value, str)


def test_every_public_function_ends_in_a_finite_result_or_a_domain_error():
    rng = random.Random(2718)
    bad = []
    for _ in range(DRAWS):
        for name, call in _calls(rng):
            try:
                value = call()
            except DomainError:
                continue
            except Exception as exc:  # noqa: BLE001 - a bare error is the finding
                bad.append((name, f"{type(exc).__name__}: {exc}"))
                continue
            if isinstance(value, complex) or not _finite(value):
                bad.append((name, repr(value)[:120]))
    assert not bad, f"{len(bad)} bad outcomes, first: {bad[:5]}"


def _text(values) -> str:
    return ",".join(repr(float(c)) for c in values)


def _argv(rng, command: str) -> list:
    """One seeded argv of a command, with nu off unit length, velocities up to
    the edge of the ball and magnitudes over the float range."""
    nu = [c * 10.0 ** rng.uniform(-3, 3) for c in _unit(rng).to_json()]
    unit = UnitVector3.normalized(nu)  # as the CLI reads --nu
    args = [command, f"--nu={_text(nu)}"]

    def boost_args(suffix=""):
        if rng.random() < 0.5:
            return [f"--v{suffix}={_text(_velocity(rng, unit).to_json())}"]
        return [f"--n{suffix}={_text(_unit(rng).to_json())}",
                f"--alpha{suffix}={_scalar(rng)!r}"]

    if command == "boost":
        args += [f"--r={_r(rng)!r}", *boost_args()]
        if rng.random() < 0.5:
            args.append(f"--x={_text(_event(rng, unit).to_json())}")
    elif command == "compose":
        args += boost_args("1") + boost_args("2")
    elif command == "invariants":
        args += [f"--r={_r(rng)!r}", f"--x={_text(_event(rng, unit).to_json())}",
                 f"--v={_text(_velocity(rng, unit).to_json())}"]
        args.append(f"--psi={_text(p for c in _psi(rng) for p in (c.real, c.imag))}")
    elif command == "spinor":
        args += [f"--r={_r(rng)!r}", f"--v={_text(_velocity(rng, unit).to_json())}",
                 f"--psi={_text(p for c in _psi(rng) for p in (c.real, c.imag))}"]
    else:
        args += [f"--family={rng.choice(('horosphere', 'cylinder'))}",
                 f"--level={_mag(rng)!r}", "--resolution=2x2", f"--extent={_scalar(rng)!r}"]
    return args


@pytest.mark.parametrize("command", ["boost", "compose", "invariants", "spinor", "surface"])
def test_cli_exits_0_or_2_with_strict_json_or_nothing(command, capsys, tmp_path):
    rng = random.Random(f"cli-{command}")
    codes = set()
    for i in range(60):
        argv = _argv(rng, command)
        if command == "surface":
            argv.append(f"--output={tmp_path / f'{i}.csv'}")
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2), argv
        if out:
            strict_json(out)
        else:
            assert code == 2, argv
        codes.add(code)
    assert codes == {0, 2}, codes

