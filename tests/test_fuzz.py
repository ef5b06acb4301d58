"""Seeded domain fuzz: every public function, and the CLI, on inputs that
span the float range.

Magnitudes are 10^U(-300, 308.2), or one of EDGES, the float range's edges
and the sizes whose squares or products overflow; speeds are
1 - 10^U(-16, -0.01), nu is off unit length by up to the 1e-12 that
UnitVector3 accepts, and a tenth of the rotation angles are nan or +-inf.
Every outcome must be a finite float, a finite ndarray, a value type with
finite fields, or a DomainError: never a bare exception, a complex number,
inf or NaN.  The CLI must exit 0 or 2 and print strict JSON or nothing.

A direction must be a UnitVector3 and a velocity a Velocity3: any other
type, a 3-sequence or the other role's type, ends in TypeError.
"""
import inspect
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


def _angle(rng) -> float:
    return rng.choice((math.nan, math.inf, -math.inf)) if rng.random() < 0.1 else _scalar(rng)


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
        ("axial_rotation", lambda: boost.axial_rotation(nu, _angle(rng))),
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


# The arguments not under test: one valid value per annotation, or per name
# where a parameter has none.
VALID = {
    "UnitVector3": UnitVector3(0.0, 0.0, 1.0),
    "Velocity3": Velocity3(0.1, -0.2, 0.3),
    "BoostParams": BoostParams(UnitVector3(1.0, 0.0, 0.0), 0.5),
    "AbelianParams": AbelianParams(UnitVector3(1.0, 0.0, 0.0), 0.5),
    "AnisotropySpec": AnisotropySpec(UnitVector3(0.0, 0.0, 1.0), 0.3),
    "FourVector": FourVector(2.0, 0.3, -0.1, 0.4),
    "float": 0.5,
    "str": "horosphere",
    "w": [0.0, 0.5, 0.0],
    "psi": [1.0, 0.0, 0.0, 0.0],
}
ROLES = ("UnitVector3", "Velocity3")


def _typed_arguments() -> list:
    """(name, callable, parameters, index) for each direction or velocity
    argument, annotated UnitVector3 or Velocity3, of every public function,
    constructor and class method."""
    cases = []
    for module in (core, boost, subgroups, velocity_space, spinor):
        for name in module.__all__:
            obj = getattr(module, name)
            calls = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                calls += [(f"{name}.{m}", getattr(obj, m)) for m, f in vars(obj).items()
                          if isinstance(f, classmethod)]
            for label, call in calls:
                try:
                    params = list(inspect.signature(call).parameters.values())
                except ValueError:  # the exception classes have none
                    continue
                cases += [(f"{label}-{p.name}", call, params, i)
                          for i, p in enumerate(params) if p.annotation in ROLES]
    return cases


TYPED_ARGUMENTS = _typed_arguments()


def _wrong(role: str) -> list:
    """A tuple, a list and an ndarray each of a unit vector, a valid velocity
    and a vector of speed 2; the other role's type; and an event, whose
    fields x, y and z a bare attribute read would take for a direction."""
    contents = ((0.0, 0.6, 0.8), (0.1, -0.2, 0.3), (0.0, 0.0, 2.0))
    other = VALID["Velocity3" if role == "UnitVector3" else "UnitVector3"]
    return ([kind(c) for c in contents for kind in (tuple, list, np.array)]
            + [other, FourVector(1.0, 0.0, 0.0, 0.5)])


def test_the_boundary_fuzz_sees_every_role():
    names = {name.split("-")[0] for name, *_ in TYPED_ARGUMENTS}
    assert {"AnisotropySpec", "BoostParams", "AbelianParams", "BoostParams.identity",
            "AbelianParams.from_tangent", "add_velocities", "lobachevsky_distance",
            "sample_surface", "bispinor_transform"} <= names
    assert len(TYPED_ARGUMENTS) >= 35


@pytest.mark.parametrize("name, call, params, index", TYPED_ARGUMENTS,
                         ids=[case[0] for case in TYPED_ARGUMENTS])
def test_a_direction_or_velocity_of_another_type_is_a_type_error(name, call, params, index):
    role = params[index].annotation
    base = [VALID[p.annotation if p.annotation in VALID else p.name]
            for p in params if p.default is inspect.Parameter.empty]
    bad = []
    for wrong in _wrong(role):
        args = base.copy()
        args[index] = wrong
        try:
            value = call(*args)
        except TypeError as exc:
            if f"must be a {role}, not {type(wrong).__name__}" not in str(exc):
                bad.append((type(wrong).__name__, str(exc)))
        except Exception as exc:  # noqa: BLE001 - another error is the finding
            bad.append((type(wrong).__name__, f"{type(exc).__name__}: {exc}"))
        else:
            bad.append((type(wrong).__name__, repr(value)[:80]))
    assert not bad, f"{len(bad)} not refused, first: {bad[:3]}"


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

