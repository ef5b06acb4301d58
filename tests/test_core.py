import ast
import copy
import inspect
import math
import pickle
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import finslerboost
from finslerboost import (
    AbelianParams,
    AnisotropySpec,
    DegenerateRatio,
    FourVector,
    OutOfRange,
    SpacelikeInput,
    Tolerance,
    UnitVector3,
    Velocity3,
    ZeroVelocity,
    cross3,
    dot3,
    finsler_interval_sq,
    minkowski_interval,
    norm3,
)
from finslerboost import boost, checks, cli, core, spinor, subgroups, velocity_space
from finslerboost.core import bispinor_to_json, matrix_to_json
from support import NU_Z, rand_unit


def test_minkowski_interval_examples():
    assert minkowski_interval(FourVector(1, 0, 0, 0)) == 1.0
    assert minkowski_interval(FourVector(1, 1, 0, 0)) == 0.0
    assert minkowski_interval(FourVector(2, 1, 1, 1)) == 1.0


def test_vector_helpers():
    assert dot3((1, 0, 0), (0, 1, 0)) == 0.0
    assert np.allclose(cross3((0, 0, 1), (1, 0, 0)), (0, 1, 0))
    assert norm3((3, 4, 0)) == 5.0


def test_finsler_pure_time_step():
    for r in (-0.7, 0.0, 0.3, 2.0):
        spec = AnisotropySpec(UnitVector3.normalized((1, 2, 2)), r)
        assert finsler_interval_sq(FourVector(1, 0, 0, 0), spec) == pytest.approx(1.0)


def test_finsler_lightlike_along_axis():
    spec = AnisotropySpec(NU_Z, 0.2)
    assert finsler_interval_sq(FourVector(1, 0, 0, 1), spec) == 0.0


def test_finsler_hand_value():
    # dx=(2,1,0,0), nu=z, r=0.5: [(2-0)^2/3]^0.5 * 3 = 2*sqrt(3)
    spec = AnisotropySpec(NU_Z, 0.5)
    got = finsler_interval_sq(FourVector(2, 1, 0, 0), spec)
    assert got == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)


def test_finsler_spacelike_rejected_for_fractional_r():
    spec = AnisotropySpec(NU_Z, 0.5)
    with pytest.raises(SpacelikeInput):
        finsler_interval_sq(FourVector(1, 2, 0, 0), spec)


def test_finsler_spacelike_integer_r():
    spec = AnisotropySpec(NU_Z, 2.0)
    x = FourVector(1, 2, 0, 0)
    base = minkowski_interval(x)
    expect = ((x.t - 0.0) ** 2 / base) ** 2 * base
    assert finsler_interval_sq(x, spec) == pytest.approx(expect, rel=1e-12)


def test_finsler_lightlike_off_axis():
    x = FourVector(1, 1, 0, 0)  # lightlike, but t != nu.x for nu = z
    assert finsler_interval_sq(x, AnisotropySpec(NU_Z, 0.3)) == 0.0
    assert finsler_interval_sq(x, AnisotropySpec(NU_Z, 0.0)) == 0.0
    with pytest.raises(DegenerateRatio):
        finsler_interval_sq(x, AnisotropySpec(NU_Z, -0.3))


def test_finsler_reduces_to_minkowski_at_r0():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        x = rng.uniform(-1, 1, size=3)
        t = float(np.linalg.norm(x)) + rng.uniform(0.05, 2.0)
        dx = FourVector(t, *x)
        spec = AnisotropySpec(rand_unit(rng), 0.0)
        assert abs(finsler_interval_sq(dx, spec) - minkowski_interval(dx)) < 1e-12 * max(
            1.0, abs(minkowski_interval(dx))
        )


def test_finsler_positive_homogeneity():
    rng = np.random.default_rng(7)
    spec = AnisotropySpec(UnitVector3.normalized((1, -1, 3)), 0.4)
    for _ in range(500):
        x = rng.uniform(-1, 1, size=3)
        t = float(np.linalg.norm(x)) + rng.uniform(0.05, 2.0)
        lam = rng.uniform(0.1, 10.0)
        dx = FourVector(t, *x)
        scaled = FourVector(lam * t, *(lam * x))
        assert finsler_interval_sq(scaled, spec) == pytest.approx(
            lam * lam * finsler_interval_sq(dx, spec), rel=1e-10
        )


SCALES = (1.0, 1e-3, 1e-7, 1e-30, 1e-100)


@pytest.mark.parametrize("lam", SCALES)
def test_finsler_degree_two_down_to_tiny_scales(lam):
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.uniform(-1, 1, size=3)
        t = float(np.linalg.norm(x)) + rng.uniform(0.05, 2.0)
        spec = AnisotropySpec(rand_unit(rng), float(rng.uniform(-0.9, 0.9)))
        scaled = FourVector(lam * t, *(lam * x))
        assert finsler_interval_sq(scaled, spec) == pytest.approx(
            lam * lam * finsler_interval_sq(FourVector(t, *x), spec), rel=1e-12, abs=0
        )
    # nearly lightlike and small: base 9.9e-13 is not rounded to the cone
    spec = AnisotropySpec(NU_Z, 0.3)
    x = FourVector(lam * 1e-6, lam * 1e-7, 0.0, 0.0)
    base = minkowski_interval(x)
    assert finsler_interval_sq(x, spec) == pytest.approx(
        (x.t * x.t / base) ** 0.3 * base, rel=1e-14, abs=0
    )


@pytest.mark.parametrize("lam", SCALES)
def test_finsler_light_cone_at_every_scale(lam):
    for r in (-0.3, 0.0, 0.3):
        spec = AnisotropySpec(NU_Z, r)
        assert finsler_interval_sq(FourVector(0.0, 0.0, 0.0, 0.0), spec) == 0.0
        assert finsler_interval_sq(FourVector(lam, 0.0, 0.0, lam), spec) == 0.0
    off_ray = FourVector(lam, lam, 0.0, 0.0)
    assert finsler_interval_sq(off_ray, AnisotropySpec(NU_Z, 0.3)) == 0.0
    with pytest.raises(DegenerateRatio):
        finsler_interval_sq(off_ray, AnisotropySpec(NU_Z, -0.3))


def _rotation(rng) -> np.ndarray:
    """Uniform random rotation: QR of a normal 3x3 matrix, with the column
    signs fixed by diag(R) and the overall sign by det = +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def test_finsler_joint_rotation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(300):
        rot = _rotation(rng)
        nu = rand_unit(rng)
        x = rng.uniform(-1, 1, size=3)
        t = float(np.linalg.norm(x)) + rng.uniform(0.05, 2.0)
        spec = AnisotropySpec(nu, rng.uniform(-0.9, 0.9))
        spec_rot = AnisotropySpec(UnitVector3.normalized(rot @ nu.as_array()), spec.r)
        before = finsler_interval_sq(FourVector(t, *x), spec)
        after = finsler_interval_sq(FourVector(t, *(rot @ x)), spec_rot)
        assert after == pytest.approx(before, rel=1e-9)


def test_type_validation():
    for bad in ({"abs_tol": 1.0}, {"abs_tol": math.nan}):
        with pytest.raises(TypeError):
            Tolerance(**bad)
    # limit_switch is a class constant, not a field
    with pytest.raises(TypeError):
        Tolerance(limit_switch=math.inf)
    with pytest.raises(ValueError):
        UnitVector3(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Velocity3(0.8, 0.8, 0.0)
    with pytest.raises(ValueError):
        FourVector(float("nan"), 0, 0, 0)
    with pytest.raises(ValueError):
        UnitVector3.normalized((0, 0, 0))
    with pytest.raises(ZeroVelocity, match="cannot normalize the zero vector"):
        UnitVector3.normalized(np.zeros(3))


def test_json_round_trips():
    """The JSON writers lose nothing: the constructors read their output back."""
    x = FourVector(1.5, -2.0, 0.25, 3.0)
    assert FourVector(*x.to_json()) == x
    nu = UnitVector3.normalized((1, 2, 2))
    assert UnitVector3(*nu.to_json()) == nu
    v = Velocity3(0.1, -0.2, 0.3)
    assert Velocity3(*v.to_json()) == v
    spec = AnisotropySpec(nu, -0.4)
    obj = spec.to_json()
    assert AnisotropySpec(UnitVector3(*obj["nu"]), obj["r"]) == spec
    m = np.arange(16, dtype=float).reshape(4, 4)
    assert np.array_equal(np.array(matrix_to_json(m)).reshape(4, 4), m)
    psi = np.array([1 + 2j, -3j, 0.5, -1.0])
    assert np.array_equal([complex(*p) for p in bispinor_to_json(psi)], psi)


def _gamma_basis_copy():
    """A GammaBasis of copies of the matrices of spinor.gamma_basis()."""
    basis = spinor.gamma_basis()
    return spinor.GammaBasis(tuple(map(np.copy, basis.gamma)), tuple(map(np.copy, basis.sigma)))


# Each value type: a builder of one value, its fields, and its pinned repr.
VALUES = (
    (lambda: FourVector(2.0, 0.3, -0.1, 0.4), ("t", "x", "y", "z"),
     "FourVector(t=2.0, x=0.3, y=-0.1, z=0.4)"),
    (lambda: UnitVector3(0.0, 0.6, 0.8), ("x", "y", "z"), "UnitVector3(x=0.0, y=0.6, z=0.8)"),
    (lambda: Velocity3(0.3, -0.2, 0.5), ("vx", "vy", "vz"),
     "Velocity3(vx=0.3, vy=-0.2, vz=0.5)"),
    (lambda: AnisotropySpec(UnitVector3(0.0, 0.0, 1.0), -0.4), ("nu", "r"),
     "AnisotropySpec(nu=UnitVector3(x=0.0, y=0.0, z=1.0), r=-0.4)"),
    (Tolerance, (), "Tolerance()"),
    (lambda: boost.BoostParams(UnitVector3(0.0, 0.6, 0.8), -0.5), ("n", "alpha"),
     "BoostParams(n=UnitVector3(x=-0.0, y=-0.6, z=-0.8), alpha=0.5)"),
    # the fields of the BoostParams above: the types alone tell them apart
    (lambda: subgroups.AbelianParams(UnitVector3(-0.0, -0.6, -0.8), 0.5), ("n", "alpha"),
     "AbelianParams(n=UnitVector3(x=-0.0, y=-0.6, z=-0.8), alpha=0.5)"),
    (_gamma_basis_copy, ("gamma", "sigma"),
     f"GammaBasis(gamma={spinor.gamma_basis().gamma!r}, sigma={spinor.gamma_basis().sigma!r})"),
    (lambda: subgroups.AxialParams(-1.25), ("alpha",), "AxialParams(alpha=-1.25)"),
    (lambda: subgroups.AxialInvariants(1.5, 2.0, 0.25),
     ("nu_projection", "interval_sq", "cylinder_ratio"),
     "AxialInvariants(nu_projection=1.5, interval_sq=2.0, cylinder_ratio=0.25)"),
    (lambda: velocity_space.SurfaceSample("cylinder", 0.8, (Velocity3(0.1, 0.0, 0.0),)),
     ("family", "level", "points"),
     "SurfaceSample(family='cylinder', level=0.8, points=(Velocity3(vx=0.1, vy=0.0, vz=0.0),))"),
)


def _positional(value) -> tuple:
    """The fields of value, read by a positional class pattern."""
    match value:
        case FourVector(t, x, y, z):
            return t, x, y, z
        case UnitVector3(x, y, z) | Velocity3(x, y, z):
            return x, y, z
        case AnisotropySpec(nu, r):
            return nu, r
        case Tolerance():
            return ()
        case boost.BoostParams(n, alpha) | subgroups.AbelianParams(n, alpha):
            return n, alpha
        case spinor.GammaBasis(gamma, sigma):
            return gamma, sigma
        case subgroups.AxialParams(alpha):
            return (alpha,)
        case subgroups.AxialInvariants(p, q, c) | velocity_space.SurfaceSample(p, q, c):
            return p, q, c


@pytest.mark.parametrize("k", range(len(VALUES)), ids=[r.split("(")[0] for _, _, r in VALUES])
def test_value_type_contract(k):
    """Every value type is compared and hashed by its fields, printed as
    Name(field=value, ...), immutable, picklable, built by keyword and
    matched by position."""
    build, fields, text = VALUES[k]
    value, twin = build(), build()
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    other = VALUES[(k + 1) % len(VALUES)][0]()
    assert value != other and value.__eq__(other) is NotImplemented
    assert repr(value) == text
    name = fields[0] if fields else "abs_tol"
    with pytest.raises(AttributeError):
        setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert repr(value) == text
    values = tuple(getattr(value, f) for f in fields)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value
    assert type(value)(**dict(zip(fields, values))) == value
    assert type(value).__match_args__ == fields
    assert _positional(value) == values


def test_gamma_basis_is_compared_and_hashed_by_its_entries():
    """The ndarrays of gamma_basis() compare elementwise and do not hash;
    the value reads their entries."""
    basis, twin = spinor.gamma_basis(), _gamma_basis_copy()
    assert basis == twin and hash(basis) == hash(twin)
    gamma = list(twin.gamma)
    gamma[2] = -gamma[2]
    assert basis != spinor.GammaBasis(tuple(gamma), twin.sigma)
    assert basis != spinor.GammaBasis(twin.sigma, twin.gamma)


def test_surface_sample_points_default_to_empty():
    assert velocity_space.SurfaceSample("horosphere", 1.0) == velocity_space.SurfaceSample(
        family="horosphere", level=1.0, points=())


# Each finite-checked value type: a builder from its checked fields, and
# valid values of those fields.
FINITE_CHECKED = {
    "FourVector": (FourVector, (2.0, 0.3, -0.1, 0.4)),
    "UnitVector3": (UnitVector3, (0.0, 0.6, 0.8)),
    "Velocity3": (Velocity3, (0.3, -0.2, 0.5)),
    "AnisotropySpec.r": (lambda r: AnisotropySpec(NU_Z, r), (-0.4,)),
    "BoostParams.alpha": (lambda a: boost.BoostParams(NU_Z, a), (-0.5,)),
    "AbelianParams.alpha": (lambda a: subgroups.AbelianParams(UnitVector3(1.0, 0.0, 0.0), a),
                            (0.5,)),
    "AxialParams.alpha": (subgroups.AxialParams, (-1.25,)),
}
NON_FINITE = (math.nan, math.inf, -math.inf)


def _refuses(build, fields, first):
    """build(*fields) raises OutOfRange naming first, before any other check."""
    with pytest.raises(OutOfRange) as caught:
        build(*fields)
    assert type(caught.value) is OutOfRange
    assert str(caught.value) == f"not a finite number: {first}"


@pytest.mark.parametrize("name", FINITE_CHECKED)
def test_non_finite_fields_are_out_of_range_naming_the_first(name):
    """nan, inf and -inf in each checked field, one at a time and two at
    once: OutOfRange names the first non-finite value, also where a later
    check (unit norm, speed, sign) would see it first."""
    build, valid = FINITE_CHECKED[name]
    assert build(*valid) == build(*valid)
    for i in range(len(valid)):
        for bad in NON_FINITE:
            _refuses(build, valid[:i] + (bad,) + valid[i + 1:], bad)
            for j in range(i + 1, len(valid)):
                for later in NON_FINITE:
                    fields = list(valid)
                    fields[i], fields[j] = bad, later
                    _refuses(build, tuple(fields), bad)


def test_finite_fields_whose_sum_overflows_are_accepted():
    big = FourVector(1e308, 1e308, 1e308, 1e308)
    assert big.to_json() == [1e308] * 4
    assert FourVector(-1e308, 1e308, -1e308, 1e308).to_json() == [-1e308, 1e308, -1e308, 1e308]


def _same_floats(a, b):
    return [x.hex() for x in a] == [x.hex() for x in b]


def test_float_inputs_list_tuple_ndarray_agree():
    raw = [0.3, -1.7, 2.9]
    forms = (raw, tuple(raw), np.array(raw))
    units = [UnitVector3.normalized(f).to_json() for f in forms]
    assert all(_same_floats(u, units[0]) for u in units)
    vel = [0.1, -0.25, 0.6]
    vs = [Velocity3.from_array(f).to_json() for f in (vel, tuple(vel), np.array(vel))]
    assert all(_same_floats(v, vs[0]) for v in vs)
    ev = [1.5, -0.2, 0.7, 0.3]
    xs = [FourVector.from_array(f).to_json() for f in (ev, tuple(ev), np.array(ev))]
    assert all(_same_floats(x, xs[0]) for x in xs)
    assert all(type(c) is float for c in xs[0] + vs[0] + units[0])


@pytest.mark.parametrize("form", [
    UnitVector3(0.0, 0.6, 0.8),
    Velocity3(0.1, -0.2, 0.3),
    np.array([1, 2.5, 3]),
    (1, 2.5, np.float64(3.0)),
    [1, 2.5, np.float64(3.0)],
], ids=["UnitVector3", "Velocity3", "ndarray", "tuple", "list"])
def test_t3_returns_three_python_floats(form):
    got = core._t3(form)
    assert type(got) is tuple and len(got) == 3
    assert all(type(c) is float for c in got)
    want = form.to_json() if hasattr(form, "to_json") else [1.0, 2.5, 3.0]
    assert list(got) == want


def test_json_helpers_take_rows_and_complex_lists():
    m = np.linspace(-1.0, 1.0, 16).reshape(4, 4) / 3.0
    assert matrix_to_json(m) == matrix_to_json(m.tolist())
    assert _same_floats(matrix_to_json(m), m.reshape(16).tolist())
    with pytest.raises(ValueError):
        matrix_to_json([[1.0, 2.0]] * 3)
    psi = np.array([1 + 2j, -3j, 0.5, -1.0]) / 7.0
    assert bispinor_to_json(psi) == bispinor_to_json(psi.tolist())
    assert bispinor_to_json(tuple(psi.tolist())) == bispinor_to_json(psi)


# Every public entry that takes a sequence: (call on the sequence, the
# number of entries it needs, one valid entry).
SEQUENCE_ENTRIES = {
    "UnitVector3.normalized": (UnitVector3.normalized, 3, 0.5),
    "Velocity3.from_array": (Velocity3.from_array, 3, 0.1),
    "FourVector.from_array": (FourVector.from_array, 4, 0.5),
    "AbelianParams.from_tangent": (lambda w: AbelianParams.from_tangent(NU_Z, w), 3, 0.0),
    "dot3-a": (lambda a: dot3(a, (1.0, 0.0, 0.0)), 3, 0.5),
    "dot3-b": (lambda b: dot3((1.0, 0.0, 0.0), b), 3, 0.5),
    "cross3-a": (lambda a: cross3(a, (1.0, 0.0, 0.0)), 3, 0.5),
    "cross3-b": (lambda b: cross3((1.0, 0.0, 0.0), b), 3, 0.5),
    "norm3": (norm3, 3, 0.5),
    "bispinor_to_json": (bispinor_to_json, 4, 0.5j),
    "bispinor_transform": (
        lambda psi: spinor.bispinor_transform(AnisotropySpec(NU_Z, 0.3), Velocity3(0.1, 0.0, 0.2),
                                              psi), 4, 0.5j),
    "dirac_adjoint": (spinor.dirac_adjoint, 4, 0.5j),
    "bilinear_current": (spinor.bilinear_current, 4, 0.5j),
    "finsler_bispinor_invariant": (
        lambda psi: spinor.finsler_bispinor_invariant(AnisotropySpec(NU_Z, 0.3), psi), 4, 0.5j),
    "sample_surface-resolution": (
        lambda res: velocity_space.sample_surface(NU_Z, "cylinder", 0.5, res), 2, 2),
}
MATRIX_ENTRIES = {
    "matrix_to_json": matrix_to_json,
    "apply_matrix": lambda m: boost.apply_matrix(m, FourVector(1.0, 0.5, -0.25, 0.125)),
}
MATRIX_SHAPES = {
    "3x4": [[1.0] * 4] * 3, "5x4": [[1.0] * 4] * 5, "4x3": [[1.0] * 3] * 4,
    "4x5": [[1.0] * 5] * 4, "2x8": [[1.0] * 8] * 2, "16x1": [[1.0]] * 16,
    "16": [1.0] * 16,
}


def _forms(rows, ndarray=True):
    """rows as a list, a tuple (of tuples) and, unless ragged, an ndarray."""
    as_tuple = tuple(tuple(r) if isinstance(r, list) else r for r in rows)
    return [("list", rows), ("tuple", as_tuple)] + ([("ndarray", np.array(rows))] if ndarray else [])


@pytest.mark.parametrize("call, want, values", [
    pytest.param(call, f"^expected {count} components, got {count + d}$", form,
                 id=f"{name}-{kind}-{count + d}")
    for name, (call, count, entry) in SEQUENCE_ENTRIES.items()
    for d in (-1, 1)
    for kind, form in _forms([entry] * (count + d))
] + [
    pytest.param(call, "^expected a 4x4 matrix$", form, id=f"{name}-{shape}-{kind}")
    for name, call in MATRIX_ENTRIES.items()
    for shape, rows in MATRIX_SHAPES.items()
    for kind, form in _forms(rows)
] + [
    pytest.param(call, "^expected a 4x4 matrix$", form, id=f"{name}-ragged-{kind}")
    for name, call in MATRIX_ENTRIES.items()
    for kind, form in _forms([[1.0] * 5, [1.0] * 3, [1.0] * 4, [1.0] * 4], ndarray=False)
])
def test_a_sequence_of_the_wrong_length_is_named(call, want, values):
    """Every public entry that takes a sequence, given a list, a tuple or an
    ndarray one entry too short or too long, or a matrix of any shape but
    4x4, raises ValueError naming the count it expected."""
    with pytest.raises(ValueError, match=want):
        call(values)


def _sites(module, hit) -> list:
    """Dotted name of the scope of each node of module for which hit is true."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                sites.append(scope)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(inspect.getsource(module)), module.__name__.rsplit(".", 1)[1])
    return sites


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "numpy" for name in names)


def test_numpy_is_imported_only_at_the_ndarray_edge():
    """The library computes on floats: numpy is imported by core._ndarray,
    which builds every returned ndarray, spinor.gamma_basis's constants
    included.  Nowhere else."""
    modules = (core, boost, spinor, subgroups, velocity_space)
    sites = [site for m in modules for site in _sites(m, _imports_numpy)]
    assert sites == ["core._ndarray"]


def _calls_t3(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "_t3"
            or isinstance(func, ast.Attribute) and func.attr == "_t3")


def test_only_the_converters_read_a_sequence():
    """A direction or a velocity is read by core._unit3 or core._vel3, which
    refuse any other type.  core._t3, which reads any 3-sequence, is called
    only by the converters and by dot3, cross3 and norm3, which take any
    3-vector."""
    modules = (core, boost, spinor, subgroups, velocity_space, checks)
    sites = {site for m in modules for site in _sites(m, _calls_t3)}
    assert sites == {
        "core.UnitVector3.normalized",
        "core.Velocity3.from_array",
        "subgroups.AbelianParams.from_tangent",
        "core.dot3",
        "core.cross3",
        "core.norm3",
    }


def _tests_for_tolist(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "hasattr" and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "tolist")


def test_only_seq_tests_for_an_ndarray():
    """Every sequence the package is given is read by core._seq: no other
    function asks whether its input has tolist, but the GammaBasis key."""
    modules = (core, boost, spinor, subgroups, velocity_space, checks, cli)
    sites = [site for m in modules for site in _sites(m, _tests_for_tolist)]
    assert sites == ["core._seq", "spinor._entries"]


# The scalar kernels, written out one component at a time (see the comment
# on the kernels in core): on CPython 3.11 each comprehension or generator
# expression runs in a frame of its own, about 1 us a call, and a lambda key
# one per element.
STRAIGHT_LINE_KERNELS = (
    "core._frame_scalars",
    "core._horosphere",
    "core._least_axis",
    "core._rescaled",
    "core._normalized",
    "core._r_power",
    "core._interval",
    "core.minkowski_interval",
    "core._finsler_interval",
    "core.finsler_interval_sq",
    "core._pairs",
    "subgroups._perpendicular",
    "subgroups.perpendicular_to",
    "boost._coefficients",
    "boost._rows",
    "boost._generator_rows",
    "boost._generalized_generator_rows",
    "boost._scaled_rows",
    "boost._compose_vector",
    "boost._frame_velocity",
    "boost.generator",
    "boost._generalized_rows",
    "boost.compose",
    "boost.velocity_from_params",
    "boost._velocity_params",
    "boost.params_from_velocity",
    "boost._inverse_frame",
    "boost._act",
    "boost._image",
    "boost.apply_matrix",
    "velocity_space._distance",
    "velocity_space.lobachevsky_distance",
    "velocity_space._cylinder",
    "velocity_space.cylinder_level",
    "subgroups.AbelianParams.from_tangent",
    "subgroups._check_orthogonal",
    "subgroups._abelian",
    "subgroups._transverse",
    "subgroups._tangent",
    "subgroups._transverse_v",
    "subgroups._abelian_frame",
    "subgroups._axial",
    "subgroups._axial_scalars",
    "subgroups.abelian_transform",
    "subgroups.abelian_transform_v",
    "subgroups.abelian_velocity",
    "subgroups.axial_transform",
    "subgroups.axial_invariants",
    "spinor._blocks",
    "spinor._spin_parts",
    "spinor.spinor_boost",
    "spinor._bispinor_blocks",
    "spinor.bispinor_matrix",
    "spinor._sum4",
    "spinor._apply",
    "spinor._transform",
    "spinor.bispinor_transform",
    "spinor._norm_sq",
    "spinor._current",
    "spinor.bilinear_current",
    "spinor._invariant",
    "spinor.finsler_bispinor_invariant",
)


def _frame_sites(func) -> list:
    """Line and kind of each comprehension, generator expression, lambda key
    and starred call argument in func's source."""
    sites = []
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            sites.append((node.lineno, type(node).__name__))
        elif isinstance(node, ast.Call):
            sites += [(a.lineno, "Starred") for a in node.args if isinstance(a, ast.Starred)]
            sites += [(k.value.lineno, "LambdaKey") for k in node.keywords
                      if k.arg == "key" and isinstance(k.value, ast.Lambda)]
    return sites


@pytest.mark.parametrize("name", STRAIGHT_LINE_KERNELS)
def test_scalar_kernels_are_straight_line(name):
    func = finslerboost
    for part in name.split("."):
        func = getattr(func, part)
    assert _frame_sites(func) == []


@pytest.mark.parametrize("r", [-1.0, -2.0])
def test_interval_vanishing_ratio_at_negative_r_is_degenerate(r):
    """dx0 = nu.dx off the light cone: the ratio is 0, and its power r < 0
    diverges (a bare ZeroDivisionError before)."""
    with pytest.raises(DegenerateRatio, match=f"anisotropy r = {r} diverges"):
        finsler_interval_sq(FourVector(1.0, 5.0, 0.0, 1.0), AnisotropySpec(NU_Z, r))


@pytest.mark.parametrize("call, name", [
    (lambda: dot3([1e200, 0, 0], [1e200, 0, 0]), "dot3"),
    (lambda: cross3([1e200, 0, 0], [0, 1e200, 0]), "cross3"),
    (lambda: norm3([1e200, 0, 0]), "norm3"),
])
def test_vector_helpers_refuse_a_result_that_overflows(call, name):
    with pytest.raises(OutOfRange, match=re.escape(f"{name}((1e+200, 0.0, 0.0)")):
        call()


@pytest.mark.parametrize("v, want", [
    ([1e200, 0.0, 0.0], (1.0, 0.0, 0.0)),
    ([0.0, -3e-320, 0.0], (0.0, -1.0, 0.0)),
    ([1e-170, 1e-170, 0.0], (0.7071067811865475, 0.7071067811865475, 0.0)),
])
def test_normalized_rescales_squares_out_of_range(v, want):
    """A square that overflows or underflows is taken of v / max|v_i|."""
    assert UnitVector3.normalized(v) == UnitVector3(*want)


def test_readme_library_example_runs():
    """README's library example runs, and its interval is kept by its matrix."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    m, x, spec = names["m"], names["x"], names["spec"]
    image = boost.apply_matrix(m, x)
    assert math.isclose(finsler_interval_sq(image, spec), names["s2"], rel_tol=1e-12)
