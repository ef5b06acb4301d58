"""Value types, the anisotropic interval, and small vector helpers.

Conventions: metric signature (+, -, -, -), x0 is time, c = 1.  Spatial
index lowering negates components.  4x4 matrices have the row index
contravariant and the column index covariant.

The package computes on plain Python floats and complex numbers.  numpy
is imported only at the ndarray edge of the API, by _ndarray, which every
function that returns an ndarray (`as_array`, `cross3`, `boost_matrix`,
...) calls.

A direction is a UnitVector3 and a velocity a Velocity3: every function that
takes one reads it with _unit3 or _vel3, which refuse any other type with
TypeError, a 3-sequence included.  Every sequence, ndarrays included, is
read by _seq: in the converters UnitVector3.normalized, Velocity3.from_array,
FourVector.from_array and the w of AbelianParams.from_tangent, in dot3, cross3
and norm3, which take any 3-vector, and for bispinors, matrices and a resolution.
"""
from __future__ import annotations

import cmath
import math
import sys
import types

__all__ = [
    "DomainError",
    "SpacelikeInput",
    "DegenerateRatio",
    "NonOrthogonal",
    "OffHorosphere",
    "ZeroVelocity",
    "NonTimelike",
    "NullDensity",
    "OutOfRange",
    "Tolerance",
    "DEFAULT_TOL",
    "FourVector",
    "UnitVector3",
    "Velocity3",
    "AnisotropySpec",
    "dot3",
    "cross3",
    "norm3",
    "minkowski_interval",
    "finsler_interval_sq",
    "matrix_to_json",
    "bispinor_to_json",
]

UNIT_NORM_TOL = 1e-12


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class SpacelikeInput(DomainError):
    """Spacelike displacement where the anisotropic interval is undefined."""


class DegenerateRatio(DomainError):
    """Vanishing interval base with a nonvanishing numerator."""


class NonOrthogonal(DomainError):
    """Boost direction not orthogonal to the preferred axis."""


class OffHorosphere(DomainError):
    """Velocity does not satisfy the horosphere condition."""


class ZeroVelocity(DomainError):
    """A vector whose direction cannot be recovered: the zero vector, or a
    velocity whose squared norm is zero or subnormal."""


class NonTimelike(DomainError):
    """Event with x0^2 <= |x|^2 where a timelike ratio is required."""


class NullDensity(DomainError):
    """Vanishing bispinor density where the invariant form is singular."""


class OutOfRange(DomainError):
    """Input outside the float range of an operation: a surface level out of
    its family's range, a velocity or rapidity at speed 1, or an overflow."""


class _Value:
    """Base of the immutable value types.  A subclass lists its fields in
    __slots__ and stores them once, in __init__, through _setters: the
    __set__ of each slot's own descriptor, in slot order, which bypasses the
    refusing __setattr__ without a name lookup; values are compared and
    hashed by _key, their fields in slot order unless the subclass says
    otherwise, and printed as Name(field=value, ...)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        """What == and hash read: the fields."""
        return self._values()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__: by default they would
        # restore the slots with setattr, which raises
        return type(self), self._values()


class Tolerance(_Value):
    """Numerical tolerances: read-only class constants, not settings.

    The light-cone band of finsler_interval_sq and the null-density band of
    finsler_bispinor_invariant are abs_tol times the input's squared size,
    so both functions stay homogeneous of degree 2 at every scale.  No
    function compares a speed or a rapidity with abs_tol.

    limit_switch is the near-zero band |(nu.n) alpha| < 1e-4 that the
    conformance checks and the benchmark sample separately.  No library
    function branches on it.
    """

    __slots__ = ()
    abs_tol = 1e-10
    limit_switch = 1e-4


DEFAULT_TOL = Tolerance()


def _numbers(name: str, **functions):
    """A number type of the kernels, which run on floats and on (N,) float64
    arrays: the functions whose code differs between the two, by name.  It
    is a module object because CPython 3.11 specializes a call xp.f(x) of a
    module's function, and not of a function held by an instance, which
    costs about 60 ns more per call."""
    numbers = types.ModuleType(name)
    numbers.__dict__.update(functions)
    return numbers


def _require_finite(*values: float) -> None:
    """OutOfRange naming the first of values that is not finite.  The
    constructors test math.isfinite inline and call this only on a failure,
    to build the message: a Python call per value built costs more than the
    test itself."""
    for v in values:
        if not math.isfinite(v):
            raise OutOfRange(f"not a finite number: {v}")


def _finite_result(call: str, inputs: tuple, *values) -> tuple:
    """values, the result of call(*inputs), if each (a float or a complex
    number) is finite; else OutOfRange naming the call and its inputs."""
    if not all(map(cmath.isfinite, values)):
        raise OutOfRange(f"{call}({', '.join(map(str, inputs))}) is not finite")
    return values


def _ndarray(values, dtype=float) -> np.ndarray:
    """values as an ndarray: the one place that imports numpy, on its
    first call."""
    import numpy as np

    return np.array(values, dtype=dtype)


class FourVector(_Value):
    """Contravariant event or displacement coordinates (x0, x1, x2, x3)."""

    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t: float, x: float, y: float, z: float):
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            _require_finite(t, x, y, z)
        set_t, set_x, set_y, set_z = FourVector._setters
        set_t(self, t)
        set_x(self, x)
        set_y(self, y)
        set_z(self, z)

    def as_array(self) -> np.ndarray:
        return _ndarray([self.t, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "FourVector":
        """From any 4-sequence of numbers, an ndarray included."""
        t, x, y, z = _seq(a, 4)
        return cls(float(t), float(x), float(y), float(z))

    def to_json(self) -> list:
        return [self.t, self.x, self.y, self.z]


class UnitVector3(_Value):
    """Unit 3-vector; validated to unit norm on construction."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            _require_finite(x, y, z)
        nsq = x * x + y * y + z * z
        if abs(nsq - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"not a unit vector: |v|^2 = {nsq}")
        set_x, set_y, set_z = UnitVector3._setters
        set_x(self, x)
        set_y(self, y)
        set_z(self, z)

    def as_array(self) -> np.ndarray:
        return _ndarray([self.x, self.y, self.z])

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)

    @classmethod
    def normalized(cls, v) -> "UnitVector3":
        """v / |v|, rescaled where v.v is out of range; ZeroVelocity for
        the zero vector."""
        x, y, z = _normalized(_t3(v))
        return cls(x, y, z)

    def to_json(self) -> list:
        return [self.x, self.y, self.z]


class Velocity3(_Value):
    """3-velocity of the primed frame; |v| < 1."""

    __slots__ = ("vx", "vy", "vz")

    def __init__(self, vx: float, vy: float, vz: float):
        if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz)):
            _require_finite(vx, vy, vz)
        if vx * vx + vy * vy + vz * vz >= 1.0:
            raise OutOfRange("speed must be below 1 (c = 1 units)")
        set_vx, set_vy, set_vz = Velocity3._setters
        set_vx(self, vx)
        set_vy(self, vy)
        set_vz(self, vz)

    def as_array(self) -> np.ndarray:
        return _ndarray([self.vx, self.vy, self.vz])

    def speed(self) -> float:
        return math.sqrt(self.vx * self.vx + self.vy * self.vy + self.vz * self.vz)

    @classmethod
    def from_array(cls, a) -> "Velocity3":
        return cls(*_t3(a))

    def to_json(self) -> list:
        return [self.vx, self.vy, self.vz]


class AnisotropySpec(_Value):
    """Preferred direction nu and dimensionless anisotropy parameter r.

    Any finite r is accepted; restricting to a physical range is left to
    callers.
    """

    __slots__ = ("nu", "r")

    def __init__(self, nu: UnitVector3, r: float):
        _unit3(nu)
        if not math.isfinite(r):
            _require_finite(r)
        set_nu, set_r = AnisotropySpec._setters
        set_nu(self, nu)
        set_r(self, r)

    def to_json(self) -> dict:
        return {"nu": self.nu.to_json(), "r": self.r}


# The closed forms have removable singularities only in expm1(x)/x and
# log1p(t)/t.  Neither quotient cancels for x != 0 (expm1 and log1p are
# accurate down to subnormal x), so only x = 0 needs the limit 1.

def _exprel(x: float) -> float:
    """expm1(x) / x, and its limit 1 at x = 0."""
    return math.expm1(x) / x if x != 0.0 else 1.0


def _sinhc(h: float) -> float:
    """sinh(h) / h as (exprel(h) + exprel(-h)) / 2, with no cancellation and
    even to the bit; OverflowError beyond |h| = 709.78.  Both exprel are
    written out, which saves two Python calls each time: compose makes three."""
    return 0.5 * (math.expm1(h) / h + math.expm1(-h) / -h) if h != 0.0 else 1.0


def _log1p_over(t: float) -> float:
    """log(1 + t) / t, and its limit 1 at t = 0."""
    return math.log1p(t) / t if t != 0.0 else 1.0


def _explain(ok, template: str, *values) -> str:
    """Message of a failed guard on floats: the template filled in."""
    return template.format(*values)


def _least_axis(v: tuple) -> tuple:
    """The unit vector e_k of the first axis k of least |v_k|."""
    pivot, least = (1.0, 0.0, 0.0), abs(v[0])
    if abs(v[1]) < least:
        pivot, least = (0.0, 1.0, 0.0), abs(v[1])
    if abs(v[2]) < least:
        pivot = (0.0, 0.0, 1.0)
    return pivot


def _max_abs(ok, v: tuple) -> float:
    """max |v_i|, the divisor of _rescaled (ok, False on floats, is not read)."""
    return max(map(abs, v))


def _refused(ok, value):
    """The value of a failed guard on floats (see _FLOAT)."""
    return value


def _where(ok, a, b):
    """a where ok, else b: numpy's where, on floats."""
    return a if ok else b


# The number type of the kernels, for floats.  A kernel takes its directions
# as 3-tuples, its events as 4-tuples and its scalars as they come, so the
# same code runs on (N,) float64 arrays, which checks does with its own
# _numbers.  What differs between the two types goes through this one:
# math's functions (which raise OverflowError on floats), pow, the value
# constructors, the pivot axis and the divisor of a rescale, `all` of a
# guard's truth values, `explain`, the message of a failed guard,
# `refused`, the value of its first failed entry, and `where`, which picks
# by a truth value: a float or each row of an array.  A guard reads
# `if ok is not True and not xp.all(ok)`: on floats ok is a bool, and the
# test ends at `is`, which costs less than a call.  The ok of "each of a, b,
# ... is finite" is `(a - a) + (b - b) + ... == 0.0`: x - x is 0.0 for a
# finite x and NaN for inf or NaN, on both types.
_FLOAT = _numbers(
    "floats", exprel=_exprel, sinhc=_sinhc, log1p_over=_log1p_over, exp=math.exp,
    cosh=math.cosh, sinh=math.sinh, asinh=math.asinh, sqrt=math.sqrt, pow=pow, complex=complex,
    velocity=Velocity3, event=FourVector, least_axis=_least_axis, max_abs=_max_abs, all=bool,
    explain=_explain, refused=_refused, where=_where,
)


# Kernels on 3-tuples of floats.  numpy would send these dots through BLAS,
# whose kernel is chosen per CPU and rounds differently from one to another.
# These kernels, and the scalar formulas of boost, subgroups, velocity_space
# and spinor built on them, are written out one component at a time, with no
# comprehension, generator expression, lambda key or *-unpacked list: on
# CPython 3.11 each of those runs in a frame of its own (a lambda key one per
# element), about 1 us a call, more than the arithmetic of a 3- or 4-component
# formula.  Each component keeps its operations and their order, so a rewrite
# keeps the bits.  The value types, built about 24 times per record of a
# fixed-axis stream, keep the same rule: each tests math.isfinite inline,
# calls _require_finite only to name a failure, and stores its fields through
# its slot setters (see _Value), not object.__setattr__, which looks each
# slot up by name behind the refusing __setattr__.
def _unit3(a) -> tuple:
    """(x, y, z) of a direction, which must be a UnitVector3.  The class is
    tested exactly: a FourVector has the fields x, y and z too."""
    if a.__class__ is UnitVector3:
        return a.x, a.y, a.z
    raise TypeError(f"a direction must be a UnitVector3, not {type(a).__name__}")


def _vel3(a) -> tuple:
    """(vx, vy, vz) of a velocity, which must be a Velocity3."""
    if a.__class__ is Velocity3:
        return a.vx, a.vy, a.vz
    raise TypeError(f"a velocity must be a Velocity3, not {type(a).__name__}")


def _seq(a, count: int):
    """a, a tuple or list, as it is, or an ndarray through tolist(), which unpacks faster;
    ValueError naming count where a has another length.  The class test spares a tuple or
    list hasattr(a, "tolist"), whose failure alone costs about a third of a 3-vector's read."""
    if a.__class__ is not tuple and a.__class__ is not list and hasattr(a, "tolist"):
        a = a.tolist()
    if hasattr(a, "__len__") and len(a) != count:  # a scalar or an iterator: the caller unpacks
        raise ValueError(f"expected {count} components, got {len(a)}")
    return a


def _t3(a) -> tuple:
    """(x, y, z) floats of a UnitVector3, a Velocity3 or any 3-sequence: the
    converter behind UnitVector3.normalized, Velocity3.from_array,
    AbelianParams.from_tangent's w, dot3, cross3 and norm3, and no other
    reader."""
    if isinstance(a, UnitVector3):
        return a.x, a.y, a.z
    if isinstance(a, Velocity3):
        return a.vx, a.vy, a.vz
    x, y, z = _seq(a, 3)
    return float(x), float(y), float(z)


def _dot(a: tuple, b: tuple) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _rescaled(v: tuple, xp=_FLOAT) -> tuple:
    """(s, v / s, |v / s|), so that |v| = s |v / s|: s is 1, or max|v_i|
    where v.v overflows, or underflows to 0 or a subnormal.  The zero
    vector gives |v / s| = 0.0 (on floats (0.0, v, 0.0)).  On arrays a row
    is rescaled by selection: xp.max_abs gives the other rows the divisor
    1.0, which keeps their bits."""
    nsq = _dot(v, v)
    ok = (sys.float_info.min <= nsq) & (nsq < math.inf)
    if ok is True:
        return 1.0, v, xp.sqrt(nsq)
    s = xp.max_abs(ok, v)
    zero = s == 0.0
    if zero is True:
        return 0.0, v, 0.0
    v = (v[0] / s, v[1] / s, v[2] / s)
    return s, v, xp.sqrt(_dot(v, v))


def _normalized(v: tuple, xp=_FLOAT) -> tuple:
    """The components of UnitVector3.normalized(v); ZeroVelocity for the zero vector."""
    _, (x, y, z), n = _rescaled(v, xp)
    ok = n != 0.0
    if ok is not True and not xp.all(ok):
        raise ZeroVelocity(xp.explain(ok, "cannot normalize the zero vector"))
    return x / n, y / n, z / n


def _cross(a: tuple, b: tuple) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _frame_scalars(v: tuple, nu: tuple, xp=_FLOAT) -> tuple:
    """(1 - v.nu, sqrt(1 - v^2), 1 - sqrt(1 - v^2)) of a velocity 3-tuple, the
    scalars of the frame moving at v; the lag 1 - sqrt(1 - v^2) is written
    v^2/(1 + sqrt(1 - v^2)), which does not cancel near rest.  OutOfRange
    where 1 - v.nu rounds to 0 or below, at the ball's edge along nu."""
    gap = 1.0 - _dot(v, nu)
    ok = gap > 0.0
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(
            ok, "velocity {} meets the ball's edge along nu: 1 - v.nu = {}", list(v), gap))
    vsq = _dot(v, v)
    root = xp.sqrt(1.0 - vsq)
    return gap, root, vsq / (1.0 + root)


def _horosphere(v: tuple, nu: tuple, xp=_FLOAT) -> float:
    """Horosphere level (1 - v.nu)/sqrt(1 - v^2) of a velocity 3-tuple."""
    gap, root, _ = _frame_scalars(v, nu, xp)
    return gap / root


def _r_power(r: float, base: float, exponent: float, scaled: float = 1.0, what=None,
             xp=_FLOAT) -> float:
    """Weight base ** exponent (the exponent grows with r) of the finite value scaled;
    underflow is 0.0.  Naming r: DegenerateRatio for 0 to a negative power, OutOfRange
    when the weight overflows or when weight * scaled does (what(), given with scaled,
    ends that message: it returns a template and the one value it is filled in with)."""
    try:
        weight = xp.pow(base, exponent)
    except (OverflowError, ZeroDivisionError):
        weight = math.inf
    ok = abs(weight) < math.inf  # an infinite exponent gives inf with no error
    if ok is not True and not xp.all(ok):
        if xp.refused(ok, base) == 0.0:
            raise DegenerateRatio(xp.explain(
                ok, "anisotropy r = {} diverges at a vanishing ratio", r))
        raise OutOfRange(xp.explain(ok, "anisotropy r = {} overflows its scale factor", r))
    ok = abs(weight * scaled) < math.inf
    if ok is not True and not xp.all(ok):
        template, value = what()
        raise OutOfRange(xp.explain(ok, "anisotropy r = {} " + template, r, value))
    return weight


def dot3(a, b) -> float:
    a, b = _t3(a), _t3(b)
    return _finite_result("dot3", (a, b), _dot(a, b))[0]


def cross3(a, b) -> np.ndarray:
    a, b = _t3(a), _t3(b)
    return _ndarray(_finite_result("cross3", (a, b), *_cross(a, b)))


def norm3(a) -> float:
    a = _t3(a)
    return _finite_result("norm3", (a,), math.sqrt(_dot(a, a)))[0]


def _interval(t, a, b, c, xp=_FLOAT) -> float:
    """minkowski_interval of the event (t, a, b, c)."""
    value = t * t - (a * a + b * b + c * c)
    ok = abs(value) < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "event {} overflows its squared size", [t, a, b, c]))
    return value


def _finsler_interval(nuv: tuple, r, t, a, b, c, xp=_FLOAT) -> float:
    """finsler_interval_sq of the event (t, a, b, c).  An event in the
    light-cone band takes the placeholder base and numerator 1.0, whose
    power is finite, and its interval is then replaced by 0.0."""
    base = _interval(t, a, b, c, xp)
    num = t - (nuv[0] * a + nuv[1] * b + nuv[2] * c)
    scale = t * t + (a * a + b * b + c * c)
    ok = scale < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "event {} overflows its squared size", [t, a, b, c]))
    thr = Tolerance.abs_tol * scale
    light = abs(base) <= thr
    if light is not False:
        ok = (abs(base) > thr) | (r >= 0) | (abs(num) <= xp.sqrt(thr))
        if ok is not True and not xp.all(ok):
            raise DegenerateRatio(xp.explain(
                ok, "lightlike displacement off the preferred ray diverges for r < 0"))
        base, num = xp.where(light, 1.0, base), xp.where(light, 1.0, num)
    ok = base >= 0
    if ok is not True:
        ok = ok | (r % 1.0 == 0.0)  # r is a whole number: round() does not take arrays
        if ok is not True and not xp.all(ok):
            raise SpacelikeInput(xp.explain(
                ok, "spacelike displacement: fractional power of a negative base"))
    nsq = num * num
    ok = nsq < math.inf
    if ok is not True and not xp.all(ok):
        raise OutOfRange(xp.explain(ok, "event {} overflows its squared size", [t, a, b, c]))
    value = _r_power(r, nsq / base, r, base,
                     lambda: ("overflows the interval of event {}", [t, a, b, c]), xp) * base
    if light is False:
        return value
    return xp.where(light, 0.0, value)


def minkowski_interval(dx: FourVector) -> float:
    """dt^2 - |dx|^2; negative for spacelike displacements.  OutOfRange
    when a square overflows."""
    return _interval(dx.t, dx.x, dx.y, dx.z)


def finsler_interval_sq(dx: FourVector, spec: AnisotropySpec) -> float:
    """Anisotropic interval ds^2 = [(dx0 - nu.dx)^2 / (dx0^2 - dx^2)]^r (dx0^2 - dx^2).

    Defined on the timelike region and its lightlike boundary.  On the
    boundary: 0 when dx0 = nu.dx as well (the ray along nu), otherwise 0
    for r >= 0 and DegenerateRatio for r < 0 (the ratio diverges; so does its
    power at dx0 = nu.dx off the boundary, where the ratio vanishes).
    OutOfRange when dx0^2 + dx^2, (dx0 - nu.dx)^2 or the result overflows.
    """
    return _finsler_interval(_unit3(spec.nu), spec.r, dx.t, dx.x, dx.y, dx.z)


def _m4x4(m) -> tuple:
    """The 16 entries, row by row, of a 4x4 matrix; ValueError for any other shape."""
    try:
        (p0, p1, p2, p3), (q0, q1, q2, q3), (s0, s1, s2, s3), (u0, u1, u2, u3) = _seq(m, 4)
    except (TypeError, ValueError):  # a row count or a row length other than 4
        raise ValueError("expected a 4x4 matrix") from None
    return p0, p1, p2, p3, q0, q1, q2, q3, s0, s1, s2, s3, u0, u1, u2, u3


def matrix_to_json(m) -> list:
    """Row-major list of 16 numbers of a 4x4 ndarray or of four rows of four."""
    return [float(v) for v in _m4x4(m)]


def _pairs(psi: tuple) -> list:
    """bispinor_to_json of psi = (u0, u1, l0, l1), complex numbers or
    complex arrays."""
    u0, u1, l0, l1 = psi
    return [[u0.real, u0.imag], [u1.real, u1.imag], [l0.real, l0.imag], [l1.real, l1.imag]]


def bispinor_to_json(psi) -> list:
    """Four [re, im] pairs of a length-4 ndarray or of four complex numbers."""
    u0, u1, l0, l1 = _seq(psi, 4)
    return _pairs((complex(u0), complex(u1), complex(l0), complex(l1)))
