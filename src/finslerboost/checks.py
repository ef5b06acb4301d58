"""Seeded randomized conformance suites.

Each suite draws from an isolated PCG64 generator,
numpy.random.default_rng([seed, suite index]).  It works in blocks of at
most BLOCK samples: it draws the block's inputs column by column, evaluates
the library once on the block, reduces each property's deviations at once,
on (N, 4, 4) stacks, and records their maximum (a NaN among them is kept).

The stream.  A block of N samples draws its columns in the order in which
its suite's reduce takes them, one generator call per column:
- a direction (nu, n): rng.standard_normal((N, 3)), each row divided by its
  norm np.sqrt(x*x + y*y + z*z); while some rows have norm <= 1e-8, those
  k rows are drawn again, in row order, by rng.standard_normal((k, 3));
- a uniform in [lo, hi): lo + (hi - lo) * rng.random(N), the bits of
  rng.uniform(lo, hi, N); a rapidity alpha is uniform in RAPIDITY
  = [-3, 3], the anisotropy exponent r in ANISOTROPY = [-0.9, 0.9];
- a velocity: the speeds, math.tanh of each of N uniforms in [0, 3], then a
  direction column, multiplied row by row;
- an event: the positions x, uniforms in [-1, 1] of shape (N, 3), then
  t = |x| + a uniform in [0.1, 2];
- near-band parameters (alpha, s, c): alpha uniform in [0.5, 3], then
  s = u / alpha for u uniform in [-limit_switch, limit_switch], and
  c = np.sqrt(1 - s*s);
- a bispinor: the real parts rng.standard_normal((N, 4)), then the
  imaginary parts.  In bispinor-invariant, while some rows have
  |psibar psi| <= 0.1, those k rows are drawn again, real parts
  rng.standard_normal((k, 4)) then imaginary parts.
The suites' columns, in order:
  oracle              nu, n, alpha, r
  closure             nu, n1, alpha1, n2, alpha2, n3, alpha3
  metric              nu, n, alpha, r, event
  roundtrip           nu; near-band parameters for the rows among the run's
                      first 100 samples; n, then alpha uniform in [1e-3, 3],
                      for the other rows
  velocity-addition   nu, n1, alpha1, n2, alpha2
  spinor              nu, n, alpha1, alpha2
  bispinor            nu, r, v, bispinor
  bispinor-invariant  nu, r, v, bispinor (rows of small density drawn again)
  subgroups           nu, r, theta1, theta2 uniform in [0, 2 pi),
                      alpha1, alpha2 uniform in [-2, 2], event
  velocity-space      nu, r, frame velocity, va, vb, beta uniform in [-2, 2],
                      axial speed math.tanh of a rapidity
  branch              nu, near-band parameters
A seed's inputs thus depend on BLOCK as well; a report does not depend on
how a block's draws are split for the reduction.  The draws are normalized
with plain float arithmetic, not a BLAS dot, so the same seed gives the
same inputs whichever OpenBLAS kernel the CPU selects; deviations measured
through the 4x4 and spinor matrix algebra may still differ in their last
digits.  A property that holds for every bispinor is measured on the
matrix: the density weight psibar' psi' = D^-3 psibar psi as
gamma^0 B^dagger gamma^0 B = D^-3 I, relative to D^-3, so no sampled
psibar psi, which can cancel far below |psi|^2, divides it.

The library is evaluated once per block: the batched entry points below run
the scalar kernels of core, boost, subgroups, spinor and velocity_space on
(N,) float64 arrays, through the number-type namespace _ARRAY, and give the
scalar functions' bits.  +, -, *, / and sqrt are exact IEEE operations on
both types; exp, expm1, log1p, cosh, sinh, tanh, asinh, cos, sin and pow
are math's and Python's, mapped over the entries, since numpy's own round
differently from libm and from one SIMD path to another.  A complex product is written on
the real and imaginary parts (see spinor._current), as Python multiplies
complex numbers, a float x taken as complex(x, 0.0); numpy's complex
multiply rounds differently.

The oracle and spinor suites compare closed forms with `expm`, which uses
nothing about the generators' spectrum; production transforms never route
through it.  Each suite calls it once per block, on the stack of the block's
generators, and looks it up as the module global `expm` at each call:
`perfbench/layers.py` replaces that global to count and time the calls, and
`test_exponential_paired_with_its_own_sample` to scramble their order.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import boost, core, spinor, subgroups, velocity_space
from .core import (
    DEFAULT_TOL,
    UNIT_NORM_TOL,
    OutOfRange,
    _cross,
    _dot,
    _numbers,
    bispinor_to_json,
)

__all__ = ["PropertyResult", "CheckReport", "SUITES", "run_suite", "run_all"]

# Samples whose results a suite holds before it reduces their deviations, so
# that its memory does not grow with the sample count.
BLOCK = 1000


def _json_number(x: float):
    """x, or None (JSON null) where x is inf or NaN: stdout is strict JSON."""
    return x if math.isfinite(x) else None


@dataclass
class PropertyResult:
    name: str
    tolerance: float
    max_deviation: float = 0.0

    def record(self, dev: float) -> None:
        # a NaN deviation fails the property and stays as its maximum
        if dev > self.max_deviation or math.isnan(dev):
            self.max_deviation = float(dev)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_json(self) -> dict:
        return {
            "property": self.name,
            "tolerance": _json_number(self.tolerance),
            "max_deviation": _json_number(self.max_deviation),
            "pass": self.passed,
        }


@dataclass
class CheckReport:
    suite: str
    seed: int
    samples: int
    properties: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    @property
    def max_deviation(self) -> float:
        devs = [p.max_deviation for p in self.properties]
        if any(math.isnan(d) for d in devs):
            return math.nan
        return max(devs, default=0.0)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "vacuous": self.samples == 0,
            "max_deviation": _json_number(self.max_deviation),
            "pass": self.passed,
            "properties": [p.to_json() for p in self.properties],
        }


def expm(a: np.ndarray) -> np.ndarray:
    """Exponential of a matrix or a stack (..., n, n): each matrix is scaled by
    2**-k to an infinity-norm <= 1/2, its degree-14 Taylor polynomial (error
    < 0.5**15 / 15! ~ 2e-17) is squared k times (Moler & Van Loan 2003)."""
    a = np.asarray(a)
    k = np.maximum(np.frexp(np.abs(a).sum(axis=-1).max(axis=-1))[1] + 1, 0)
    b = a / (2.0 ** k)[..., None, None]
    eye = np.eye(a.shape[-1], dtype=b.dtype)
    out = eye
    for j in range(14, 0, -1):
        out = eye + b @ out / j
    for i in range(int(k.max())):
        out = np.where((k > i)[..., None, None], out @ out, out)
    return out


def _blockwise(rng, samples: int, draw, reduce) -> None:
    """reduce(*draw(rng, N)) for each block of N <= BLOCK consecutive
    samples: draw returns the block's columns, floats as (N,) arrays,
    k-vectors and bispinors as (N, k) stacks, and reduce evaluates what is
    batched on the whole block and records the deviations.  A block's
    values are freed before the next block is drawn."""
    for start in range(0, samples, BLOCK):
        reduce(*draw(rng, min(BLOCK, samples - start)))


# The number type of the batched kernels: (N,) float64 arrays.  A kernel
# takes it as its xp argument (see core._FLOAT); a guard's ok is then a bool
# array.

def _entrywise(f):
    """f, a function of one float, mapped over the entries of an (N,) array;
    NaN where f raises OverflowError, which the kernels' guards then refuse."""
    def mapped(x):
        values = x.tolist()
        try:
            return np.fromiter(map(f, values), float, len(values))
        except OverflowError:
            return np.array([_or_nan(f, v) for v in values])

    return mapped


def _or_nan(f, v: float) -> float:
    try:
        return f(v)
    except OverflowError:
        return math.nan


def _power(base, exponent) -> np.ndarray:
    """pow mapped over the entries of an (N,) base and exponent (a float
    exponent is taken for every row); inf where pow raises OverflowError or
    ZeroDivisionError, as core._r_power sets it on floats."""
    b, e = (x.tolist() for x in np.broadcast_arrays(base, exponent))
    try:
        return np.fromiter(map(pow, b, e), float, len(b))
    except (OverflowError, ZeroDivisionError):
        return np.array([_pow_or_inf(x, y) for x, y in zip(b, e)])


def _pow_or_inf(x: float, y: float) -> float:
    try:
        return pow(x, y)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _complex(re, im) -> np.ndarray:
    """Complex entries with the bits of complex(re, im): re + 1j * im would
    not keep the sign of a zero real part."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), complex)
    out.real = re
    out.imag = im
    return out


def _at(value, i: int):
    """Row i of a batched value: an (N,) float or complex array, a list or
    tuple of them, or a float."""
    if isinstance(value, (list, tuple)):
        return type(value)(_at(v, i) for v in value)
    return value[i].item() if np.ndim(value) else float(value)


def _row_explain(ok, template: str, *values) -> str:
    """Message of a failed guard on batches: the first row where ok is False,
    and the template filled in with that row's values."""
    i = int(np.argmin(ok))
    return f"row {i}: " + template.format(*[_at(v, i) for v in values])


def _refused_row(ok, value):
    """value at the first row where ok is False."""
    return _at(value, int(np.argmin(ok)))


def _speed_below_one(x, y, z) -> tuple:
    """The components, where every row is a speed below 1, as Velocity3
    would take it; else ValueError."""
    if not (x * x + y * y + z * z < 1.0).all():
        raise ValueError("speed must be below 1 (c = 1 units)")
    return x, y, z


def _finite_event(t, x, y, z) -> tuple:
    """The components, where every row is finite, as FourVector would take
    them; else OutOfRange."""
    if not (np.isfinite(t) & np.isfinite(x) & np.isfinite(y) & np.isfinite(z)).all():
        raise OutOfRange("an event component is not finite")
    return t, x, y, z


def _least_axis_rows(v) -> tuple:
    """core._least_axis of each row: np.argmin takes the first of equal
    entries, as the float comparisons do."""
    k = np.argmin(np.abs(np.stack(v)), axis=0)
    return (k == 0).astype(float), (k == 1).astype(float), (k == 2).astype(float)


def _max_abs_rows(ok, v) -> np.ndarray:
    """The divisor of core._rescaled of each row: max|v_i| where ok is
    False, and 1.0 where it is True or the row is zero."""
    x, y, z = v
    s = np.maximum(np.maximum(abs(x), abs(y)), abs(z))
    return np.where(ok | (s == 0.0), 1.0, s)


_ARRAY = _numbers(
    "arrays", exprel=_entrywise(core._exprel), sinhc=_entrywise(core._sinhc),
    log1p_over=_entrywise(core._log1p_over), exp=_entrywise(math.exp),
    cosh=_entrywise(math.cosh), sinh=_entrywise(math.sinh), asinh=_entrywise(math.asinh),
    tanh=_entrywise(math.tanh), cos=_entrywise(math.cos),
    sin=_entrywise(math.sin), sqrt=np.sqrt, pow=_power, complex=_complex,
    velocity=_speed_below_one, event=_finite_event, least_axis=_least_axis_rows,
    max_abs=_max_abs_rows, where=np.where, all=lambda ok: ok.all(), explain=_row_explain,
    refused=_refused_row,
)


# Batched entry points.  A block's directions, velocities and events are
# 3- and 4-tuples of (N,) arrays, read from the draws' (N, 3) and (N, 4)
# stacks by _directions, _velocities and _events, and its boost parameters
# pairs (n, alpha) made by _param_rows.  Each entry point returns what the
# scalar function returns for every row, matrices as an (N, 4, 4) stack,
# vectors and events in the same tuple form and bispinor currents as an
# (N, 4) stack, and
# raises the scalar function's exception for the first row that it refuses,
# naming the row.  numpy's floating-point warnings are off inside them: the
# guards refuse what overflows, as on floats, where such an operation does
# not warn.

def _refuse(ok, error, template: str, *values) -> None:
    if not ok.all():
        raise error(_row_explain(ok, template, *values))


def _finite(a) -> None:
    """OutOfRange naming the first row of a with an entry that is not finite."""
    ok = np.isfinite(a)
    if not ok.all():
        i = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        bad = np.ravel(a[i])[~np.ravel(ok[i])][0]
        raise OutOfRange(f"row {i}: not a finite number: {float(bad)}")


def _directions(a) -> tuple:
    """An (N, 3) stack of directions as a 3-tuple of columns, each row read
    as UnitVector3 reads one."""
    _finite(a)
    x, y, z = a.T
    nsq = x * x + y * y + z * z
    _refuse(abs(nsq - 1.0) <= UNIT_NORM_TOL, ValueError, "not a unit vector: |v|^2 = {}", nsq)
    return x, y, z


def _units(v) -> tuple:
    """A 3-tuple of columns, each row read as UnitVector3 reads one."""
    return _directions(_vectors(v))


def _velocities(a) -> tuple:
    """An (N, 3) stack of velocities as a 3-tuple of columns, each row read
    as Velocity3 reads one."""
    _finite(a)
    x, y, z = a.T
    _refuse(x * x + y * y + z * z < 1.0, OutOfRange, "speed must be below 1 (c = 1 units)")
    return x, y, z


def _events(a) -> tuple:
    """An (N, 4) stack of events as a 4-tuple of columns, each row read as
    FourVector reads one."""
    _finite(a)
    return tuple(a.T)


def _bispinors(a) -> tuple:
    """An (N, 4) complex stack of bispinors as a 4-tuple of columns, each row
    read as spinor._c4 reads one."""
    ok = np.isfinite(a).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise OutOfRange(f"row {i}: bispinor {bispinor_to_json(a[i])} is not finite")
    return tuple(a.T)


@np.errstate(all="ignore")
def _param_rows(n, alpha) -> tuple:
    """BoostParams of each row of an (N, 3) stack of directions and an (N,)
    array of rapidities: a negative alpha goes into the direction.  The
    first row refused, by its direction or else by its rapidity, raises
    what BoostParams(UnitVector3(*n[i]), alpha[i]) raises."""
    x, y, z = n.T
    ok = (abs(x * x + y * y + z * z - 1.0) <= UNIT_NORM_TOL) & np.isfinite(alpha)
    if not ok.all():  # every row before the refused one i passes both readers
        i = int(np.argmin(ok)) + 1
        _directions(n[:i])
        _finite(alpha[:i])
    flip = alpha < 0
    return tuple(np.where(flip, -c, c) for c in (x, y, z)), np.where(flip, -alpha, alpha)


def _stack(rows, dtype=float) -> np.ndarray:
    """C-contiguous (N, 4, 4) stack of four rows of four entries, each an
    (N,) array or a float, as np.array of the rows' matrices gives it."""
    size = max(np.size(v) for v in rows[0] + rows[1])
    out = np.empty((4, 4, size), dtype)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = v
    return out.transpose(2, 0, 1).copy()


def _vectors(v) -> np.ndarray:
    """(N, 3) stack of a 3-tuple of columns."""
    return np.stack(v, axis=1)


@np.errstate(all="ignore")
def _boost_matrices(nu, g) -> np.ndarray:
    """boost.boost_matrix of each row."""
    n, alpha = g
    return _stack(boost._rows(nu, n, alpha, _ARRAY))


@np.errstate(all="ignore")
def _generalized_matrices(nu, r, g) -> np.ndarray:
    """boost.generalized_boost_matrix of each row, with anisotropy r."""
    n, alpha = g
    return _stack(boost._scaled_rows(nu, n, alpha, r, _ARRAY)[1])


def _generators(nu, n) -> np.ndarray:
    """boost.generator of each row."""
    return _stack(boost._generator_rows(nu, n))


@np.errstate(all="ignore")
def _generalized_generators(nu, r, n) -> np.ndarray:
    """boost.generalized_generator of each row, with anisotropy r."""
    return _stack(boost._generalized_generator_rows(nu, n, r, _ARRAY))


@np.errstate(all="ignore")
def _compose(nu, g1, g2) -> tuple:
    """boost.compose of each row: a composite whose squared norm is zero or
    subnormal is the identity (nu, 0)."""
    (n1, a1), (n2, a2) = g1, g2
    v0, v1, v2, asq = boost._compose_vector(nu, n1, a1, n2, a2, _ARRAY)
    identity = asq < sys.float_info.min
    alpha = np.sqrt(asq)
    n = _units(tuple(np.where(identity, m, v / alpha) for m, v in zip(nu, (v0, v1, v2))))
    return n, np.where(identity, 0.0, alpha)


@np.errstate(all="ignore")
def _velocities_from_params(nu, g) -> tuple:
    """boost.velocity_from_params of each row."""
    n, alpha = g
    return boost._frame_velocity(nu, n, alpha, _ARRAY)


@np.errstate(all="ignore")
def _added_velocities(nu, v1, v2) -> tuple:
    """boost.add_velocities of each row: v1, v2 and the result are each read
    as a Velocity3."""
    v1, v2 = _velocities(_vectors(v1)), _velocities(_vectors(v2))
    return _velocities(_vectors(boost._add_velocities(nu, v1, v2, _ARRAY)))


@np.errstate(all="ignore")
def _spinor_boosts(nu, g) -> np.ndarray:
    """spinor.spinor_boost of each row."""
    n, alpha = g
    a, p, q = spinor._spin_parts(nu, n, alpha, _ARRAY)
    return spinor._matrix(spinor._blocks(a, p, q, _ARRAY), _stack)


def _spinor_generators(nu, n) -> np.ndarray:
    """spinor.spinor_generator of each row."""
    return spinor._matrix(spinor._blocks(0.0, _cross(nu, n), n, _ARRAY), _stack)


@np.errstate(all="ignore")
def _normalized_rows(v) -> tuple:
    """UnitVector3.normalized of each row of a 3-tuple of columns."""
    return _units(core._normalized(v, _ARRAY))


@np.errstate(all="ignore")
def _perpendiculars(nu) -> tuple:
    """subgroups.perpendicular_to of each row."""
    return _units(subgroups._perpendicular(nu, _ARRAY))


@np.errstate(all="ignore")
def _params_from_velocities(nu, v) -> tuple:
    """boost.params_from_velocity of each row, as a pair (n, alpha)."""
    n, alpha = boost._velocity_params(nu, v, _ARRAY)
    return _param_rows(_vectors(n), alpha)


@np.errstate(all="ignore")
def _dilation_factors(nu, r, v) -> np.ndarray:
    """boost.dilation_factor of each row, with anisotropy r."""
    return core._r_power(r, core._horosphere(v, nu, _ARRAY), r, xp=_ARRAY)


@np.errstate(all="ignore")
def _bispinor_matrices(nu, r, v) -> np.ndarray:
    """spinor.bispinor_matrix of each row, with anisotropy r."""
    return spinor._matrix(spinor._bispinor_blocks(nu, v, r, _ARRAY), _stack)


@np.errstate(all="ignore")
def _currents(psi) -> np.ndarray:
    """spinor.bilinear_current of each row of an (N, 4) stack of bispinors."""
    return _vectors(spinor._current(_bispinors(psi), _ARRAY))


@np.errstate(all="ignore")
def _bispinor_transforms(nu, r, v, psi) -> np.ndarray:
    """spinor.bispinor_transform of each row of an (N, 4) stack of
    bispinors, with anisotropy r, as an (N, 4) stack."""
    return _vectors(spinor._transform(nu, v, r, _bispinors(psi), _ARRAY))


@np.errstate(all="ignore")
def _bispinor_invariants(nu, r, psi) -> np.ndarray:
    """spinor.finsler_bispinor_invariant of each row of an (N, 4) stack of
    bispinors, with anisotropy r."""
    return spinor._invariant(nu, r, _bispinors(psi), _ARRAY)


@np.errstate(all="ignore")
def _intervals(x) -> np.ndarray:
    """minkowski_interval of each row."""
    t, a, b, c = x
    return core._interval(t, a, b, c, _ARRAY)


@np.errstate(all="ignore")
def _finsler_intervals(nu, r, x) -> np.ndarray:
    """core.finsler_interval_sq of each row, with anisotropy r."""
    t, a, b, c = x
    return core._finsler_interval(nu, r, t, a, b, c, _ARRAY)


@np.errstate(all="ignore")
def _matrix_images(m, x) -> tuple:
    """boost.apply_matrix of each row of an (N, 4, 4) stack of matrices."""
    return boost._image(tuple(m.reshape(len(m), 16).T), x, _ARRAY)


@np.errstate(all="ignore")
def _abelian_velocities(nu, n, alpha) -> tuple:
    """subgroups.abelian_velocity of each row, for AbelianParams (n, alpha)."""
    return subgroups._abelian_frame(nu, n, alpha, _ARRAY)


@np.errstate(all="ignore")
def _abelian_transforms(nu, n, alpha, x) -> tuple:
    """subgroups.abelian_transform of each row, for AbelianParams (n, alpha)."""
    return subgroups._transverse(nu, n, alpha, x, _ARRAY)


@np.errstate(all="ignore")
def _abelian_transforms_v(nu, v, x) -> tuple:
    """subgroups.abelian_transform_v of each row."""
    return subgroups._transverse_v(nu, v, x, _ARRAY)


@np.errstate(all="ignore")
def _axial_transforms(nu, r, alpha, x) -> tuple:
    """subgroups.axial_transform of each row, with anisotropy r."""
    return subgroups._axial(nu, r, alpha, x, _ARRAY)


@np.errstate(all="ignore")
def _axial_invariants(nu, x) -> tuple:
    """The fields of subgroups.axial_invariants of each row."""
    return subgroups._axial_scalars(nu, x, _ARRAY)


@np.errstate(all="ignore")
def _boost_scales(nu, r, g) -> np.ndarray:
    """The scale D of boost.generalized_boost_matrix of each row, with
    anisotropy r."""
    n, alpha = g
    return boost._scaled_rows(nu, n, alpha, r, _ARRAY)[0]


@np.errstate(all="ignore")
def _distances(v1, v2) -> np.ndarray:
    """velocity_space.lobachevsky_distance of each row."""
    return velocity_space._distance(v1, v2, _ARRAY)


@np.errstate(all="ignore")
def _horosphere_levels(nu, v) -> np.ndarray:
    """velocity_space.horosphere_level of each row."""
    return core._horosphere(v, nu, _ARRAY)


@np.errstate(all="ignore")
def _cylinder_levels(nu, v) -> np.ndarray:
    """velocity_space.cylinder_level of each row."""
    return velocity_space._cylinder(v, nu)


@np.errstate(all="ignore")
def _induced_motions(nu, u, x) -> tuple:
    """velocity_space.induced_motion of each row, in the frame moving at u:
    the result is read as a Velocity3."""
    w, g = boost._inverse_frame(nu, u, _ARRAY)
    return _velocities(_vectors(boost._act(nu, u, w, x, g, _ARRAY)))


def _band_directions(nu, s, c) -> tuple:
    """The direction c p + s nu of each row, with p = perpendicular_to(nu),
    normalized: n of a near-band draw (see _draw_band)."""
    p = _perpendiculars(nu)
    return _normalized_rows(tuple(c * pk + s * mk for pk, mk in zip(p, nu)))


def _record(prop: PropertyResult, devs) -> None:
    """Record the largest of a block's deviations, if it has any.  np.max
    keeps a NaN wherever it is; builtin max and np.nanmax would drop it."""
    if devs.size:
        prop.record(float(np.max(devs)))


def _record_vs_expm(props, closed, generators) -> None:
    """Record each stack of closed forms' deviation from expm of its stack of
    generators, with one `expm` call for all of a block's stacks."""
    exps = np.split(expm(np.concatenate(generators)), len(generators))
    for prop, mats, exact in zip(props, closed, exps):
        _record(prop, np.abs(mats - exact))


def _reldiff(a, b):
    """|a - b| / max(|a|, |b|, 1e-300), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def _sample_max(a):
    """Largest |entry| of each sample's vector or matrix in a stack."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)))


# The ranges of the uniform draws shared by several suites: a rapidity, and
# the anisotropy exponent r.
RAPIDITY = (-3.0, 3.0)
ANISOTROPY = (-0.9, 0.9)


def _uniform(rng, lo: float, hi: float, shape) -> np.ndarray:
    """rng.uniform(lo, hi, shape), bit for bit: numpy computes
    lo + (hi - lo) * rng.random() too."""
    return lo + (hi - lo) * rng.random(shape)


def _draw_directions(rng, count: int) -> np.ndarray:
    """(count, 3) directions uniform on the sphere, each row as the floats of
    UnitVector3.normalized: a norm above 1e-8 needs none of its rescaling.
    A row of smaller norm is drawn again, until none is left."""
    a = rng.standard_normal((count, 3))
    while True:
        x, y, z = a.T
        norm = np.sqrt(x * x + y * y + z * z)
        short = norm <= 1e-8
        if not short.any():
            return a / norm[:, None]
        a[short] = rng.standard_normal((int(short.sum()), 3))


def _draw_velocities(rng, count: int) -> np.ndarray:
    """(count, 3) velocities: the speeds, tanh of a rapidity uniform in
    [0, 3], then the directions."""
    speed = _ARRAY.tanh(_uniform(rng, 0.0, 3.0, count))
    return speed[:, None] * _draw_directions(rng, count)


def _draw_events(rng, count: int) -> np.ndarray:
    """(count, 4) timelike events: the positions x uniform in [-1, 1]^3, then
    t - |x| uniform in [0.1, 2]."""
    x = _uniform(rng, -1.0, 1.0, (count, 3))
    a, b, c = x.T
    t = np.sqrt(a * a + b * b + c * c) + _uniform(rng, 0.1, 2.0, count)
    return np.column_stack((t, x))


def _draw_band(rng, count: int) -> tuple:
    """(alpha, s, c) columns of parameters with alpha in [0.5, 3] and the
    axis part (nu.n) alpha uniform in the near-zero band
    |(nu.n) alpha| < limit_switch, drawn in that order: s = nu.n,
    c = sqrt(1 - s^2), and the direction n = c p + s nu is built per block
    by _band_directions."""
    band = DEFAULT_TOL.limit_switch
    alpha = _uniform(rng, 0.5, 3.0, count)
    s = _uniform(rng, -band, band, count) / alpha
    return alpha, s, np.sqrt(1.0 - s * s)


def _draw_dense_bispinors(rng, count: int) -> np.ndarray:
    """(count, 4) complex bispinors re + 1j im, the real parts then the
    imaginary parts standard normal, with |psibar psi| > 0.1: a row with a
    smaller density is drawn again, until none is left."""
    psi = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    while True:
        thin = abs(spinor._density(tuple(psi.T))) <= 0.1
        if not thin.any():
            return psi
        k = int(thin.sum())
        psi[thin] = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))


def _axis_parts(nu: tuple, g: tuple) -> np.ndarray:
    """(nu.n) alpha of each row of a block."""
    n, alpha = g
    return _dot(nu, n) * alpha


def suite_oracle(rng, samples):
    p_lam = PropertyResult("boost-vs-exponential", 1e-10)
    p_gen = PropertyResult("generalized-boost-vs-exponential", 1e-10)

    def draw(rng, count):
        return (_draw_directions(rng, count), _draw_directions(rng, count),
                _uniform(rng, *RAPIDITY, count), _uniform(rng, *ANISOTROPY, count))

    def reduce(nu, n, alpha, r):
        nu = _directions(nu)
        g = n, alpha = _param_rows(n, alpha)
        a = alpha[:, None, None]
        _record_vs_expm(
            (p_lam, p_gen),
            (_boost_matrices(nu, g), _generalized_matrices(nu, r, g)),
            (a * _generators(nu, n), a * _generalized_generators(nu, r, n)))

    _blockwise(rng, samples, draw, reduce)
    return [p_lam, p_gen]


def suite_closure(rng, samples):
    p_close = PropertyResult("composition-matches-matrix-product", 1e-10)
    p_add = PropertyResult("axis-rapidity-additivity", 1e-12)
    p_assoc = PropertyResult("associativity", 1e-10)

    def draw(rng, count):
        return (_draw_directions(rng, count),
                _draw_directions(rng, count), _uniform(rng, *RAPIDITY, count),
                _draw_directions(rng, count), _uniform(rng, *RAPIDITY, count),
                _draw_directions(rng, count), _uniform(rng, *RAPIDITY, count))

    def reduce(nu, n1, a1, n2, a2, n3, a3):
        nu = _directions(nu)
        g1, g2, g3 = _param_rows(n1, a1), _param_rows(n2, a2), _param_rows(n3, a3)
        g12 = _compose(nu, g1, g2)
        left = _compose(nu, g12, g3)
        right = _compose(nu, g1, _compose(nu, g2, g3))
        l1, l2 = _boost_matrices(nu, g1), _boost_matrices(nu, g2)
        _record(p_close, np.abs(_boost_matrices(nu, g12) - l2 @ l1))
        _record(p_add, np.abs(_axis_parts(nu, g12) - (_axis_parts(nu, g1) + _axis_parts(nu, g2))))
        _record(p_assoc, np.abs(_boost_matrices(nu, left) - _boost_matrices(nu, right)))

    _blockwise(rng, samples, draw, reduce)
    return [p_close, p_add, p_assoc]


def suite_metric(rng, samples):
    p_fin = PropertyResult("anisotropic-interval-invariance", 1e-10)
    p_mink = PropertyResult("minkowski-invariance-at-r0", 1e-10)
    p_det = PropertyResult("determinant-scaling", 1e-10)

    def draw(rng, count):
        return (_draw_directions(rng, count), _draw_directions(rng, count),
                _uniform(rng, *RAPIDITY, count), _uniform(rng, *ANISOTROPY, count),
                _draw_events(rng, count))

    def reduce(nu, n, alpha, r, x_rows):
        nu, x = _directions(nu), _events(x_rows)
        g = _param_rows(n, alpha)
        dl = _generalized_matrices(nu, r, g)
        fin1, fin0 = _finsler_intervals(nu, r, _matrix_images(dl, x)), _finsler_intervals(nu, r, x)
        mink1 = _intervals(_matrix_images(_boost_matrices(nu, g), x))
        det = _ARRAY.exp(-4.0 * r * _dot(nu, g[0]) * g[1])
        _record(p_fin, _reldiff(fin1, fin0))
        _record(p_mink, _reldiff(mink1, _intervals(x)))
        _record(p_det, _reldiff(np.linalg.det(dl), det))

    _blockwise(rng, samples, draw, reduce)
    return [p_fin, p_mink, p_det]


def suite_roundtrip(rng, samples):
    p_n = PropertyResult("direction-roundtrip", 1e-9)
    p_a = PropertyResult("rapidity-roundtrip", 1e-9)
    degenerate = min(100, samples)

    def draw(rng, count):
        # the first `degenerate` samples are near-band rows, whose n is built
        # per block from s and c; the others draw n and alpha
        nonlocal degenerate
        k = min(degenerate, count)
        degenerate -= k
        nu = _draw_directions(rng, count)
        band_alpha, s, c = _draw_band(rng, k)
        n, alpha = _draw_directions(rng, count - k), _uniform(rng, 1e-3, 3.0, count - k)
        return (nu, np.concatenate((np.zeros((k, 3)), n)), np.concatenate((band_alpha, alpha)),
                np.concatenate((s, np.zeros(count - k))), np.concatenate((c, np.ones(count - k))),
                np.arange(count) < k)

    def reduce(nu, n, alpha, s, c, band):
        nu = _directions(nu)
        n = np.where(band[:, None], _vectors(_band_directions(nu, s, c)), n)
        g = _param_rows(n, alpha)
        back_n, back_alpha = _params_from_velocities(nu, _velocities_from_params(nu, g))
        _record(p_n, np.abs(_vectors(back_n) - _vectors(g[0])))
        _record(p_a, np.abs(back_alpha - g[1]))

    _blockwise(rng, samples, draw, reduce)
    return [p_n, p_a]


def suite_velocity_addition(rng, samples):
    p_match = PropertyResult("addition-matches-composition", 1e-10)
    p_nu = PropertyResult("preferred-direction-fixed-point", 1e-12)

    def draw(rng, count):
        return (_draw_directions(rng, count),
                _draw_directions(rng, count), _uniform(rng, *RAPIDITY, count),
                _draw_directions(rng, count), _uniform(rng, *RAPIDITY, count))

    def reduce(nu_rows, n1, a1, n2, a2):
        nu = _directions(nu_rows)
        g1, g2 = _param_rows(n1, a1), _param_rows(n2, a2)
        v1 = _velocities_from_params(nu, g1)
        direct = _added_velocities(nu, v1, _velocities_from_params(nu, g2))
        via = _velocities_from_params(nu, _compose(nu, g1, g2))
        _record(p_match, np.abs(_vectors(direct) - _vectors(via)))
        # the boundary point v2 = nu is not a Velocity3
        with np.errstate(all="ignore"):
            fixed = boost._add_velocities(nu, v1, nu, _ARRAY)
        _record(p_nu, np.abs(_vectors(fixed) - nu_rows))

    _blockwise(rng, samples, draw, reduce)
    return [p_match, p_nu]


def suite_spinor(rng, samples):
    p_pow = PropertyResult("generator-power-identities", 1e-12)
    p_int = PropertyResult("intertwining", 1e-10)
    p_exp = PropertyResult("closed-form-vs-exponential", 1e-10)
    p_rep = PropertyResult("one-parameter-representation", 1e-10)
    p_det = PropertyResult("unimodularity", 1e-10)
    eye = np.eye(4, dtype=complex)
    gammas = np.array(spinor.gamma_basis().gamma)

    def draw(rng, count):
        return (_draw_directions(rng, count), _draw_directions(rng, count),
                _uniform(rng, *RAPIDITY, count), _uniform(rng, *RAPIDITY, count))

    def reduce(nu, n_rows, alpha, a2):
        nu = _directions(nu)
        n = _directions(n_rows)
        s = _dot(nu, n)
        k = _spinor_generators(nu, n)
        g = _param_rows(n_rows, alpha)
        smat = _spinor_boosts(nu, g)
        sinv = _spinor_boosts(nu, _param_rows(n_rows, -alpha))
        lam = _boost_matrices(nu, g)
        s2 = _spinor_boosts(nu, _param_rows(n_rows, a2))
        both = _spinor_boosts(nu, _param_rows(n_rows, alpha + a2))
        ss = (s * s)[:, None, None]
        kk = k @ k
        _record(p_pow, np.abs(kk - ss * eye))
        _record(p_pow, np.abs(kk @ k - ss * k))
        # S^-1 gamma^i S against Lambda^i_m gamma^m, for all i at once: (N, 4, 4, 4)
        rhs = sum(lam[:, :, m, None, None] * gammas[m] for m in range(4))
        _record(p_int, np.abs(sinv[:, None] @ gammas @ smat[:, None] - rhs))
        _record_vs_expm((p_exp,), (smat,), ((0.5 * alpha)[:, None, None] * k,))
        _record(p_rep, np.abs(smat @ s2 - both))
        det = np.linalg.det(smat)
        _record(p_det, np.hypot(det.real - 1.0, det.imag))

    _blockwise(rng, samples, draw, reduce)
    return [p_pow, p_int, p_exp, p_rep, p_det]


def _bispinor_deviations(nu, r, v, psi) -> tuple:
    """Each row's deviations of the bispinor suite's closed form from the
    parameter path, of its density weight and of its current weight, for
    (N, 3) stacks nu and v, an (N,) array r and an (N, 4) stack psi.  A row
    whose bispinor matrix is not finite has a NaN current weight."""
    nu, v = _directions(nu), _velocities(v)
    direct = _bispinor_matrices(nu, r, v)
    g = _params_from_velocities(nu, v)
    d = _dilation_factors(nu, r, v)
    # D^{-3/2} S through the parametrization maps
    via = _ARRAY.pow(d, -1.5)[:, None, None] * _spinor_boosts(nu, g)
    d3 = _ARRAY.pow(d, -3.0)
    two = _sample_max(direct - via) / np.maximum(_sample_max(direct), 1e-300)
    # psibar' psi' = D^-3 psibar psi for every psi exactly when
    # gamma^0 B^dagger gamma^0 B = D^-3 I, with psi' = B psi; gamma^0 X^dagger
    # gamma^0 is X^dagger with its off-diagonal 2x2 blocks negated
    g0 = spinor.gamma_basis().gamma[0].diagonal().real
    adjoint = np.conj(direct.transpose(0, 2, 1)) * np.outer(g0, g0)
    rho = _sample_max(adjoint @ direct - d3[:, None, None] * np.eye(4)) / d3
    psi_p = (direct @ psi[:, :, None])[:, :, 0]
    finite = np.isfinite(psi_p).all(axis=1)
    current = np.full((len(psi), 4), math.nan)
    current[finite] = _currents(psi_p[finite])
    expect = d3[:, None] * (_boost_matrices(nu, g) @ _currents(psi)[:, :, None])[:, :, 0]
    cur = _sample_max(current - expect) / np.maximum(_sample_max(expect), 1.0)
    return two, rho, cur


def suite_bispinor(rng, samples):
    props = [PropertyResult("closed-form-vs-parameter-path", 1e-9),
             PropertyResult("density-weight", 1e-10), PropertyResult("current-weight", 1e-10)]

    def draw(rng, count):
        return (_draw_directions(rng, count), _uniform(rng, *ANISOTROPY, count),
                _draw_velocities(rng, count), rng.standard_normal((count, 4)),
                rng.standard_normal((count, 4)))

    def reduce(nu, r, v, re, im):
        for prop, devs in zip(props, _bispinor_deviations(nu, r, v, re + 1j * im)):
            _record(prop, devs)

    _blockwise(rng, samples, draw, reduce)
    return props


def suite_bispinor_invariant(rng, samples):
    p_inv = PropertyResult("invariant-form", 1e-9)

    def draw(rng, count):
        return (_draw_directions(rng, count), _uniform(rng, *ANISOTROPY, count),
                _draw_velocities(rng, count), _draw_dense_bispinors(rng, count))

    def reduce(nu, r, v, psi):
        nu, v = _directions(nu), _velocities(v)
        after = _bispinor_invariants(nu, r, _bispinor_transforms(nu, r, v, psi))
        _record(p_inv, _reldiff(after, _bispinor_invariants(nu, r, psi)))

    _blockwise(rng, samples, draw, reduce)
    return [p_inv]


def _in_plane(th, e1, e2) -> tuple:
    """The direction cos(th) e1 + sin(th) e2 of each row, normalized."""
    c, s = _ARRAY.cos(th), _ARRAY.sin(th)
    return _normalized_rows((c * e1[0] + s * e2[0], c * e1[1] + s * e2[1], c * e1[2] + s * e2[2]))


def suite_subgroups(rng, samples):
    p_ab_inv = PropertyResult("abelian-invariants", 1e-10)
    p_comm = PropertyResult("abelian-commutativity", 1e-10)
    p_match = PropertyResult("abelian-vs-orthogonal-boost", 1e-10)
    p_scale = PropertyResult("axial-scaling-laws", 1e-10)
    p_ratio = PropertyResult("axial-ratio-invariant", 1e-9)
    p_flow = PropertyResult("axial-flow-additivity", 1e-10)

    def draw(rng, count):
        return (_draw_directions(rng, count), _uniform(rng, *ANISOTROPY, count),
                _uniform(rng, 0.0, 2.0 * math.pi, count), _uniform(rng, 0.0, 2.0 * math.pi, count),
                _uniform(rng, -2.0, 2.0, count), _uniform(rng, -2.0, 2.0, count),
                _draw_events(rng, count))

    def reduce(nu, r, th1, th2, a1, a2, x_rows):
        nu, x = _directions(nu), _events(x_rows)
        e1 = _perpendiculars(nu)  # velocity_space._plane_basis
        e2 = _normalized_rows(_cross(nu, e1))
        n1, n2 = _in_plane(th1, e1, e2), _in_plane(th2, e1, e2)

        xp = _abelian_transforms_v(nu, _abelian_velocities(nu, n1, a1), x)
        abelian = _abelian_transforms(nu, n1, a1, x)
        one = _abelian_transforms(nu, n2, a2, abelian)
        other = _abelian_transforms(nu, n1, a1, _abelian_transforms(nu, n2, a2, x))
        lam = _generalized_matrices(nu, r, _param_rows(_vectors(n1), a1))

        xa = _axial_transforms(nu, r, a1, x)
        proj0, interval0, ratio0 = _axial_invariants(nu, x)
        proj1, interval1, ratio1 = _axial_invariants(nu, xa)
        chained = _axial_transforms(nu, r, a2, xa)
        joint = _axial_transforms(nu, r, a1 + a2, x)

        _record(p_ab_inv, _reldiff(_intervals(xp), _intervals(x)))
        _record(p_ab_inv, _reldiff(xp[0] - _dot(nu, xp[1:]), x[0] - _dot(nu, x[1:])))
        _record(p_comm, np.abs(_vectors(one) - _vectors(other)))
        _record(p_match, np.abs(_vectors(abelian) - _vectors(_matrix_images(lam, x))))
        _record(p_scale, _reldiff(proj1, _ARRAY.exp((1.0 - r) * a1) * proj0))
        _record(p_scale, _reldiff(interval1, _ARRAY.exp(-2.0 * r * a1) * interval0))
        kept = ratio0 > 1e-6
        _record(p_ratio, _reldiff(ratio1[kept], ratio0[kept]))
        _record(p_flow, np.abs(_vectors(chained) - _vectors(joint)))

    _blockwise(rng, samples, draw, reduce)
    return [p_ab_inv, p_comm, p_match, p_scale, p_ratio, p_flow]


def suite_velocity_space(rng, samples):
    p_iso = PropertyResult("distance-isometry", 1e-9)
    p_horo = PropertyResult("horosphere-invariance", 1e-9)
    p_cyl = PropertyResult("cylinder-invariance", 1e-9)
    p_dil = PropertyResult("dilation-equals-level-power", 1e-12)

    def draw(rng, count):
        return (_draw_directions(rng, count), _uniform(rng, *ANISOTROPY, count),
                _draw_velocities(rng, count), _draw_velocities(rng, count),
                _draw_velocities(rng, count), _uniform(rng, -2.0, 2.0, count),
                _ARRAY.tanh(_uniform(rng, *RAPIDITY, count)))

    def reduce(nu, r, frame_v, va, vb, beta, speed):
        nu = _directions(nu)
        frame_v, va, vb = _velocities(frame_v), _velocities(va), _velocities(vb)
        ia, ib = _induced_motions(nu, frame_v, va), _induced_motions(nu, frame_v, vb)
        horo_frame = _abelian_velocities(nu, _perpendiculars(nu), beta)
        axial_frame = _velocities(_vectors((speed * nu[0], speed * nu[1], speed * nu[2])))
        d0, d1 = _distances(va, vb), _distances(ia, ib)
        horo1 = _horosphere_levels(nu, _induced_motions(nu, horo_frame, va))
        c0, c1 = _cylinder_levels(nu, va), _cylinder_levels(nu, _induced_motions(nu, axial_frame, va))
        # the velocity-side D = h(v)^r against the parameter side e^{-r (nu.n) alpha}
        dil_params = _boost_scales(nu, r, _params_from_velocities(nu, va))
        apart = d0 > 1e-6
        _record(p_iso, _reldiff(d0[apart], d1[apart]))
        _record(p_horo, _reldiff(horo1, _horosphere_levels(nu, va)))
        off_axis = c0 > 1e-6
        _record(p_cyl, _reldiff(c0[off_axis], c1[off_axis]))
        _record(p_dil, np.abs(_dilation_factors(nu, r, va) - dil_params))

    _blockwise(rng, samples, draw, reduce)
    return [p_iso, p_horo, p_cyl, p_dil]


def _taylor_coefficients(a, alpha) -> tuple:
    """Coefficients of the generators' degree-4 Taylor evaluation near
    a = (nu.n) alpha = 0, on (N,) arrays: Lambda = I + c1 G + c2 G^2
    (G^3 = (nu.n)^2 G), with c1 = alpha sinhc(a) and
    c2 = alpha^2 (cosh a - 1)/a^2, and S = c3 I + c4 K, with c3 = cosh(a/2)
    and c4 = (alpha/2) sinhc(a/2).  The truncation error is below a^6 / 5040,
    so 2e-28 in the band |a| <= 1e-4.  The powers are Python's pow."""
    h = 0.5 * a
    a4, h4 = _ARRAY.pow(a, 4.0), _ARRAY.pow(h, 4.0)
    sinhc = 1.0 + a * a / 6.0 + a4 / 120.0
    coshm1 = 0.5 + a * a / 24.0 + a4 / 720.0
    return (alpha * sinhc, _ARRAY.pow(alpha, 2.0) * coshm1,
            1.0 + h * h / 2.0 + h4 / 24.0, 0.5 * alpha * (1.0 + h * h / 6.0 + h4 / 120.0))


def suite_branch(rng, samples):
    """The closed forms in the near-zero band, where expm1(x)/x and
    log1p(t)/t are nearly 0/0, against an independent Taylor evaluation."""
    p_lam = PropertyResult("boost-branch-continuity", 1e-9)
    p_vel = PropertyResult("velocity-branch-continuity", 1e-9)
    p_spin = PropertyResult("spinor-branch-continuity", 1e-9)
    eye = np.eye(4)

    def draw(rng, count):
        return (_draw_directions(rng, count), *_draw_band(rng, count))

    def reduce(nu, alpha, s, c):
        nu = _directions(nu)
        g = n, alpha = _param_rows(_vectors(_band_directions(nu, s, c)), alpha)
        c1, c2, c3, c4 = (k[:, None, None] for k in _taylor_coefficients(_axis_parts(nu, g), alpha))
        gen = _generators(nu, n)
        taylor = eye + c1 * gen + c2 * (gen @ gen)
        _record(p_lam, np.abs(_boost_matrices(nu, g) - taylor))
        vel = _vectors(_velocities_from_params(nu, g))
        _record(p_vel, np.abs(vel - -taylor[:, 0, 1:] / taylor[:, 0, :1]))
        _record(p_spin, np.abs(_spinor_boosts(nu, g) - (c3 * eye + c4 * _spinor_generators(nu, n))))

    _blockwise(rng, samples, draw, reduce)
    return [p_lam, p_vel, p_spin]


SUITES = {
    "oracle": suite_oracle,
    "closure": suite_closure,
    "metric": suite_metric,
    "roundtrip": suite_roundtrip,
    "velocity-addition": suite_velocity_addition,
    "spinor": suite_spinor,
    "bispinor": suite_bispinor,
    "bispinor-invariant": suite_bispinor_invariant,
    "subgroups": suite_subgroups,
    "velocity-space": suite_velocity_space,
    "branch": suite_branch,
}


def _suite_index(name: str) -> int:
    """Position of a suite in SUITES; ValueError naming it and the valid ones."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; valid suites: {', '.join(SUITES)}")
    return list(SUITES).index(name)


def run_suite(name: str, seed: int = 0, samples: int = 1000) -> CheckReport:
    """Run one named suite with a generator derived from (seed, suite index).

    ``samples`` and ``seed`` must be non-negative; zero samples give a
    vacuous report.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng([seed, _suite_index(name)])
    if samples == 0:
        props = [PropertyResult(f"{name} (vacuous)", math.inf)]
    else:
        props = SUITES[name](rng, samples)
    return CheckReport(suite=name, seed=seed, samples=samples, properties=props)


def run_all(names=None, seed: int = 0, samples: int = 1000):
    names = list(SUITES) if names is None else list(names)
    return [run_suite(n, seed, samples) for n in names]
