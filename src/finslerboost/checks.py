"""Seeded randomized conformance suites.

Each suite draws from an isolated PCG64 generator derived from the master
seed.  Draws are normalized with plain float arithmetic, not a BLAS dot,
so the same seed gives the same inputs whichever OpenBLAS kernel the CPU
selects; deviations measured through the 4x4 and spinor matrix algebra may
still differ in their last digits.  Sampling: directions
uniform on the sphere, rapidity uniform in [-3, 3], anisotropy parameter
uniform in [-0.9, 0.9], speeds with uniform rapidity in [0, 3].  The draws
go through `_uniform` and `rng.standard_normal`, which give the bits of
`rng.uniform` and `rng.normal` at a fraction of their cost.

A suite works in blocks of at most BLOCK samples: it keeps each sample's
draws, evaluates the library on the block, reduces each property's
deviations at once, on (N, 4, 4) stacks, and records their maximum (a NaN
among them is kept).  The oracle, closure, velocity-addition, spinor and
branch suites evaluate the boost layer once per block: the batched entry
points below run the scalar kernels of boost and spinor on (N,) float64
arrays, through the number-type namespace _ARRAY, and give the scalar
functions' bits.  +, -, *, / and sqrt are exact IEEE operations on both
types; exp, expm1 and cosh are math's, mapped over the entries, since
numpy's own round differently from libm and from one SIMD path to another.
The other suites still call the library sample by sample.

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

from . import boost, spinor, subgroups, velocity_space
from .core import (
    DEFAULT_TOL,
    UNIT_NORM_TOL,
    AnisotropySpec,
    FourVector,
    OutOfRange,
    UnitVector3,
    Velocity3,
    _cross,
    _dot,
    _numbers,
    _unit3,
    _vel3,
    finsler_interval_sq,
    minkowski_interval,
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


def _blockwise(samples: int, draw, reduce) -> None:
    """reduce(*columns) for each block of at most BLOCK consecutive samples i,
    where column j stacks the j-th value draw(i) returned for every sample of
    the block: floats to shape (N,), 3-tuples to (N, 3), matrices to
    (N, 4, 4).  A block's values are freed before the next block is drawn.
    draw makes the random draws; reduce evaluates what is batched on the
    whole block and records the deviations."""
    for start in range(0, samples, BLOCK):
        rows = (draw(i) for i in range(start, min(start + BLOCK, samples)))
        reduce(*[np.array(column) for column in zip(*rows)])


# The number type of the batched kernels: (N,) float64 arrays.  A kernel of
# boost or spinor takes it as its xp argument (see boost._FLOAT); a guard's
# ok is then a bool array.

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


def _complex(re, im) -> np.ndarray:
    """Complex entries with the bits of complex(re, im): re + 1j * im would
    not keep the sign of a zero real part."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), complex)
    out.real = re
    out.imag = im
    return out


def _at(value, i: int):
    """Row i of a batched value: an (N,) array, a list or tuple of them, or a float."""
    if isinstance(value, (list, tuple)):
        return type(value)(_at(v, i) for v in value)
    return float(value[i]) if np.ndim(value) else float(value)


def _row_explain(ok, template: str, *values) -> str:
    """Message of a failed guard on batches: the first row where ok is False,
    and the template filled in with that row's values."""
    i = int(np.argmin(ok))
    return f"row {i}: " + template.format(*[_at(v, i) for v in values])


def _speed_below_one(x, y, z) -> tuple:
    """The components, where every row is a speed below 1, as Velocity3
    would take it; else ValueError."""
    if not (x * x + y * y + z * z < 1.0).all():
        raise ValueError("speed must be below 1 (c = 1 units)")
    return x, y, z


_ARRAY = _numbers(
    "arrays", exprel=_entrywise(boost._exprel), sinhc=_entrywise(boost._sinhc),
    exp=_entrywise(math.exp), cosh=_entrywise(math.cosh), sqrt=np.sqrt,
    complex=_complex, velocity=_speed_below_one, all=lambda ok: ok.all(), explain=_row_explain,
)


# Batched entry points.  A block's directions and velocities are 3-tuples of
# (N,) arrays, read from the draws' (N, 3) stacks by _directions and
# _velocities, and its boost parameters pairs (n, alpha) made by _param_rows.
# Each entry point returns what the scalar function returns for every row,
# matrices as an (N, 4, 4) stack and vectors in the same 3-tuple form, and
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


def _velocities(a) -> tuple:
    """An (N, 3) stack of velocities as a 3-tuple of columns, each row read
    as Velocity3 reads one."""
    _finite(a)
    x, y, z = a.T
    _refuse(x * x + y * y + z * z < 1.0, OutOfRange, "speed must be below 1 (c = 1 units)")
    return x, y, z


def _param_rows(n, alpha) -> tuple:
    """BoostParams of each row of an (N, 3) stack of directions and an (N,)
    array of rapidities: a negative alpha goes into the direction."""
    n = _directions(n)
    _finite(alpha)
    flip = alpha < 0
    return tuple(np.where(flip, -c, c) for c in n), np.where(flip, -alpha, alpha)


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
    n = tuple(np.where(identity, m, v / alpha) for m, v in zip(nu, (v0, v1, v2)))
    x, y, z = n
    nsq = x * x + y * y + z * z  # UnitVector3's test
    _refuse(abs(nsq - 1.0) <= UNIT_NORM_TOL, ValueError, "not a unit vector: |v|^2 = {}", nsq)
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


def _uniform(rng, lo: float, hi: float, n=None):
    """rng.uniform(lo, hi) as a float, or n of them as a list, bit for bit:
    numpy computes lo + (hi - lo) * rng.random() too."""
    if n is None:
        return lo + (hi - lo) * rng.random()
    return [lo + (hi - lo) * u for u in rng.random(n).tolist()]


def _direction(rng) -> tuple:
    """A direction uniform on the sphere, as the floats of
    UnitVector3.normalized: a norm above 1e-8 needs none of its rescaling."""
    while True:
        x, y, z = rng.standard_normal(3).tolist()
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-8:
            return x / norm, y / norm, z / norm


def _unit(rng) -> UnitVector3:
    x, y, z = _direction(rng)
    return UnitVector3(x, y, z)


def _alpha(rng) -> float:
    return _uniform(rng, -3.0, 3.0)


def _aniso(rng) -> float:
    return _uniform(rng, -0.9, 0.9)


def _speed_vec(rng) -> Velocity3:
    speed = math.tanh(_uniform(rng, 0.0, 3.0))
    u = _unit(rng)
    return Velocity3(speed * u.x, speed * u.y, speed * u.z)


def _params(rng) -> boost.BoostParams:
    return boost.BoostParams(_unit(rng), _alpha(rng))


def _near_band_params(rng, nu: UnitVector3) -> boost.BoostParams:
    """Parameters with alpha in [0.5, 3] and the axis part (nu.n) alpha drawn
    uniformly from the near-zero band |(nu.n) alpha| < limit_switch."""
    band = DEFAULT_TOL.limit_switch
    alpha = _uniform(rng, 0.5, 3.0)
    s = _uniform(rng, -band, band) / alpha
    c = math.sqrt(1.0 - s * s)
    p = subgroups.perpendicular_to(nu)
    n = UnitVector3.normalized((c * p.x + s * nu.x, c * p.y + s * nu.y, c * p.z + s * nu.z))
    return boost.BoostParams(n, alpha)


def _timelike(rng) -> FourVector:
    x = _uniform(rng, -1.0, 1.0, 3)
    t = math.sqrt(_dot(x, x)) + _uniform(rng, 0.1, 2.0)
    return FourVector(t, *x)


def _t4(e: FourVector) -> tuple:
    return e.t, e.x, e.y, e.z


def _axis_part(nu: UnitVector3, g: boost.BoostParams) -> float:
    """(nu.n) alpha."""
    return _dot(_unit3(nu), _unit3(g.n)) * g.alpha


def _axis_parts(nu: tuple, g: tuple) -> np.ndarray:
    """(nu.n) alpha of each row of a block."""
    n, alpha = g
    return _dot(nu, n) * alpha


def suite_oracle(rng, samples):
    p_lam = PropertyResult("boost-vs-exponential", 1e-10)
    p_gen = PropertyResult("generalized-boost-vs-exponential", 1e-10)

    def draw(i):
        return _direction(rng), _direction(rng), _alpha(rng), _aniso(rng)

    def reduce(nu, n, alpha, r):
        nu = _directions(nu)
        g = n, alpha = _param_rows(n, alpha)
        a = alpha[:, None, None]
        _record_vs_expm(
            (p_lam, p_gen),
            (_boost_matrices(nu, g), _generalized_matrices(nu, r, g)),
            (a * _generators(nu, n), a * _generalized_generators(nu, r, n)))

    _blockwise(samples, draw, reduce)
    return [p_lam, p_gen]


def suite_closure(rng, samples):
    p_close = PropertyResult("composition-matches-matrix-product", 1e-10)
    p_add = PropertyResult("axis-rapidity-additivity", 1e-12)
    p_assoc = PropertyResult("associativity", 1e-10)

    def draw(i):
        return (_direction(rng), _direction(rng), _alpha(rng), _direction(rng), _alpha(rng),
                _direction(rng), _alpha(rng))

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

    _blockwise(samples, draw, reduce)
    return [p_close, p_add, p_assoc]


def suite_metric(rng, samples):
    p_fin = PropertyResult("anisotropic-interval-invariance", 1e-10)
    p_mink = PropertyResult("minkowski-invariance-at-r0", 1e-10)
    p_det = PropertyResult("determinant-scaling", 1e-10)

    def draw(i):
        nu, g = _unit(rng), _params(rng)
        r = _aniso(rng)
        spec = AnisotropySpec(nu, r)
        x = _timelike(rng)
        dl = boost.generalized_boost_matrix(spec, g)
        xp = boost.apply_matrix(dl, x)
        lam = boost.boost_matrix(nu, g)
        return (finsler_interval_sq(xp, spec), finsler_interval_sq(x, spec),
                minkowski_interval(boost.apply_matrix(lam, x)), minkowski_interval(x),
                dl, math.exp(-4.0 * r * _dot(_unit3(nu), _unit3(g.n)) * g.alpha))

    def reduce(fin1, fin0, mink1, mink0, dl, det):
        _record(p_fin, _reldiff(fin1, fin0))
        _record(p_mink, _reldiff(mink1, mink0))
        _record(p_det, _reldiff(np.linalg.det(dl), det))

    _blockwise(samples, draw, reduce)
    return [p_fin, p_mink, p_det]


def suite_roundtrip(rng, samples):
    p_n = PropertyResult("direction-roundtrip", 1e-9)
    p_a = PropertyResult("rapidity-roundtrip", 1e-9)
    degenerate = min(100, samples)

    def draw(i):
        nu = _unit(rng)
        if i < degenerate:
            g = _near_band_params(rng, nu)
        else:
            g = boost.BoostParams(_unit(rng), _uniform(rng, 1e-3, 3.0))
        back = boost.params_from_velocity(nu, boost.velocity_from_params(nu, g))
        return _unit3(back.n), _unit3(g.n), back.alpha, g.alpha

    def reduce(back_n, n, back_alpha, alpha):
        _record(p_n, np.abs(back_n - n))
        _record(p_a, np.abs(back_alpha - alpha))

    _blockwise(samples, draw, reduce)
    return [p_n, p_a]


def suite_velocity_addition(rng, samples):
    p_match = PropertyResult("addition-matches-composition", 1e-10)
    p_nu = PropertyResult("preferred-direction-fixed-point", 1e-12)

    def draw(i):
        return _direction(rng), _direction(rng), _alpha(rng), _direction(rng), _alpha(rng)

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

    _blockwise(samples, draw, reduce)
    return [p_match, p_nu]


def suite_spinor(rng, samples):
    p_pow = PropertyResult("generator-power-identities", 1e-12)
    p_int = PropertyResult("intertwining", 1e-10)
    p_exp = PropertyResult("closed-form-vs-exponential", 1e-10)
    p_rep = PropertyResult("one-parameter-representation", 1e-10)
    p_det = PropertyResult("unimodularity", 1e-10)
    eye = np.eye(4, dtype=complex)
    gammas = np.array(spinor.gamma_basis().gamma)

    def draw(i):
        return _direction(rng), _direction(rng), _alpha(rng), _alpha(rng)

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

    _blockwise(samples, draw, reduce)
    return [p_pow, p_int, p_exp, p_rep, p_det]


def _bispinor_matrix_via_params(spec: AnisotropySpec, v: Velocity3) -> np.ndarray:
    """D^{-3/2} S through the parametrization maps: the cross-check of the
    closed form in spinor.bispinor_matrix."""
    params = boost.params_from_velocity(spec.nu, v)
    d = boost.dilation_factor(spec, v)
    return d ** -1.5 * spinor.spinor_boost(spec.nu, params)


def _random_bispinor(rng) -> np.ndarray:
    return rng.standard_normal(4) + 1j * rng.standard_normal(4)


def suite_bispinor(rng, samples):
    p_two = PropertyResult("closed-form-vs-parameter-path", 1e-9)
    p_rho = PropertyResult("density-weight", 1e-10)
    p_cur = PropertyResult("current-weight", 1e-10)

    def draw(i):
        nu = _unit(rng)
        spec = AnisotropySpec(nu, _aniso(rng))
        v = _speed_vec(rng)
        direct = spinor.bispinor_matrix(spec, v)
        via = _bispinor_matrix_via_params(spec, v)
        psi = _random_bispinor(rng)
        psi_p = direct @ psi
        d3 = boost.dilation_factor(spec, v) ** -3
        rho = complex(spinor.dirac_adjoint(psi) @ psi).real
        rho_p = complex(spinor.dirac_adjoint(psi_p) @ psi_p).real
        lam = boost.boost_matrix(nu, boost.params_from_velocity(nu, v))
        return (direct, via, rho_p, d3 * rho, d3, lam,
                spinor.bilinear_current(psi), spinor.bilinear_current(psi_p))

    def reduce(direct, via, rho_p, weighted_rho, d3, lam, j, j_p):
        _record(p_two, _sample_max(direct - via) / np.maximum(_sample_max(direct), 1e-300))
        _record(p_rho, _reldiff(rho_p, weighted_rho))
        expect = d3[:, None] * (lam @ j[:, :, None])[:, :, 0]
        _record(p_cur, _sample_max(j_p - expect) / np.maximum(_sample_max(expect), 1.0))

    _blockwise(samples, draw, reduce)
    return [p_two, p_rho, p_cur]


def suite_bispinor_invariant(rng, samples):
    p_inv = PropertyResult("invariant-form", 1e-9)

    def draw(i):
        nu = _unit(rng)
        spec = AnisotropySpec(nu, _aniso(rng))
        v = _speed_vec(rng)
        while True:
            psi = _random_bispinor(rng)
            rho = complex(spinor.dirac_adjoint(psi) @ psi).real
            if abs(rho) > 0.1:
                break
        after = spinor.finsler_bispinor_invariant(spec, spinor.bispinor_transform(spec, v, psi))
        return after, spinor.finsler_bispinor_invariant(spec, psi)

    def reduce(after, before):
        _record(p_inv, _reldiff(after, before))

    _blockwise(samples, draw, reduce)
    return [p_inv]


def suite_subgroups(rng, samples):
    p_ab_inv = PropertyResult("abelian-invariants", 1e-10)
    p_comm = PropertyResult("abelian-commutativity", 1e-10)
    p_match = PropertyResult("abelian-vs-orthogonal-boost", 1e-10)
    p_scale = PropertyResult("axial-scaling-laws", 1e-10)
    p_ratio = PropertyResult("axial-ratio-invariant", 1e-9)
    p_flow = PropertyResult("axial-flow-additivity", 1e-10)

    def in_plane(th, e1, e2):
        c, s = math.cos(th), math.sin(th)
        return UnitVector3.normalized([c * a + s * b for a, b in zip(e1, e2)])

    def draw(i):
        nu = _unit(rng)
        r = _aniso(rng)
        spec = AnisotropySpec(nu, r)
        e1, e2 = velocity_space._plane_basis(nu)
        th1, th2 = _uniform(rng, 0.0, 2.0 * math.pi, 2)
        n1, n2 = in_plane(th1, e1, e2), in_plane(th2, e1, e2)
        a1, a2 = _uniform(rng, -2.0, 2.0, 2)
        x = _timelike(rng)
        pa1 = subgroups.AbelianParams(n1, a1)
        pa2 = subgroups.AbelianParams(n2, a2)

        xp = subgroups.abelian_transform_v(nu, subgroups.abelian_velocity(nu, pa1), x)
        nuv = _unit3(nu)
        one = subgroups.abelian_transform(nu, pa2, subgroups.abelian_transform(nu, pa1, x))
        other = subgroups.abelian_transform(nu, pa1, subgroups.abelian_transform(nu, pa2, x))
        lam = boost.generalized_boost_matrix(spec, boost.BoostParams(n1, a1))

        ax = subgroups.AxialParams(a1)
        xa = subgroups.axial_transform(spec, ax, x)
        inv0 = subgroups.axial_invariants(spec, x)
        inv1 = subgroups.axial_invariants(spec, xa)
        chained = subgroups.axial_transform(spec, subgroups.AxialParams(a2), xa)
        joint = subgroups.axial_transform(spec, subgroups.AxialParams(a1 + a2), x)
        return (
            minkowski_interval(xp), minkowski_interval(x),
            xp.t - _dot(nuv, (xp.x, xp.y, xp.z)), x.t - _dot(nuv, (x.x, x.y, x.z)),
            _t4(one), _t4(other),
            _t4(subgroups.abelian_transform(nu, pa1, x)), _t4(boost.apply_matrix(lam, x)),
            inv1.nu_projection, math.exp((1.0 - r) * ax.alpha) * inv0.nu_projection,
            inv1.interval_sq, math.exp(-2.0 * r * ax.alpha) * inv0.interval_sq,
            inv1.cylinder_ratio, inv0.cylinder_ratio,
            _t4(chained), _t4(joint),
        )

    def reduce(mink1, mink0, cone1, cone0, one, other, abelian, boosted,
               proj1, proj0, interval1, interval0, ratio1, ratio0, chained, joint):
        _record(p_ab_inv, _reldiff(mink1, mink0))
        _record(p_ab_inv, _reldiff(cone1, cone0))
        _record(p_comm, np.abs(one - other))
        _record(p_match, np.abs(abelian - boosted))
        _record(p_scale, _reldiff(proj1, proj0))
        _record(p_scale, _reldiff(interval1, interval0))
        kept = ratio0 > 1e-6
        _record(p_ratio, _reldiff(ratio1[kept], ratio0[kept]))
        _record(p_flow, np.abs(chained - joint))

    _blockwise(samples, draw, reduce)
    return [p_ab_inv, p_comm, p_match, p_scale, p_ratio, p_flow]


def suite_velocity_space(rng, samples):
    p_iso = PropertyResult("distance-isometry", 1e-9)
    p_horo = PropertyResult("horosphere-invariance", 1e-9)
    p_cyl = PropertyResult("cylinder-invariance", 1e-9)
    p_dil = PropertyResult("dilation-equals-level-power", 1e-12)

    def draw(i):
        nu = _unit(rng)
        r = _aniso(rng)
        spec = AnisotropySpec(nu, r)
        frame_v = _speed_vec(rng)
        va, vb = _speed_vec(rng), _speed_vec(rng)
        ia = velocity_space.induced_motion(nu, frame_v, va)
        ib = velocity_space.induced_motion(nu, frame_v, vb)

        pa = subgroups.AbelianParams(subgroups.perpendicular_to(nu), _uniform(rng, -2.0, 2.0))
        horo_frame = subgroups.abelian_velocity(nu, pa)
        im = velocity_space.induced_motion(nu, horo_frame, va)

        speed = math.tanh(_alpha(rng))
        axial_frame = Velocity3(speed * nu.x, speed * nu.y, speed * nu.z)
        im2 = velocity_space.induced_motion(nu, axial_frame, va)

        # the velocity-side D = h(v)^r against the parameter side e^{-r (nu.n) alpha}
        g = boost.params_from_velocity(nu, va)
        return (
            velocity_space.lobachevsky_distance(va, vb), velocity_space.lobachevsky_distance(ia, ib),
            velocity_space.horosphere_level(nu, im), velocity_space.horosphere_level(nu, va),
            velocity_space.cylinder_level(nu, va), velocity_space.cylinder_level(nu, im2),
            boost.dilation_factor(spec, va), boost._generalized_rows(spec, g)[0],
        )

    def reduce(d0, d1, horo1, horo0, c0, c1, dil, dil_params):
        apart = d0 > 1e-6
        _record(p_iso, _reldiff(d0[apart], d1[apart]))
        _record(p_horo, _reldiff(horo1, horo0))
        off_axis = c0 > 1e-6
        _record(p_cyl, _reldiff(c0[off_axis], c1[off_axis]))
        _record(p_dil, np.abs(dil - dil_params))

    _blockwise(samples, draw, reduce)
    return [p_iso, p_horo, p_cyl, p_dil]


def _taylor_coefficients(a: float, alpha: float) -> tuple:
    """Coefficients of the generators' degree-4 Taylor evaluation near
    a = (nu.n) alpha = 0: Lambda = I + c1 G + c2 G^2 (G^3 = (nu.n)^2 G), with
    c1 = alpha sinhc(a) and c2 = alpha^2 (cosh a - 1)/a^2, and
    S = c3 I + c4 K, with c3 = cosh(a/2) and c4 = (alpha/2) sinhc(a/2).  The
    truncation error is below a^6 / 5040, so 2e-28 in the band |a| <= 1e-4."""
    h = 0.5 * a
    sinhc = 1.0 + a * a / 6.0 + a**4 / 120.0
    coshm1 = 0.5 + a * a / 24.0 + a**4 / 720.0
    return (alpha * sinhc, alpha**2 * coshm1,
            1.0 + h * h / 2.0 + h**4 / 24.0, 0.5 * alpha * (1.0 + h * h / 6.0 + h**4 / 120.0))


def suite_branch(rng, samples):
    """The closed forms in the near-zero band, where expm1(x)/x and
    log1p(t)/t are nearly 0/0, against an independent Taylor evaluation."""
    p_lam = PropertyResult("boost-branch-continuity", 1e-9)
    p_vel = PropertyResult("velocity-branch-continuity", 1e-9)
    p_spin = PropertyResult("spinor-branch-continuity", 1e-9)
    eye = np.eye(4)

    def draw(i):
        nu = _unit(rng)
        g = _near_band_params(rng, nu)
        return (_taylor_coefficients(_axis_part(nu, g), g.alpha),
                _unit3(nu), _unit3(g.n), g.alpha)

    def reduce(coef, nu, n, alpha):
        nu = _directions(nu)
        g = n, _ = _param_rows(n, alpha)
        c1, c2, c3, c4 = coef.T[:, :, None, None]
        gen = _generators(nu, n)
        taylor = eye + c1 * gen + c2 * (gen @ gen)
        _record(p_lam, np.abs(_boost_matrices(nu, g) - taylor))
        vel = _vectors(_velocities_from_params(nu, g))
        _record(p_vel, np.abs(vel - -taylor[:, 0, 1:] / taylor[:, 0, :1]))
        _record(p_spin, np.abs(_spinor_boosts(nu, g) - (c3 * eye + c4 * _spinor_generators(nu, n))))

    _blockwise(samples, draw, reduce)
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
