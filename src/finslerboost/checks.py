"""Seeded randomized conformance suites.

Each suite draws from an isolated PCG64 generator derived from the master
seed.  Draws are normalized with plain float arithmetic (`core._dot`), not a
BLAS dot, so the same seed gives the same inputs whichever OpenBLAS kernel
the CPU selects; deviations measured through the 4x4 and spinor matrix
algebra may still differ in their last digits.  Sampling: directions
uniform on the sphere, rapidity uniform in [-3, 3], anisotropy parameter
uniform in [-0.9, 0.9], speeds with uniform rapidity in [0, 3].

The oracle and spinor suites compare closed forms with `expm`, which uses
nothing about the generators' spectrum; production transforms never route
through it.  Each suite calls it once, on the stack of its samples.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import boost, spinor, subgroups, velocity_space
from .core import (
    DEFAULT_TOL,
    AnisotropySpec,
    FourVector,
    UnitVector3,
    Velocity3,
    _dot,
    _t3,
    finsler_interval_sq,
    minkowski_interval,
)

__all__ = ["PropertyResult", "CheckReport", "SUITES", "run_suite", "run_all"]


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


def _record_vs_expm(props, closed, generators) -> None:
    """Record each closed form's deviation from expm of its generator, one
    `expm` call for the whole stack; props cycle over each sample's entries."""
    exps = expm(np.array(generators))
    devs = np.abs(np.array(closed) - exps).max(axis=(-2, -1))
    for prop, dev in zip(itertools.cycle(props), devs):
        prop.record(dev)


def _unit(rng) -> UnitVector3:
    while True:
        v = _t3(rng.normal(size=3))
        if math.sqrt(_dot(v, v)) > 1e-8:
            return UnitVector3.normalized(v)


def _alpha(rng) -> float:
    return float(rng.uniform(-3.0, 3.0))


def _aniso(rng) -> float:
    return float(rng.uniform(-0.9, 0.9))


def _speed_vec(rng) -> Velocity3:
    speed = math.tanh(rng.uniform(0.0, 3.0))
    return Velocity3.from_array(speed * _unit(rng).as_array())


def _params(rng) -> boost.BoostParams:
    return boost.BoostParams(_unit(rng), _alpha(rng))


def _near_band_params(rng, nu: UnitVector3) -> boost.BoostParams:
    """Parameters with alpha in [0.5, 3] and the axis part (nu.n) alpha drawn
    uniformly from the near-zero band |(nu.n) alpha| < limit_switch."""
    band = DEFAULT_TOL.limit_switch
    alpha = float(rng.uniform(0.5, 3.0))
    s = float(rng.uniform(-band, band)) / alpha
    perp = subgroups.perpendicular_to(nu)
    n = UnitVector3.normalized(math.sqrt(1.0 - s * s) * perp.as_array() + s * nu.as_array())
    return boost.BoostParams(n, alpha)


def _timelike(rng) -> FourVector:
    x = _t3(rng.uniform(-1.0, 1.0, size=3))
    t = math.sqrt(_dot(x, x)) + rng.uniform(0.1, 2.0)
    return FourVector(t, *x)


def _maxdiff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _reldiff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def suite_oracle(rng, samples):
    p_lam = PropertyResult("boost-vs-exponential", 1e-10)
    p_gen = PropertyResult("generalized-boost-vs-exponential", 1e-10)
    closed, generators = [], []
    for _ in range(samples):
        nu, g = _unit(rng), _params(rng)
        spec = AnisotropySpec(nu, _aniso(rng))
        closed += [boost.boost_matrix(nu, g),
                   boost.generalized_boost_matrix(spec, g)]
        generators += [g.alpha * boost.generator(nu, g.n),
                       g.alpha * boost.generalized_generator(spec, g.n)]
    _record_vs_expm((p_lam, p_gen), closed, generators)
    return [p_lam, p_gen]


def suite_closure(rng, samples):
    p_close = PropertyResult("composition-matches-matrix-product", 1e-10)
    p_add = PropertyResult("axis-rapidity-additivity", 1e-12)
    p_assoc = PropertyResult("associativity", 1e-10)
    for _ in range(samples):
        nu = _unit(rng)
        g1, g2, g3 = _params(rng), _params(rng), _params(rng)
        g12 = boost.compose(nu, g1, g2)
        l1 = boost.boost_matrix(nu, g1)
        l2 = boost.boost_matrix(nu, g2)
        p_close.record(_maxdiff(boost.boost_matrix(nu, g12), l2 @ l1))
        s12 = _dot(_t3(nu), _t3(g12.n)) * g12.alpha
        s1 = _dot(_t3(nu), _t3(g1.n)) * g1.alpha
        s2 = _dot(_t3(nu), _t3(g2.n)) * g2.alpha
        p_add.record(abs(s12 - (s1 + s2)))
        left = boost.compose(nu, boost.compose(nu, g1, g2), g3)
        right = boost.compose(nu, g1, boost.compose(nu, g2, g3))
        p_assoc.record(
            _maxdiff(
                boost.boost_matrix(nu, left), boost.boost_matrix(nu, right)
            )
        )
    return [p_close, p_add, p_assoc]


def suite_metric(rng, samples):
    p_fin = PropertyResult("anisotropic-interval-invariance", 1e-10)
    p_mink = PropertyResult("minkowski-invariance-at-r0", 1e-10)
    p_det = PropertyResult("determinant-scaling", 1e-10)
    for _ in range(samples):
        nu, g = _unit(rng), _params(rng)
        r = _aniso(rng)
        spec = AnisotropySpec(nu, r)
        x = _timelike(rng)
        dl = boost.generalized_boost_matrix(spec, g)
        xp = boost.apply_matrix(dl, x)
        p_fin.record(
            _reldiff(finsler_interval_sq(xp, spec), finsler_interval_sq(x, spec))
        )
        lam = boost.boost_matrix(nu, g)
        p_mink.record(
            _reldiff(minkowski_interval(boost.apply_matrix(lam, x)), minkowski_interval(x))
        )
        s = _dot(_t3(nu), _t3(g.n))
        p_det.record(
            _reldiff(float(np.linalg.det(dl)), math.exp(-4.0 * r * s * g.alpha))
        )
    return [p_fin, p_mink, p_det]


def suite_roundtrip(rng, samples):
    p_n = PropertyResult("direction-roundtrip", 1e-9)
    p_a = PropertyResult("rapidity-roundtrip", 1e-9)
    degenerate = min(100, samples)
    for i in range(samples):
        nu = _unit(rng)
        if i < degenerate:
            g = _near_band_params(rng, nu)
        else:
            g = boost.BoostParams(_unit(rng), float(rng.uniform(1e-3, 3.0)))
        v = boost.velocity_from_params(nu, g)
        back = boost.params_from_velocity(nu, v)
        p_n.record(_maxdiff(back.n.as_array(), g.n.as_array()))
        p_a.record(abs(back.alpha - g.alpha))
    return [p_n, p_a]


def suite_velocity_addition(rng, samples):
    p_match = PropertyResult("addition-matches-composition", 1e-10)
    p_nu = PropertyResult("preferred-direction-fixed-point", 1e-12)
    for _ in range(samples):
        nu = _unit(rng)
        g1, g2 = _params(rng), _params(rng)
        v1 = boost.velocity_from_params(nu, g1)
        v2 = boost.velocity_from_params(nu, g2)
        direct = boost.add_velocities(nu, v1, v2)
        via = boost.velocity_from_params(nu, boost.compose(nu, g1, g2))
        p_match.record(_maxdiff(direct.as_array(), via.as_array()))
        # the boundary point v2 = nu is not a Velocity3
        res = boost._add_velocities(_t3(nu), _t3(v1), _t3(nu))
        p_nu.record(_maxdiff(res, nu.as_array()))
    return [p_match, p_nu]


def suite_spinor(rng, samples):
    p_pow = PropertyResult("generator-power-identities", 1e-12)
    p_int = PropertyResult("intertwining", 1e-10)
    p_exp = PropertyResult("closed-form-vs-exponential", 1e-10)
    p_rep = PropertyResult("one-parameter-representation", 1e-10)
    p_det = PropertyResult("unimodularity", 1e-10)
    eye = np.eye(4, dtype=complex)
    gammas = spinor.gamma_basis().gamma
    closed, generators = [], []
    for _ in range(samples):
        nu, n = _unit(rng), _unit(rng)
        alpha = _alpha(rng)
        s = _dot(_t3(nu), _t3(n))
        k = spinor.spinor_generator(nu, n)
        p_pow.record(_maxdiff(k @ k, s * s * eye))
        p_pow.record(_maxdiff(k @ k @ k, s * s * k))
        g = boost.BoostParams(n, alpha)
        smat = spinor.spinor_boost(nu, g)
        sinv = spinor.spinor_boost(nu, boost.BoostParams(n, -alpha))
        lam = boost.boost_matrix(nu, g)
        for i in range(4):
            rhs = sum(lam[i, m] * gammas[m] for m in range(4))
            p_int.record(_maxdiff(sinv @ gammas[i] @ smat, rhs))
        closed.append(smat)
        generators.append(0.5 * alpha * k)
        a2 = _alpha(rng)
        both = spinor.spinor_boost(nu, boost.BoostParams(n, alpha + a2))
        p_rep.record(
            _maxdiff(
                smat @ spinor.spinor_boost(nu, boost.BoostParams(n, a2)), both
            )
        )
        p_det.record(abs(complex(np.linalg.det(smat)) - 1.0))
    _record_vs_expm((p_exp,), closed, generators)
    return [p_pow, p_int, p_exp, p_rep, p_det]


def _bispinor_matrix_via_params(spec: AnisotropySpec, v: Velocity3) -> np.ndarray:
    """D^{-3/2} S through the parametrization maps: the cross-check of the
    closed form in spinor.bispinor_matrix."""
    params = boost.params_from_velocity(spec.nu, v)
    d = boost.dilation_factor(spec, v)
    return d ** -1.5 * spinor.spinor_boost(spec.nu, params)


def _random_bispinor(rng) -> np.ndarray:
    return rng.normal(size=4) + 1j * rng.normal(size=4)


def suite_bispinor(rng, samples):
    p_two = PropertyResult("closed-form-vs-parameter-path", 1e-9)
    p_rho = PropertyResult("density-weight", 1e-10)
    p_cur = PropertyResult("current-weight", 1e-10)
    for _ in range(samples):
        nu = _unit(rng)
        spec = AnisotropySpec(nu, _aniso(rng))
        v = _speed_vec(rng)
        direct = spinor.bispinor_matrix(spec, v)
        via = _bispinor_matrix_via_params(spec, v)
        scale = float(np.max(np.abs(direct)))
        p_two.record(_maxdiff(direct, via) / max(scale, 1e-300))
        psi = _random_bispinor(rng)
        psi_p = direct @ psi
        d = boost.dilation_factor(spec, v)
        rho = complex(spinor.dirac_adjoint(psi) @ psi).real
        rho_p = complex(spinor.dirac_adjoint(psi_p) @ psi_p).real
        p_rho.record(_reldiff(rho_p, d**-3 * rho))
        g = boost.params_from_velocity(nu, v)
        lam = boost.boost_matrix(nu, g)
        j = spinor.bilinear_current(psi)
        j_p = spinor.bilinear_current(psi_p)
        expect = d**-3 * (lam @ j)
        p_cur.record(_maxdiff(j_p, expect) / max(1.0, float(np.max(np.abs(expect)))))
    return [p_two, p_rho, p_cur]


def suite_bispinor_invariant(rng, samples):
    p_inv = PropertyResult("invariant-form", 1e-9)
    for _ in range(samples):
        nu = _unit(rng)
        spec = AnisotropySpec(nu, _aniso(rng))
        v = _speed_vec(rng)
        while True:
            psi = _random_bispinor(rng)
            rho = complex(spinor.dirac_adjoint(psi) @ psi).real
            if abs(rho) > 0.1:
                break
        before = spinor.finsler_bispinor_invariant(spec, psi)
        after = spinor.finsler_bispinor_invariant(
            spec, spinor.bispinor_transform(spec, v, psi)
        )
        p_inv.record(_reldiff(after, before))
    return [p_inv]


def suite_subgroups(rng, samples):
    p_ab_inv = PropertyResult("abelian-invariants", 1e-10)
    p_comm = PropertyResult("abelian-commutativity", 1e-10)
    p_match = PropertyResult("abelian-vs-orthogonal-boost", 1e-10)
    p_scale = PropertyResult("axial-scaling-laws", 1e-10)
    p_ratio = PropertyResult("axial-ratio-invariant", 1e-9)
    p_flow = PropertyResult("axial-flow-additivity", 1e-10)
    for _ in range(samples):
        nu = _unit(rng)
        r = _aniso(rng)
        spec = AnisotropySpec(nu, r)
        e1, e2 = map(np.array, velocity_space._plane_basis(nu))
        th1, th2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        n1 = UnitVector3.normalized(math.cos(th1) * e1 + math.sin(th1) * e2)
        n2 = UnitVector3.normalized(math.cos(th2) * e1 + math.sin(th2) * e2)
        a1, a2 = rng.uniform(-2.0, 2.0, size=2)
        x = _timelike(rng)
        pa1 = subgroups.AbelianParams(n1, float(a1))
        pa2 = subgroups.AbelianParams(n2, float(a2))

        v1 = subgroups.abelian_velocity(nu, pa1)
        xp = subgroups.abelian_transform_v(nu, v1, x)
        p_ab_inv.record(_reldiff(minkowski_interval(xp), minkowski_interval(x)))
        nuv = _t3(nu)
        p_ab_inv.record(
            _reldiff(xp.t - _dot(nuv, (xp.x, xp.y, xp.z)), x.t - _dot(nuv, (x.x, x.y, x.z)))
        )

        one = subgroups.abelian_transform(nu, pa2, subgroups.abelian_transform(nu, pa1, x))
        other = subgroups.abelian_transform(nu, pa1, subgroups.abelian_transform(nu, pa2, x))
        p_comm.record(_maxdiff(one.as_array(), other.as_array()))

        lam = boost.generalized_boost_matrix(spec, boost.BoostParams(n1, float(a1)))
        p_match.record(
            _maxdiff(subgroups.abelian_transform(nu, pa1, x).as_array(),
                     boost.apply_matrix(lam, x).as_array())
        )

        ax = subgroups.AxialParams(float(a1))
        xa = subgroups.axial_transform(spec, ax, x)
        inv0 = subgroups.axial_invariants(spec, x)
        inv1 = subgroups.axial_invariants(spec, xa)
        p_scale.record(
            _reldiff(inv1.nu_projection, math.exp((1.0 - r) * ax.alpha) * inv0.nu_projection)
        )
        p_scale.record(
            _reldiff(inv1.interval_sq, math.exp(-2.0 * r * ax.alpha) * inv0.interval_sq)
        )
        if inv0.cylinder_ratio > 1e-6:
            p_ratio.record(_reldiff(inv1.cylinder_ratio, inv0.cylinder_ratio))

        ax2 = subgroups.AxialParams(float(a2))
        chained = subgroups.axial_transform(spec, ax2, xa)
        joint = subgroups.axial_transform(
            spec, subgroups.AxialParams(float(a1 + a2)), x
        )
        p_flow.record(_maxdiff(chained.as_array(), joint.as_array()))
    return [p_ab_inv, p_comm, p_match, p_scale, p_ratio, p_flow]


def suite_velocity_space(rng, samples):
    p_iso = PropertyResult("distance-isometry", 1e-9)
    p_horo = PropertyResult("horosphere-invariance", 1e-9)
    p_cyl = PropertyResult("cylinder-invariance", 1e-9)
    p_dil = PropertyResult("dilation-equals-level-power", 1e-12)
    for _ in range(samples):
        nu = _unit(rng)
        r = _aniso(rng)
        spec = AnisotropySpec(nu, r)
        frame_v = _speed_vec(rng)
        va, vb = _speed_vec(rng), _speed_vec(rng)
        ia = velocity_space.induced_motion(nu, frame_v, va)
        ib = velocity_space.induced_motion(nu, frame_v, vb)
        d0 = velocity_space.lobachevsky_distance(va, vb)
        d1 = velocity_space.lobachevsky_distance(ia, ib)
        if d0 > 1e-6:
            p_iso.record(_reldiff(d0, d1))

        pa = subgroups.AbelianParams(
            subgroups.perpendicular_to(nu), float(rng.uniform(-2.0, 2.0))
        )
        horo_frame = subgroups.abelian_velocity(nu, pa)
        im = velocity_space.induced_motion(nu, horo_frame, va)
        p_horo.record(
            _reldiff(
                velocity_space.horosphere_level(nu, im),
                velocity_space.horosphere_level(nu, va),
            )
        )

        axial_frame = Velocity3.from_array(math.tanh(_alpha(rng)) * nu.as_array())
        im2 = velocity_space.induced_motion(nu, axial_frame, va)
        c0 = velocity_space.cylinder_level(nu, va)
        c1 = velocity_space.cylinder_level(nu, im2)
        if c0 > 1e-6:
            p_cyl.record(_reldiff(c0, c1))

        # the velocity-side D = h(v)^r against the parameter side e^{-r (nu.n) alpha}
        g = boost.params_from_velocity(nu, va)
        p_dil.record(abs(boost.dilation_factor(spec, va) - boost._generalized_rows(spec, g)[0]))
    return [p_iso, p_horo, p_cyl, p_dil]


def _taylor_near_zero(nu: UnitVector3, g: boost.BoostParams) -> tuple:
    """Boost matrix, velocity and spin matrix from the generators, with each
    coefficient function of a = (nu.n) alpha as its degree-4 Taylor
    polynomial: Lambda = I + alpha sinhc(a) G + alpha^2 (cosh a - 1)/a^2 G^2
    (G^3 = (nu.n)^2 G), v = -Lambda[0, 1:] / Lambda[0, 0] and
    S = cosh(a/2) I + (alpha/2) sinhc(a/2) K.  The truncation error is
    below a^6 / 5040, so 2e-28 in the band |a| <= 1e-4."""
    a = _dot(_t3(nu), _t3(g.n)) * g.alpha
    h = 0.5 * a
    gen = boost.generator(nu, g.n)
    sinhc = 1.0 + a * a / 6.0 + a**4 / 120.0
    coshm1 = 0.5 + a * a / 24.0 + a**4 / 720.0
    lam = np.eye(4) + g.alpha * sinhc * gen + g.alpha**2 * coshm1 * (gen @ gen)
    spin = (1.0 + h * h / 2.0 + h**4 / 24.0) * np.eye(4) + (
        0.5 * g.alpha * (1.0 + h * h / 6.0 + h**4 / 120.0)
    ) * spinor.spinor_generator(nu, g.n)
    return lam, -lam[0, 1:] / lam[0, 0], spin


def suite_branch(rng, samples):
    """The closed forms in the near-zero band, where expm1(x)/x and
    log1p(t)/t are nearly 0/0, against an independent Taylor evaluation."""
    p_lam = PropertyResult("boost-branch-continuity", 1e-9)
    p_vel = PropertyResult("velocity-branch-continuity", 1e-9)
    p_spin = PropertyResult("spinor-branch-continuity", 1e-9)
    for _ in range(samples):
        nu = _unit(rng)
        g = _near_band_params(rng, nu)
        lam, vel, spin = _taylor_near_zero(nu, g)
        p_lam.record(_maxdiff(boost.boost_matrix(nu, g), lam))
        p_vel.record(_maxdiff(boost.velocity_from_params(nu, g).as_array(), vel))
        p_spin.record(_maxdiff(spinor.spinor_boost(nu, g), spin))
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

    ``samples`` must be non-negative; zero gives a vacuous report.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    rng = np.random.default_rng([seed, _suite_index(name)])
    if samples == 0:
        props = [PropertyResult(f"{name} (vacuous)", math.inf)]
    else:
        props = SUITES[name](rng, samples)
    return CheckReport(suite=name, seed=seed, samples=samples, properties=props)


def run_all(names=None, seed: int = 0, samples: int = 1000):
    names = list(SUITES) if names is None else list(names)
    return [run_suite(n, seed, samples) for n in names]
