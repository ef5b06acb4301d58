"""The batched entry points of finslerboost.checks against the scalar
functions, bit for bit, and their boundary against the scalar one."""
import re
import warnings

import numpy as np
import pytest

from finslerboost import (
    AnisotropySpec,
    BoostParams,
    OutOfRange,
    UnitVector3,
    Velocity3,
    boost,
    checks,
    spinor,
)
from support import E_X, NU_Z

BATCHED_SUITES = ("oracle", "closure", "velocity-addition", "spinor", "branch")


def _bits(a) -> np.ndarray:
    """The bits of every float of a, complex entries as two floats."""
    a = np.ascontiguousarray(a)
    return (a.view(np.float64) if a.dtype == complex else a.astype(np.float64)).view(np.uint64)


def _same(batched, scalar) -> None:
    assert np.array_equal(_bits(batched), _bits(scalar))


def _agree(nu_rows, n_rows, alpha, r, m_rows, beta) -> None:
    """Every batched entry point against its scalar function on each row:
    directions nu, parameters g = (n, alpha) and h = (m, beta), anisotropy r."""
    nu, g, h = checks._directions(nu_rows), checks._param_rows(n_rows, alpha), checks._param_rows(
        m_rows, beta)
    units = [UnitVector3(*row) for row in nu_rows.tolist()]
    gs = [BoostParams(UnitVector3(*n), a) for n, a in zip(n_rows.tolist(), alpha.tolist())]
    hs = [BoostParams(UnitVector3(*m), b) for m, b in zip(m_rows.tolist(), beta.tolist())]
    specs = [AnisotropySpec(u, x) for u, x in zip(units, r.tolist())]

    _same(np.stack(g[0], axis=1), [p.n.to_json() for p in gs])
    _same(g[1], [p.alpha for p in gs])
    _same(checks._boost_matrices(nu, g), [boost.boost_matrix(u, p) for u, p in zip(units, gs)])
    _same(checks._generalized_matrices(nu, r, g),
          [boost.generalized_boost_matrix(s, p) for s, p in zip(specs, gs)])
    _same(checks._generators(nu, g[0]), [boost.generator(u, p.n) for u, p in zip(units, gs)])
    _same(checks._generalized_generators(nu, r, g[0]),
          [boost.generalized_generator(s, p.n) for s, p in zip(specs, gs)])
    _same(checks._spinor_boosts(nu, g), [spinor.spinor_boost(u, p) for u, p in zip(units, gs)])
    _same(checks._spinor_generators(nu, g[0]),
          [spinor.spinor_generator(u, p.n) for u, p in zip(units, gs)])

    n, a = checks._compose(nu, g, h)
    composed = [boost.compose(u, p, q) for u, p, q in zip(units, gs, hs)]
    _same(np.stack(n, axis=1), [c.n.to_json() for c in composed])
    _same(a, [c.alpha for c in composed])

    v1, v2 = checks._velocities_from_params(nu, g), checks._velocities_from_params(nu, h)
    w1 = [boost.velocity_from_params(u, p) for u, p in zip(units, gs)]
    w2 = [boost.velocity_from_params(u, q) for u, q in zip(units, hs)]
    _same(np.stack(v1, axis=1), [w.to_json() for w in w1])
    _same(np.stack(checks._added_velocities(nu, v1, v2), axis=1),
          [boost.add_velocities(u, p, q).to_json() for u, p, q in zip(units, w1, w2)])
    with np.errstate(all="ignore"):
        fixed = boost._add_velocities(nu, v1, nu, checks._ARRAY)
    _same(np.stack(fixed, axis=1),
          [boost._add_velocities(tuple(u.to_json()), tuple(w.to_json()), tuple(u.to_json()))
           for u, w in zip(units, w1)])


def _suite_draws(monkeypatch, suite, seed, samples) -> list:
    """The columns of each block that a suite's draws give its reduce."""
    blocks = []

    def capture(count, draw, reduce):
        rows = [draw(i) for i in range(count)]
        blocks.append([np.array(column) for column in zip(*rows)])

    monkeypatch.setattr(checks, "_blockwise", capture)
    checks.run_suite(suite, seed=seed, samples=samples)
    monkeypatch.undo()
    return blocks[0]


@pytest.mark.parametrize("suite", BATCHED_SUITES)
def test_batched_equals_scalar_on_the_suite_draws(suite, monkeypatch):
    """Every direction, rapidity and anisotropy that a batched suite draws at
    seed 2024 over 1,000 samples, through every batched entry point."""
    cols = _suite_draws(monkeypatch, suite, 2024, 1000)
    units = [c for c in cols if c.ndim == 2 and c.shape[1] == 3]
    scalars = [c for c in cols if c.ndim == 1]
    nu, dirs = units[0], units[1:]
    r = cols[3] if suite == "oracle" else np.linspace(-0.9, 0.9, len(nu))
    rapidities = scalars[:len(dirs)] if suite != "spinor" else scalars[:1]
    assert len(nu) == 1000 and dirs and rapidities
    for n, alpha in zip(dirs, rapidities):
        _agree(nu, n, alpha, r, np.roll(n, 1, axis=0), np.roll(alpha, 1))
    if suite == "spinor":  # the second rapidity, on the same direction
        _agree(nu, dirs[0], scalars[1], r, dirs[0], -scalars[1])


def _rows(*vectors) -> np.ndarray:
    return np.array([list(v) for v in vectors], dtype=float)


# n perpendicular to nu with nu.n exactly 0, in float arithmetic too
PERP_NU, PERP_N = (0.6, 0.8, 0.0), (0.8, -0.6, 0.0)
TILT = tuple(UnitVector3.normalized((0.3, -0.5, 0.8)).to_json())


def test_batched_equals_scalar_at_the_special_points():
    """alpha = 0, n = nu and -nu, n perpendicular to nu, and g composed with
    its own inverse (the identity branch of compose)."""
    nu = _rows(NU_Z.to_json(), NU_Z.to_json(), NU_Z.to_json(), PERP_NU, PERP_NU, TILT, TILT)
    n = _rows(E_X.to_json(), NU_Z.to_json(), (0.0, 0.0, -1.0), PERP_N, PERP_N, TILT, PERP_N)
    alpha = np.array([0.0, 1.3, -0.7, 2.5, -0.0, 0.0, 1.1])
    r = np.array([0.3, -0.9, 0.9, 0.0, 0.5, -0.2, 0.7])
    assert boost._dot(PERP_NU, PERP_N) == 0.0
    _agree(nu, n, alpha, r, n, -alpha)  # each g then its inverse
    _agree(nu, n, alpha, r, n[::-1], alpha[::-1])
    identity = checks._compose(checks._directions(nu), checks._param_rows(n, alpha),
                               checks._param_rows(n, -alpha))
    _same(identity[1], np.zeros(len(nu)))
    _same(np.stack(identity[0], axis=1), nu)


def test_batched_equals_scalar_in_the_near_zero_band():
    rng = np.random.default_rng(31)
    nu, n, alpha = [], [], []
    for _ in range(500):
        u = checks._unit(rng)
        g = checks._near_band_params(rng, u)
        assert abs(checks._axis_part(u, g)) < 1e-4
        nu.append(u.to_json())
        n.append(g.n.to_json())
        alpha.append(g.alpha)
    nu, n, alpha = np.array(nu), np.array(n), np.array(alpha)
    _agree(nu, n, alpha, np.linspace(-0.9, 0.9, len(nu)), n[::-1], -alpha[::-1])


def test_batched_compose_at_a_subnormal_square():
    """Composites across nu whose n alpha . n alpha is subnormal (the
    identity) or just above the smallest normal float (a direction)."""
    nu = _rows(*[NU_Z.to_json()] * 4)
    n = _rows(*[E_X.to_json()] * 4)
    alpha = np.array([1e-160, 1.5e-154, 3e-162, 2e-154])
    beta = np.array([1e-170, 0.0, -1e-162, -5e-155])
    g, h = checks._param_rows(n, alpha), checks._param_rows(n, beta)
    m, a = checks._compose(checks._directions(nu), g, h)
    composed = [boost.compose(NU_Z, BoostParams(E_X, x), BoostParams(E_X, y))
                for x, y in zip(alpha.tolist(), beta.tolist())]
    assert [c.alpha == 0.0 for c in composed] == [True, False, True, False]
    _same(np.stack(m, axis=1), [c.n.to_json() for c in composed])
    _same(a, [c.alpha for c in composed])
    _agree(nu, n, alpha, np.zeros(4), n, beta)


def _refused(batched, scalar, row):
    """batched() raises what scalar() raises, with "row {row}: " before its
    message; no numpy warning on the way."""
    with pytest.raises(Exception) as want:
        scalar()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(type(want.value), match=f"^{re.escape(f'row {row}: {want.value}')}$"):
            batched()


GOOD = (0.0, 0.6, 0.8)


@pytest.mark.parametrize("bad, error", [
    ((float("nan"), 0.0, 1.0), OutOfRange),
    ((0.0, float("inf"), 0.0), OutOfRange),
    ((0.0, 0.6, 0.81), ValueError),
])
def test_batched_boundary_refuses_a_direction_row(bad, error):
    rows = _rows(GOOD, GOOD, bad, GOOD)
    _refused(lambda: checks._directions(rows), lambda: UnitVector3(*bad), 2)
    _refused(lambda: checks._param_rows(rows, np.ones(4)), lambda: UnitVector3(*bad), 2)
    with pytest.raises(error):
        UnitVector3(*bad)


def test_batched_boundary_refuses_a_rapidity_that_is_not_finite():
    alpha = np.array([0.5, np.inf, np.nan])
    _refused(lambda: checks._param_rows(_rows(GOOD, GOOD, GOOD), alpha),
             lambda: BoostParams(UnitVector3(*GOOD), np.inf), 1)


@pytest.mark.parametrize("speed", [1.0, 1.5])
def test_batched_boundary_refuses_a_speed_of_one(speed):
    rows = _rows((0.1, 0.0, 0.0), (0.0, 0.0, speed))
    nu = checks._directions(_rows(GOOD, GOOD))
    _refused(lambda: checks._velocities(rows), lambda: Velocity3(0.0, 0.0, speed), 1)
    _refused(lambda: checks._added_velocities(nu, tuple(rows.T), tuple(rows[::-1].T)),
             lambda: Velocity3(0.0, 0.0, speed), 1)


def _params(*pairs):
    n = _rows(*[p for p, _ in pairs])
    return n, np.array([a for _, a in pairs])


Z = NU_Z.to_json()


@pytest.mark.parametrize("name, batched, scalar", [
    ("boost rows beyond 709.78",
     lambda nu, g, r: checks._boost_matrices(nu, g),
     lambda u, p, s: boost.boost_matrix(u, p)),
    ("velocity beyond 709.78",
     lambda nu, g, r: checks._velocities_from_params(nu, g),
     lambda u, p, s: boost.velocity_from_params(u, p)),
    ("generalized boost",
     lambda nu, g, r: checks._generalized_matrices(nu, r, g),
     lambda u, p, s: boost.generalized_boost_matrix(s, p)),
    ("spinor beyond 1419.56",
     lambda nu, g, r: checks._spinor_boosts(nu, g),
     lambda u, p, s: spinor.spinor_boost(u, p)),
])
@pytest.mark.parametrize("alpha", [720.0, 1500.0, -720.0])
def test_batched_boundary_refuses_an_axis_part_that_overflows(name, batched, scalar, alpha):
    if name.startswith("spinor") and abs(alpha) < 1419.56:
        alpha *= 2.0
    n, a = _params((GOOD, 0.5), (Z, 0.25), (Z, alpha))
    nu_rows = _rows(Z, Z, Z)
    r = np.array([0.1, 0.2, 0.3])
    g = checks._param_rows(n, a)
    _refused(lambda: batched(checks._directions(nu_rows), g, r),
             lambda: scalar(NU_Z, BoostParams(NU_Z, alpha), AnisotropySpec(NU_Z, 0.3)), 2)


def test_batched_boundary_refuses_a_speed_that_rounds_to_one():
    n, a = _params((Z, 1.0), (Z, 40.0))
    nu = checks._directions(_rows(Z, Z))
    _refused(lambda: checks._velocities_from_params(nu, checks._param_rows(n, a)),
             lambda: boost.velocity_from_params(NU_Z, BoostParams(NU_Z, 40.0)), 1)


@pytest.mark.parametrize("r, alpha", [(-1e3, 1.0), (-0.9, 800.0), (-1e300, 1e10)])
def test_batched_boundary_refuses_a_scale_that_overflows(r, alpha):
    n, a = _params((Z, 1.0), (Z, alpha))
    nu = checks._directions(_rows(Z, Z))
    _refused(lambda: checks._generalized_matrices(nu, np.array([0.1, r]), checks._param_rows(n, a)),
             lambda: boost.generalized_boost_matrix(AnisotropySpec(NU_Z, r), BoostParams(NU_Z, alpha)),
             1)


@pytest.mark.parametrize("a1, a2", [(720.0, 720.0), (-800.0, -700.0), (1e300, 1e300)])
def test_batched_boundary_refuses_a_composition_that_overflows(a1, a2):
    n1, b1 = _params((GOOD, 0.5), (Z, a1))
    n2, b2 = _params((GOOD, 0.25), (Z, a2))
    nu = checks._directions(_rows(Z, Z))
    _refused(lambda: checks._compose(nu, checks._param_rows(n1, b1), checks._param_rows(n2, b2)),
             lambda: boost.compose(NU_Z, BoostParams(NU_Z, a1), BoostParams(NU_Z, a2)), 1)


def test_batched_params_canonicalize_as_boost_params_do():
    """A negative alpha goes into the direction; -0.0 stays as it is."""
    n = _rows(GOOD, GOOD, Z, E_X.to_json())
    alpha = np.array([-1.5, 1.5, -0.0, -3e-300])
    m, a = checks._param_rows(n, alpha)
    want = [BoostParams(UnitVector3(*row), x) for row, x in zip(n.tolist(), alpha.tolist())]
    _same(np.stack(m, axis=1), [p.n.to_json() for p in want])
    _same(a, [p.alpha for p in want])
