"""The batched entry points of finslerboost.checks against the scalar
functions, bit for bit, and their boundary against the scalar one."""
import math
import re
import warnings

import numpy as np
import pytest

from finslerboost import (
    AbelianParams,
    AnisotropySpec,
    AxialParams,
    BoostParams,
    DegenerateRatio,
    FourVector,
    NonOrthogonal,
    NonTimelike,
    NullDensity,
    OffHorosphere,
    OutOfRange,
    SpacelikeInput,
    UnitVector3,
    Velocity3,
    boost,
    checks,
    core,
    spinor,
    subgroups,
    velocity_space,
)
from support import E_X, NU_Z

BATCHED_SUITES = ("oracle", "closure", "velocity-addition", "spinor", "branch", "roundtrip",
                  "bispinor", "subgroups", "metric", "bispinor-invariant", "velocity-space")


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

    def capture(rng, count, draw, reduce):
        blocks.append(list(draw(rng, count)))

    monkeypatch.setattr(checks, "_blockwise", capture)
    checks.run_suite(suite, seed=seed, samples=samples)
    monkeypatch.undo()
    return blocks[0]


def _band_reference(nu_rows, s, c) -> list:
    """The near-band direction of each row as the per-sample draw built it."""
    out = []
    for row, x, y in zip(nu_rows.tolist(), s.tolist(), c.tolist()):
        u = UnitVector3(*row)
        p = subgroups.perpendicular_to(u)
        out.append(UnitVector3.normalized((y * p.x + x * u.x, y * p.y + x * u.y,
                                           y * p.z + x * u.z)).to_json())
    return out


def _agree_directions(nu_rows, s, c) -> np.ndarray:
    """perpendicular_to, UnitVector3.normalized and the near-band direction of
    each row; returns the band directions as an (N, 3) stack."""
    nu = checks._directions(nu_rows)
    units = [UnitVector3(*row) for row in nu_rows.tolist()]
    _same(np.stack(checks._perpendiculars(nu), axis=1),
          [subgroups.perpendicular_to(u).to_json() for u in units])
    scale = np.resize([1.0, 1e-170, 1e200, 3e-320], len(nu_rows))  # v.v in range, under, over
    scaled = (scale * nu[0], scale * (nu[1] - 0.5 * nu[2]), scale * nu[2])
    _same(np.stack(checks._normalized_rows(scaled), axis=1),
          [UnitVector3.normalized(row).to_json() for row in np.stack(scaled, axis=1).tolist()])
    band = np.stack(checks._band_directions(nu, s, c), axis=1)
    _same(band, _band_reference(nu_rows, s, c))
    return band


def _agree_frames(nu_rows, v_rows, r) -> None:
    """params_from_velocity, dilation_factor and bispinor_matrix of each row."""
    nu, v = checks._directions(nu_rows), checks._velocities(v_rows)
    units = [UnitVector3(*row) for row in nu_rows.tolist()]
    vels = [Velocity3(*row) for row in v_rows.tolist()]
    specs = [AnisotropySpec(u, x) for u, x in zip(units, r.tolist())]
    n, alpha = checks._params_from_velocities(nu, v)
    back = [boost.params_from_velocity(u, w) for u, w in zip(units, vels)]
    _same(np.stack(n, axis=1), [g.n.to_json() for g in back])
    _same(alpha, [g.alpha for g in back])
    _same(checks._dilation_factors(nu, r, v),
          [boost.dilation_factor(sp, w) for sp, w in zip(specs, vels)])
    _same(checks._bispinor_matrices(nu, r, v),
          [spinor.bispinor_matrix(sp, w) for sp, w in zip(specs, vels)])


def _agree_bispinors(psi) -> None:
    """bilinear_current of each row."""
    _same(checks._currents(psi), [spinor.bilinear_current(row) for row in psi])


def _agree_subgroups(nu_rows, n_rows, alpha, r, x_rows) -> None:
    """The Abelian and axial transforms, the Abelian velocity, the axial
    invariants, the interval and apply_matrix of each row, for directions n
    orthogonal to nu."""
    nu, n, x = checks._directions(nu_rows), checks._directions(n_rows), checks._events(x_rows)
    units = [UnitVector3(*row) for row in nu_rows.tolist()]
    specs = [AnisotropySpec(u, y) for u, y in zip(units, r.tolist())]
    params = [AbelianParams(UnitVector3(*m), a) for m, a in zip(n_rows.tolist(), alpha.tolist())]
    events = [FourVector(*row) for row in x_rows.tolist()]

    def events_of(rows):
        return [e.to_json() for e in rows]

    v = checks._abelian_velocities(nu, n, alpha)
    vels = [subgroups.abelian_velocity(u, p) for u, p in zip(units, params)]
    _same(np.stack(v, axis=1), [w.to_json() for w in vels])
    _same(np.stack(checks._abelian_transforms(nu, n, alpha, x), axis=1),
          events_of(subgroups.abelian_transform(u, p, e) for u, p, e in zip(units, params, events)))
    _same(np.stack(checks._abelian_transforms_v(nu, v, x), axis=1),
          events_of(subgroups.abelian_transform_v(u, w, e) for u, w, e in zip(units, vels, events)))
    _same(np.stack(checks._axial_transforms(nu, r, alpha, x), axis=1),
          events_of(subgroups.axial_transform(sp, AxialParams(a), e)
                    for sp, a, e in zip(specs, alpha.tolist(), events)))
    invariants = [subgroups.axial_invariants(sp, e) for sp, e in zip(specs, events)]
    _same(np.stack(checks._axial_invariants(nu, x), axis=1),
          [list(inv.to_json().values()) for inv in invariants])
    _same(checks._intervals(x), [core.minkowski_interval(e) for e in events])
    g = checks._param_rows(n_rows, alpha)
    mats = checks._generalized_matrices(nu, r, g)
    _same(np.stack(checks._matrix_images(mats, x), axis=1),
          events_of(boost.apply_matrix(m, e) for m, e in zip(mats, events)))


def _agree_intervals(nu_rows, r, x_rows) -> None:
    """finsler_interval_sq of each row."""
    nu, x = checks._directions(nu_rows), checks._events(x_rows)
    specs = [AnisotropySpec(UnitVector3(*row), y) for row, y in zip(nu_rows.tolist(), r.tolist())]
    _same(checks._finsler_intervals(nu, r, x),
          [core.finsler_interval_sq(FourVector(*e), sp) for e, sp in zip(x_rows.tolist(), specs)])


def _agree_invariants(nu_rows, r, v_rows, psi) -> None:
    """bispinor_transform and finsler_bispinor_invariant of each row, the
    latter before and after the transform."""
    nu, v = checks._directions(nu_rows), checks._velocities(v_rows)
    specs = [AnisotropySpec(UnitVector3(*row), y) for row, y in zip(nu_rows.tolist(), r.tolist())]
    vels = [Velocity3(*row) for row in v_rows.tolist()]
    image = checks._bispinor_transforms(nu, r, v, psi)
    _same(image, [spinor.bispinor_transform(sp, w, p) for sp, w, p in zip(specs, vels, psi)])
    for bispinors in (psi, image):
        _same(checks._bispinor_invariants(nu, r, bispinors),
              [spinor.finsler_bispinor_invariant(sp, p) for sp, p in zip(specs, bispinors)])


def _agree_velocity_space(nu_rows, u_rows, v_rows, w_rows) -> None:
    """induced_motion of v and w in the frame u, and lobachevsky_distance,
    horosphere_level and cylinder_level of each row."""
    nu = checks._directions(nu_rows)
    u, v, w = (checks._velocities(rows) for rows in (u_rows, v_rows, w_rows))
    units = [UnitVector3(*row) for row in nu_rows.tolist()]
    us, vs, ws = ([Velocity3(*row) for row in rows.tolist()] for rows in (u_rows, v_rows, w_rows))
    iv, iw = checks._induced_motions(nu, u, v), checks._induced_motions(nu, u, w)
    want_v = [velocity_space.induced_motion(m, a, b) for m, a, b in zip(units, us, vs)]
    want_w = [velocity_space.induced_motion(m, a, b) for m, a, b in zip(units, us, ws)]
    _same(np.stack(iv, axis=1), [x.to_json() for x in want_v])
    _same(np.stack(iw, axis=1), [x.to_json() for x in want_w])
    _same(checks._distances(v, w), [velocity_space.lobachevsky_distance(a, b) for a, b in zip(vs, ws)])
    _same(checks._distances(iv, iw),
          [velocity_space.lobachevsky_distance(a, b) for a, b in zip(want_v, want_w)])
    _same(checks._horosphere_levels(nu, v),
          [velocity_space.horosphere_level(m, b) for m, b in zip(units, vs)])
    _same(checks._cylinder_levels(nu, v), [velocity_space.cylinder_level(m, b) for m, b in zip(units, vs)])


def _agree_scales(nu_rows, r, n_rows, alpha) -> None:
    """The scale D of generalized_boost_matrix of each row."""
    nu, g = checks._directions(nu_rows), checks._param_rows(n_rows, alpha)
    specs = [AnisotropySpec(UnitVector3(*row), y) for row, y in zip(nu_rows.tolist(), r.tolist())]
    params = [BoostParams(UnitVector3(*m), a) for m, a in zip(n_rows.tolist(), alpha.tolist())]
    _same(checks._boost_scales(nu, r, g), [boost._generalized_rows(sp, p)[0] for sp, p in zip(specs, params)])


def _suite_inputs(suite, cols) -> tuple:
    """nu, the pairs (n, alpha) and the anisotropy r that a suite's block
    gives the boost layer, checking on the way the entry points that build
    them and those the suite calls."""
    nu = cols[0]
    r = np.linspace(-0.9, 0.9, len(nu))
    if suite == "oracle":
        return nu, [(cols[1], cols[2])], cols[3]
    if suite == "closure":
        return nu, [(cols[1], cols[2]), (cols[3], cols[4]), (cols[5], cols[6])], r
    if suite == "velocity-addition":
        return nu, [(cols[1], cols[2]), (cols[3], cols[4])], r
    if suite == "spinor":
        _agree(nu, cols[1], cols[3], r, cols[1], -cols[3])  # the second rapidity
        return nu, [(cols[1], cols[2])], r
    if suite == "branch":
        _, alpha, s, c = cols
        return nu, [(_agree_directions(nu, s, c), alpha)], r
    if suite == "roundtrip":
        _, n, alpha, s, c, band = cols
        assert 0 < band.sum() < len(band)
        n = np.where(band[:, None], _agree_directions(nu, s, c), n)
        v = checks._velocities_from_params(checks._directions(nu), checks._param_rows(n, alpha))
        _agree_frames(nu, np.stack(v, axis=1), r)
        return nu, [(n, alpha)], r
    if suite == "bispinor":
        _, r, v, re, im = cols
        _agree_frames(nu, v, r)
        psi = re + 1j * im
        direct = checks._bispinor_matrices(checks._directions(nu), r, checks._velocities(v))
        _agree_bispinors(psi)
        _agree_bispinors((direct @ psi[:, :, None])[:, :, 0])
        n, alpha = checks._params_from_velocities(checks._directions(nu), checks._velocities(v))
        return nu, [(np.stack(n, axis=1), alpha)], r
    if suite == "metric":
        _, n, alpha, r, x = cols
        _agree_intervals(nu, r, x)
        dl = checks._generalized_matrices(checks._directions(nu), r, checks._param_rows(n, alpha))
        _agree_intervals(nu, r, np.stack(checks._matrix_images(dl, checks._events(x)), axis=1))
        _agree_scales(nu, r, n, alpha)
        return nu, [(n, alpha)], r
    if suite == "bispinor-invariant":
        _, r, v, psi = cols
        _agree_frames(nu, v, r)
        _agree_invariants(nu, r, v, psi)
        _agree_bispinors(psi)
        n, alpha = checks._params_from_velocities(checks._directions(nu), checks._velocities(v))
        return nu, [(np.stack(n, axis=1), alpha)], r
    if suite == "velocity-space":
        _, r, u, v, w, beta, speed = cols
        nu_cols = checks._directions(nu)
        perp = np.stack(checks._perpendiculars(nu_cols), axis=1)
        horo = np.stack(checks._abelian_velocities(nu_cols, tuple(perp.T), beta), axis=1)
        _agree_subgroups(nu, perp, beta, r, np.tile([1.0, 0.2, -0.3, 0.1], (len(nu), 1)))
        for frame in (u, horo, speed[:, None] * nu):
            _agree_velocity_space(nu, frame, v, w)
        _agree_frames(nu, v, r)
        n, alpha = checks._params_from_velocities(nu_cols, checks._velocities(v))
        _agree_scales(nu, r, np.stack(n, axis=1), alpha)
        return nu, [(np.stack(n, axis=1), alpha)], r
    assert suite == "subgroups"
    _, r, th1, th2, a1, a2, x = cols
    e1 = checks._perpendiculars(checks._directions(nu))
    e2 = checks._normalized_rows(core._cross(checks._directions(nu), e1))
    basis = [velocity_space._plane_basis(UnitVector3(*row)) for row in nu.tolist()]
    pairs = []
    for th, a in ((th1, a1), (th2, a2)):
        n = np.stack(checks._in_plane(th, e1, e2), axis=1)
        _same(n, [UnitVector3.normalized([math.cos(t) * p + math.sin(t) * q for p, q in zip(*b)])
                  .to_json() for t, b in zip(th.tolist(), basis)])
        _agree_subgroups(nu, n, a, r, x)
        pairs.append((n, a))
    return nu, pairs, r


@pytest.mark.parametrize("suite", BATCHED_SUITES)
def test_batched_equals_scalar_on_the_suite_draws(suite, monkeypatch):
    """Every input that a batched suite draws at seed 2024 over 1,000
    samples, through every batched entry point."""
    cols = _suite_draws(monkeypatch, suite, 2024, 1000)
    nu, pairs, r = _suite_inputs(suite, cols)
    assert len(nu) == 1000 and pairs
    for n, alpha in pairs:
        _agree(nu, n, alpha, r, np.roll(n, 1, axis=0), np.roll(alpha, 1))


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
    nu = checks._draw_directions(rng, 500)
    alpha, s, c = checks._draw_band(rng, 500)
    n = _agree_directions(nu, s, c)
    assert np.all(abs(np.sum(nu * n, axis=1) * alpha) < 1e-4)
    _agree(nu, n, alpha, np.linspace(-0.9, 0.9, len(nu)), n[::-1], -alpha[::-1])


# directions whose least components tie: the pivot is the first of them
TIES = [(1.0, 1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, 1.0, 2.0), (2.0, -1.0, 1.0), (3.0, 4.0, 0.0),
        (0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (-0.0, 0.0, -1.0)]


def test_batched_perpendicular_at_pivot_ties_and_axes():
    nu = _rows(*[UnitVector3.normalized(v).to_json() for v in TIES])
    _agree_directions(nu, np.linspace(-4e-5, 4e-5, len(nu)), np.ones(len(nu)))


def test_batched_params_from_velocity_at_rest_and_subnormal_squares():
    """v = 0, v.v subnormal (the identity) and v.v just above the smallest
    normal float (a direction), among ordinary rows."""
    nu = _rows(*[NU_Z.to_json()] * 6, TILT)
    v = _rows((0.0, 0.0, 0.0), (1e-160, 0.0, 0.0), (0.0, -3e-162, 1e-170), (2e-154, 0.0, 0.0),
              (0.3, -0.2, 0.5), (0.0, 0.0, -0.0), (-0.4, 0.1, 0.2))
    r = np.array([0.3, 0.0, -0.9, 0.5, 0.0, 0.7, -0.2])
    _agree_frames(nu, v, r)
    n, alpha = checks._params_from_velocities(checks._directions(nu), checks._velocities(v))
    assert alpha.tolist()[:3] == [0.0, 0.0, 0.0] and alpha[3] > 0.0


def test_batched_subgroups_at_special_points():
    """Directions across nu on and off the axes, alpha = 0 and r = 0."""
    nu = _rows(Z, Z, PERP_NU, PERP_NU, TILT, TILT)
    perp = [E_X.to_json(), (0.0, -1.0, 0.0), PERP_N, (0.0, 0.0, 1.0),
            subgroups.perpendicular_to(UnitVector3(*TILT)).to_json(),
            subgroups.perpendicular_to(UnitVector3(*TILT)).to_json()]
    alpha = np.array([0.0, 1.3, -0.7, 0.0, 1.9, -0.0])
    r = np.array([0.0, 0.4, 0.0, -0.6, 0.0, 0.9])
    x = _rows((1.0, 0.0, 0.0, 0.0), (2.0, 0.3, -0.4, 1.1), (1.5, -0.5, 0.2, 0.1),
              (3.0, 1.0, 1.0, -1.0), (0.9, 0.0, 0.0, 0.2), (1.2, 0.4, 0.0, 0.0))
    _agree_subgroups(nu, _rows(*perp), alpha, r, x)


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


# a unit vector, within UnitVector3's 1e-12, along which 1 - v.nu rounds below 0
LONG_Z = (0.0, 0.0, 1.0000000000004)
EDGE = (0.0, 0.0, 0.9999999999999999)


def _frame_rows(bad_nu, bad_v):
    """Two ordinary rows and a third, nu and v, with its own r."""
    nu = checks._directions(_rows(Z, TILT, bad_nu))
    v = checks._velocities(_rows((0.1, 0.2, -0.3), (0.0, 0.5, 0.1), bad_v))
    return nu, v


FRAMES = {
    "params_from_velocity": (lambda nu, r, v: checks._params_from_velocities(nu, v),
                             lambda s, w: boost.params_from_velocity(s.nu, w)),
    "dilation_factor": (checks._dilation_factors, boost.dilation_factor),
    "bispinor_matrix": (checks._bispinor_matrices, spinor.bispinor_matrix),
}


@pytest.mark.parametrize("name, r, v", [
    ("params_from_velocity", 0.3, EDGE),
    ("dilation_factor", 0.3, EDGE),
    ("dilation_factor", -2000.0, (0.0, 0.0, 0.5)),
    ("bispinor_matrix", 0.3, EDGE),
    ("bispinor_matrix", 2000.0, (0.0, 0.0, 0.5)),
    ("bispinor_matrix", 65.0, (0.0, 0.0, 0.999999)),
])
def test_batched_boundary_refuses_a_frame_at_the_edge_or_a_weight_that_overflows(name, r, v):
    """1 - v.nu rounds below 0, the dilation or the bispinor weight
    overflows, or the bispinor blocks do: OutOfRange."""
    batched, scalar = FRAMES[name]
    bad_nu = LONG_Z if v == EDGE else Z
    spec, w = AnisotropySpec(UnitVector3(*bad_nu), r), Velocity3(*v)
    with pytest.raises(OutOfRange):
        scalar(spec, w)
    nu, vel = _frame_rows(bad_nu, v)
    _refused(lambda: batched(nu, np.array([0.1, -0.4, r]), vel), lambda: scalar(spec, w), 2)


def test_batched_boundary_refuses_a_velocity_off_the_horosphere():
    nu = checks._directions(_rows(Z, Z, Z))
    v = checks._velocities(_rows((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0)))
    x = checks._events(_rows((1.0, 0.0, 0.0, 0.0), (2.0, 0.5, 0.0, 0.1), (1.0, 0.0, 0.0, 0.0)))
    _refused(lambda: checks._abelian_transforms_v(nu, v, x),
             lambda: subgroups.abelian_transform_v(NU_Z, Velocity3(0.5, 0.0, 0.0),
                                                   FourVector(2.0, 0.5, 0.0, 0.1)), 1)
    with pytest.raises(OffHorosphere):
        subgroups.abelian_transform_v(NU_Z, Velocity3(0.5, 0.0, 0.0), FourVector(2.0, 0.5, 0.0, 0.1))
    edge = checks._directions(_rows(Z, LONG_Z))
    at_edge = checks._velocities(_rows((0.0, 0.0, 0.0), EDGE))
    x = checks._events(_rows((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)))
    _refused(lambda: checks._abelian_transforms_v(edge, at_edge, x),
             lambda: subgroups.abelian_transform_v(UnitVector3(*LONG_Z), Velocity3(*EDGE),
                                                   FourVector(1.0, 0.0, 0.0, 0.0)), 1)


@pytest.mark.parametrize("name, batched, scalar", [
    ("abelian_velocity", lambda nu, n, a, x: checks._abelian_velocities(nu, n, a),
     lambda u, p, e: subgroups.abelian_velocity(u, p)),
    ("abelian_transform", checks._abelian_transforms, subgroups.abelian_transform),
])
def test_batched_boundary_refuses_a_direction_not_orthogonal_to_nu(name, batched, scalar):
    n = _rows(E_X.to_json(), (0.0, 1.0, 0.0), TILT)
    nu, x = checks._directions(_rows(Z, Z, Z)), checks._events(_rows(*[(1.0, 0.2, 0.0, 0.1)] * 3))
    want = lambda: scalar(NU_Z, AbelianParams(UnitVector3(*TILT), 1.5),  # noqa: E731
                          FourVector(1.0, 0.2, 0.0, 0.1))
    with pytest.raises(NonOrthogonal):
        want()
    _refused(lambda: batched(nu, checks._directions(n), np.array([0.5, 1.0, 1.5]), x), want, 2)


def test_batched_boundary_refuses_a_spacelike_event_and_a_square_that_overflows():
    nu = checks._directions(_rows(Z, Z, Z))
    for bad in [(0.5, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0), (1e200, 0.0, 0.0, 0.0)]:
        x = checks._events(_rows((1.0, 0.0, 0.0, 0.0), (2.0, 0.5, 0.0, 0.1), bad))
        want = lambda: subgroups.axial_invariants(AnisotropySpec(NU_Z, 0.3), FourVector(*bad))
        _refused(lambda: checks._axial_invariants(nu, x), want, 2)
    _refused(lambda: checks._intervals(x), lambda: core.minkowski_interval(FourVector(*bad)), 2)
    with pytest.raises(NonTimelike):
        subgroups.axial_invariants(AnisotropySpec(NU_Z, 0.3), FourVector(0.5, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("r, alpha", [(0.3, 800.0), (0.3, -800.0), (-1e3, 1.0), (-1.5, 300.0)])
def test_batched_boundary_refuses_an_axial_rapidity_that_overflows(r, alpha):
    """A coefficient e^{-r alpha}, cosh alpha or sinh alpha, or the image
    (the last case), beyond float range."""
    nu = checks._directions(_rows(Z, TILT))
    x = checks._events(_rows((1.0, 0.2, 0.0, 0.1), (1.0, 0.2, 0.0, 0.1)))
    _refused(lambda: checks._axial_transforms(nu, np.array([0.1, r]), np.array([1.0, alpha]), x),
             lambda: subgroups.axial_transform(AnisotropySpec(UnitVector3(*TILT), r),
                                               AxialParams(alpha), FourVector(1.0, 0.2, 0.0, 0.1)),
             1)


def test_batched_boundary_refuses_an_image_or_a_current_that_overflows():
    nu, n = checks._directions(_rows(Z, Z)), checks._directions(_rows(E_X.to_json(), E_X.to_json()))
    big = (1.5e308, 0.0, 0.0, -1.5e308)
    x = checks._events(_rows((1.0, 0.0, 0.0, 0.0), big))
    _refused(lambda: checks._abelian_transforms(nu, n, np.array([0.5, 2.0]), x),
             lambda: subgroups.abelian_transform(NU_Z, AbelianParams(E_X, 2.0), FourVector(*big)), 1)
    m = checks._boost_matrices(nu, checks._param_rows(_rows(Z, Z), np.array([0.5, 20.0])))
    far = checks._events(_rows((1.0, 0.0, 0.0, 0.0), (1e300, 0.0, 0.0, 1e300)))
    _refused(lambda: checks._matrix_images(m, far),
             lambda: boost.apply_matrix(m[1], FourVector(1e300, 0.0, 0.0, 1e300)), 1)
    psi = np.array([[1.0, 0.5j, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0]], dtype=complex)
    _refused(lambda: checks._currents(psi), lambda: spinor.bilinear_current(psi[1]), 1)
    psi[1, 2] = np.inf
    _refused(lambda: checks._currents(psi), lambda: spinor.bilinear_current(psi[1]), 1)


def test_batched_params_name_the_first_row_refused():
    """The first row that BoostParams(UnitVector3(*n), alpha) refuses, by its
    direction or else by its rapidity, whichever check refuses it."""
    n = _rows(GOOD, (0.0, 0.6, 0.81))
    _refused(lambda: checks._param_rows(n, np.array([np.inf, 1.0])),
             lambda: BoostParams(UnitVector3(*GOOD), np.inf), 0)
    _refused(lambda: checks._param_rows(n[::-1], np.array([1.0, np.inf])),
             lambda: BoostParams(UnitVector3(0.0, 0.6, 0.81), 1.0), 0)
    _refused(lambda: checks._param_rows(_rows(GOOD, GOOD, (0.0, np.nan, 1.0)),
                                        np.array([1.0, np.nan, 2.0])),
             lambda: BoostParams(UnitVector3(*GOOD), np.nan), 1)


def test_batched_intervals_in_the_light_cone_band():
    """Lightlike events off the ray along nu at r >= 0 and on it at r < 0
    (0.0), a spacelike event at a whole r, and ordinary rows."""
    nu = _rows(Z, Z, Z, TILT, Z, Z, TILT)
    x = _rows((1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0), (3.0, 0.0, 0.0, 3.0), (2.0, 0.3, -0.4, 1.1),
              (1.0, 2.0, 0.0, 0.0), (1.0, 0.0, 0.6, 0.8 + 1e-12), (1e-150, 0.0, 0.0, 1e-150))
    r = np.array([0.3, -0.5, -0.9, 0.7, 2.0, 0.0, 2.5])
    _agree_intervals(nu, r, x)
    got = checks._finsler_intervals(checks._directions(nu), r, checks._events(x)).tolist()
    assert got[:3] == [0.0, 0.0, 0.0] and got[3] > 0.0 and got[4] < 0.0 and got[6] == 0.0


def test_batched_invariants_at_special_points():
    """nu along an axis and tilted, r = 0 and both signs, a bispinor whose
    density is small against |psi|^2, and tiny and large bispinors."""
    nu = _rows(Z, TILT, TILT, Z, Z, PERP_NU)
    r = np.array([0.0, 0.3, -0.9, 0.9, -0.2, 0.5])
    psi = np.array([[1.0, 0.5j, 0.2, 0.1 - 0.3j], [0.3 + 0.1j, -0.7j, 0.2, 0.1],
                    [1.0, 0.0, 0.999999, 0.0], [1e-150, 0.0, 3e-151j, 0.0],
                    [1e150, 0.0, 0.0, -2e149], [-0.0, 1.0, 0.0, 0.5j]], dtype=complex)
    v = _rows((0.1, 0.2, -0.3), (0.0, 0.0, 0.0), (0.0, 0.5, 0.1), (0.0, 0.0, 0.9), (0.3, 0.0, 0.0),
              (0.48, 0.64, 0.0))
    _agree_invariants(nu, r, v, psi)


def test_batched_velocity_space_at_special_points():
    """A frame at rest (the identity), velocities along nu (cylinder level
    0), at rest and near the edge."""
    nu = _rows(Z, Z, TILT, PERP_NU, Z)
    rest = _rows(*[(0.0, 0.0, 0.0)] * 5)
    v = _rows((0.0, 0.0, 0.5), (0.0, 0.0, -0.0), tuple(0.9 * c for c in TILT), (0.3, 0.4, 0.0),
              (0.0, 0.6, -0.79999999))
    w = _rows((0.1, 0.2, -0.3), (0.0, 0.0, 0.9999999), (0.0, 0.5, 0.1), (0.0, 0.0, 0.0),
              (0.6, 0.0, 0.7))
    for frame in (rest, v, w):
        _agree_velocity_space(nu, frame, v, w)
    moved = checks._induced_motions(checks._directions(nu), checks._velocities(rest),
                                    checks._velocities(v))
    assert np.array_equal(np.stack(moved, axis=1), v)  # -0.0 comes back as 0.0
    assert checks._cylinder_levels(checks._directions(nu), checks._velocities(v)).tolist()[:3] == [
        0.0, 0.0, 0.0]


def _spec_rows(bad_nu, bad_r):
    nu = checks._directions(_rows(Z, TILT, bad_nu))
    return nu, np.array([0.1, -0.4, bad_r])


@pytest.mark.parametrize("event, r, error", [
    ((1.0, 1.0, 0.0, 0.0), -0.5, DegenerateRatio),
    ((1.0, 5.0, 0.0, 1.0), -1.0, DegenerateRatio),
    ((0.5, 1.0, 0.0, 0.0), 0.3, SpacelikeInput),
    ((1e200, 0.0, 0.0, 0.0), 0.3, OutOfRange),
    ((1.2e154, 1.2e154, 0.0, 0.0), 0.3, OutOfRange),
    ((1e150, 0.0, 0.0, 5e149), -20.0, OutOfRange),
    ((2.0, 0.0, 0.0, 1.0), -1000.0, OutOfRange),
])
def test_batched_boundary_refuses_an_interval(event, r, error):
    """Off the ray along nu on the light cone at r < 0, a vanishing ratio at
    r < 0, a spacelike event at a fractional r, a square, the weight or the
    interval that overflows."""
    spec, x = AnisotropySpec(NU_Z, r), FourVector(*event)
    with pytest.raises(error):
        core.finsler_interval_sq(x, spec)
    nu, rs = _spec_rows(Z, r)
    rows = checks._events(_rows((1.0, 0.0, 0.0, 0.0), (2.0, 0.5, 0.0, 0.1), event))
    _refused(lambda: checks._finsler_intervals(nu, rs, rows),
             lambda: core.finsler_interval_sq(x, spec), 2)


# a = 1e-153 and b = a (1 - 1e-9): |u - sigma_z l|^2 = (a - b)^2 underflows to
# 0, while psibar psi = a^2 - b^2 is above the null band
TINY = 1e-153


@pytest.mark.parametrize("psi, r, error", [
    ((1.0, 0.0, 1.0, 0.0), 0.3, NullDensity),
    ((0.0, 0.0, 0.0, 0.0), -0.3, NullDensity),
    ((TINY, 0.0, TINY * (1.0 - 1e-9), 0.0), 0.3, DegenerateRatio),
    ((1e200, 0.0, 0.0, 0.0), 0.3, OutOfRange),
    ((0.0, 1e200j, 0.0, 0.0), 0.3, OutOfRange),
    ((9e153, 0.0, -9e153, 0.0), 0.3, OutOfRange),  # |psi|^2 is finite, the numerator is not
    ((2e150, 0.0, 1e150, 0.0), 6.0, OutOfRange),
    ((2.0, 0.0, 1.0, 0.0), 1e3, OutOfRange),
])
def test_batched_boundary_refuses_an_invariant(psi, r, error):
    """A null density, a current null along nu at r > 0, |psi|^2, the weight
    or the invariant that overflows."""
    spec = AnisotropySpec(NU_Z, r)
    with pytest.raises(error):
        spinor.finsler_bispinor_invariant(spec, psi)
    nu, rs = _spec_rows(Z, r)
    rows = np.array([[1.0, 0.5j, 0.2, 0.1], [0.3, -0.7j, 0.2, 0.1], psi], dtype=complex)
    _refused(lambda: checks._bispinor_invariants(nu, rs, rows),
             lambda: spinor.finsler_bispinor_invariant(spec, psi), 2)


def test_batched_boundary_refuses_a_transform_that_overflows():
    psi = (1.5e308, 0.0, 0.0, 0.0)
    spec, w = AnisotropySpec(NU_Z, 0.3), Velocity3(0.0, 0.0, 0.5)
    nu, rs = _spec_rows(Z, 0.3)
    v = checks._velocities(_rows((0.1, 0.2, -0.3), (0.0, 0.5, 0.1), (0.0, 0.0, 0.5)))
    rows = np.array([[1.0, 0.5j, 0.2, 0.1], [0.3, -0.7j, 0.2, 0.1], psi], dtype=complex)
    _refused(lambda: checks._bispinor_transforms(nu, rs, v, rows),
             lambda: spinor.bispinor_transform(spec, w, psi), 2)


def test_batched_boundary_refuses_an_induced_motion_at_the_edge():
    """Frame and velocity near the edge on opposite sides: the image's speed
    rounds to 1."""
    u = (0.047528301845967263, -0.34993039438246537, -0.9355692275887277)
    x = (0.006153812173805526, -0.2082990557561948, 0.978045824062008)
    nu = checks._directions(_rows(Z, TILT, Z))
    frames = checks._velocities(_rows((0.1, 0.2, -0.3), (0.0, 0.0, 0.0), u))
    v = checks._velocities(_rows((0.0, 0.5, 0.1), (0.3, 0.0, 0.2), x))
    _refused(lambda: checks._induced_motions(nu, frames, v),
             lambda: velocity_space.induced_motion(NU_Z, Velocity3(*u), Velocity3(*x)), 2)
