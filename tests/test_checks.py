import math
import platform
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from finslerboost import AnisotropySpec, BoostParams, UnitVector3, boost, checks, spinor
from finslerboost.subgroups import perpendicular_to
from support import spawn


def test_nan_deviation_fails_property():
    prop = checks.PropertyResult("p", 1e-10)
    prop.record(1e-12)
    prop.record(math.nan)
    prop.record(1e-13)
    prop.record(1.0)
    assert math.isnan(prop.max_deviation)
    assert not prop.passed
    assert prop.to_json()["pass"] is False

    fine = checks.PropertyResult("q", 1e-10)
    fine.record(1e-12)
    report = checks.CheckReport("s", seed=0, samples=1, properties=[fine, prop])
    assert not report.passed
    assert math.isnan(report.max_deviation)


@pytest.mark.parametrize("dev", [math.nan, math.inf])
def test_non_finite_deviation_is_null_in_json(dev):
    prop = checks.PropertyResult("p", 1e-10)
    prop.record(dev)
    report = checks.CheckReport("s", seed=0, samples=1, properties=[prop])
    assert prop.to_json()["max_deviation"] is None
    assert prop.to_json()["pass"] is False
    assert report.to_json()["max_deviation"] is None
    assert report.to_json()["pass"] is False


def test_negative_samples_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        checks.run_suite("closure", samples=-5)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        checks.run_suite("closure", seed=-1, samples=2)


def test_unknown_suite_names_the_valid_ones():
    valid = ", ".join(checks.SUITES)
    with pytest.raises(ValueError, match=re.escape(f"unknown suite 'nope'; valid suites: {valid}")):
        checks.run_suite("nope")


def _oracle_generators(rng, count, nilpotent):
    """Boost, generalized-boost and half-rapidity spinor generators drawn as
    the oracle and spinor suites draw them; the last `nilpotent` draws take
    n perpendicular to nu, where all three generators are nilpotent."""
    real, cplx = [], []
    columns = (checks._draw_directions(rng, count).tolist(),
               checks._draw_directions(rng, count).tolist(),
               checks._uniform(rng, *checks.RAPIDITY, count).tolist(),
               checks._uniform(rng, *checks.ANISOTROPY, count).tolist())
    for i, (nu_row, n_row, alpha, r) in enumerate(zip(*columns)):
        nu = UnitVector3(*nu_row)
        g = BoostParams(UnitVector3(*n_row), alpha)
        spec = AnisotropySpec(nu, r)
        if i >= count - nilpotent:
            g = BoostParams(perpendicular_to(nu), g.alpha)
        real += [
            g.alpha * boost.generator(nu, g.n),
            g.alpha * boost.generalized_generator(spec, g.n),
        ]
        cplx.append(0.5 * g.alpha * spinor.spinor_generator(nu, g.n))
    return real + [np.zeros((4, 4))], cplx + [np.zeros((4, 4), dtype=complex)]


def test_expm_against_mpmath():
    real, cplx = _oracle_generators(np.random.default_rng(2024), 45, nilpotent=5)
    worst = 0.0
    for stack in (real, cplx):
        batched = checks.expm(np.array(stack))
        assert batched.shape == (len(stack), 4, 4) and batched.dtype == stack[0].dtype
        for a, from_stack in zip(stack, batched):
            with mpmath.workdps(50):
                exact = mpmath.expm(mpmath.matrix(a.tolist()))
                scale = max(abs(x) for x in exact)
                for got in (checks.expm(a), from_stack):
                    err = max(
                        abs(exact[i, j] - complex(got[i, j]))
                        for i in range(4) for j in range(4)
                    )
                    worst = max(worst, float(err / scale))
    assert worst <= 1e-14


@pytest.mark.parametrize(
    "suite, names",
    [
        ("oracle", {"boost-vs-exponential", "generalized-boost-vs-exponential"}),
        ("spinor", {"closed-form-vs-exponential"}),
    ],
)
def test_exponential_paired_with_its_own_sample(suite, names, monkeypatch):
    """A batch whose exponentials come back out of order must fail."""
    exact = checks.expm
    monkeypatch.setattr(checks, "expm", lambda a: exact(a)[::-1])
    props = {p.name: p for p in checks.run_suite(suite, samples=5).properties}
    assert all(not props[name].passed for name in names)
    monkeypatch.setattr(checks, "expm", exact)
    props = {p.name: p for p in checks.run_suite(suite, samples=5).properties}
    assert all(props[name].passed for name in names)


def _poisoned(monkeypatch, module, name, samples, sample):
    """Patch module.name, a batched entry point, so that each call it gets
    during the block of `sample` returns NaN in the sample's row.  The calls
    per block are counted on a one-sample run of the suite that `samples` is
    called with."""
    exact = getattr(module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return exact(*args)

    monkeypatch.setattr(module, name, counted)
    samples(1)
    per_block, calls[0] = calls[0], 0
    block, row = divmod(sample, checks.BLOCK)

    def poisoned(*args):
        calls[0] += 1
        out = exact(*args)
        if calls[0] - 1 in range(block * per_block, (block + 1) * per_block):
            out = out.copy()
            out[row] = math.nan
        return out

    monkeypatch.setattr(module, name, poisoned)


@pytest.mark.parametrize(
    "suite, module, name, prop",
    [
        # a matrix-stack property and a float-array property
        ("closure", checks, "_boost_matrices", "composition-matches-matrix-product"),
        ("metric", checks, "_finsler_intervals", "anisotropic-interval-invariance"),
        # a property divided by the poisoned D^-3, and a NaN bispinor matrix,
        # which makes psi' non-finite
        ("bispinor", checks, "_dilation_factors", "density-weight"),
        ("bispinor", checks, "_bispinor_matrices", "current-weight"),
    ],
)
@pytest.mark.parametrize("sample", [0, 2, 4, 8], ids=["first", "middle", "after-block", "last"])
def test_nan_at_one_sample_fails_its_property(suite, module, name, prop, sample, monkeypatch):
    """Blocks of 4 over 9 samples: [0, 3], [4, 7], [8].  A NaN at any one
    sample, in the first block or a later one, is the property's maximum."""
    monkeypatch.setattr(checks, "BLOCK", 4)

    def props(samples):
        return {p.name: p for p in checks.run_suite(suite, seed=3, samples=samples).properties}

    assert props(9)[prop].passed
    _poisoned(monkeypatch, module, name, props, sample)
    poisoned = props(9)[prop]
    assert math.isnan(poisoned.max_deviation)
    assert not poisoned.passed


_UNIFORM_RANGES = [(-3.0, 3.0), (-0.9, 0.9), (0.0, 3.0), (0.5, 3.0), (-1e-4, 1e-4),
                   (1e-3, 3.0), (0.1, 2.0), (-1.0, 1.0), (-2.0, 2.0), (0.0, 2.0 * math.pi)]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_draw_helpers_give_numpys_bits():
    """The suites' cheaper draws are numpy's own formulas: a numpy release
    that changed either would change every seed's inputs."""
    ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
    got, want = [], []
    for i in range(1000):
        lo, hi = _UNIFORM_RANGES[i % len(_UNIFORM_RANGES)]
        shape = (i % 7, 3) if i % 3 == 0 else 1 + i % 200
        got.append(checks._uniform(ours, lo, hi, shape).ravel())
        want.append(numpys.uniform(lo, hi, shape).ravel())
    got, want = np.concatenate(got), np.concatenate(want)
    assert got.size >= 60_000
    assert np.array_equal(_bits(got), _bits(want))

    for shape in ((1000, 3), (1000, 4)):
        ours, numpys = np.random.default_rng(12), np.random.default_rng(12)
        got = np.concatenate([ours.standard_normal(shape).ravel() for _ in range(30)])
        want = np.concatenate([numpys.normal(size=shape).ravel() for _ in range(30)])
        assert got.size >= 90_000
        assert np.array_equal(_bits(got), _bits(want))


class _Scripted:
    """numpy's generator, but the first standard_normal calls return the
    given rows in row 0: inputs that real draws do not give."""

    def __init__(self, seed, *rows):
        self.rng = np.random.default_rng(seed)
        self.rows = list(rows)
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        out = self.rng.standard_normal(shape)
        if self.rows:
            out[0] = self.rows.pop(0)
        return out

    def random(self, shape):
        return self.rng.random(shape)


def test_short_direction_rows_are_drawn_again():
    """A zero row, then a row of norm 1e-9, is refused and drawn again; the
    other rows keep their first draw."""
    scripted = _Scripted(4, [0.0, 0.0, 0.0], [1e-9, 0.0, 0.0])
    a = checks._draw_directions(scripted, 5)
    assert scripted.shapes == [(5, 3), (1, 3), (1, 3)]
    checks._directions(a)
    plain = np.random.default_rng(4).standard_normal((5, 3))
    assert np.array_equal(a[1:], plain[1:] / np.linalg.norm(plain[1:], axis=1)[:, None])


def test_thin_bispinor_rows_are_drawn_again():
    """A row with psibar psi = 0 (re = (1, 0, 1, 0), im = 0) is refused and
    drawn again, its real parts then its imaginary parts."""
    scripted = _Scripted(5, [1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0])
    psi = checks._draw_dense_bispinors(scripted, 5)
    assert scripted.shapes == [(5, 4), (5, 4), (1, 4), (1, 4)]
    assert np.all(abs(spinor._density(tuple(psi.T))) > 0.1)
    plain = np.random.default_rng(5)
    first = plain.standard_normal((5, 4)) + 1j * plain.standard_normal((5, 4))
    assert np.array_equal(psi[1:], first[1:])
    assert np.array_equal(psi[0], plain.standard_normal(4) + 1j * plain.standard_normal(4))


def test_column_draws_are_in_their_domains():
    rng = np.random.default_rng(6)
    checks._directions(checks._draw_directions(rng, 20_000))
    checks._velocities(checks._draw_velocities(rng, 20_000))  # every speed below 1
    assert np.all(checks._intervals(checks._events(checks._draw_events(rng, 20_000))) > 0.0)
    psi = checks._draw_dense_bispinors(rng, 20_000)
    assert np.all(abs(spinor._density(tuple(psi.T))) > 0.1)
    alpha, s, _ = checks._draw_band(rng, 20_000)
    assert np.all((0.5 <= alpha) & (alpha < 3.0) & (abs(s * alpha) < 1e-4))


def _traced_peak(suite, samples):
    tracemalloc.start()
    try:
        checks.run_suite(suite, seed=5, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite", ["oracle", "spinor"])
def test_suite_memory_does_not_grow_with_samples(suite):
    """Deviations are reduced block by block, so 2.5 times the samples
    does not hold 2.5 times the matrices."""
    checks.run_suite(suite, samples=2)
    assert _traced_peak(suite, 2500) <= 1.5 * _traced_peak(suite, 1000)


def _row_by_row(rng, samples, draw, reduce):
    """checks._blockwise with the same draws, reduced one sample at a time."""
    for start in range(0, samples, checks.BLOCK):
        columns = draw(rng, min(checks.BLOCK, samples - start))
        for i in range(len(columns[0])):
            reduce(*(c[i:i + 1] for c in columns))


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_reports_do_not_depend_on_the_block_size(suite, monkeypatch):
    """Stacked reductions give the bits of sample-by-sample ones: the same
    draws reduced in blocks of one sample are the per-sample reference."""
    stacked = checks.run_suite(suite, seed=8, samples=30)
    monkeypatch.setattr(checks, "_blockwise", _row_by_row)
    assert checks.run_suite(suite, seed=8, samples=30) == stacked


def test_roundtrip_band_switch_inside_a_block(monkeypatch):
    """The roundtrip suite draws its first 100 samples in the near-zero band.
    In blocks of 64 over 300 samples that switch falls inside the second
    block, whose band rows get their directions by selection."""
    monkeypatch.setattr(checks, "BLOCK", 64)
    bands = []

    def blockwise(rng, samples, draw, reduce):
        def drawn(rng, count):
            columns = draw(rng, count)
            bands.append(columns[-1])
            return columns

        _row_by_row(rng, samples, drawn, reduce)

    monkeypatch.setattr(checks, "_blockwise", blockwise)
    by_row = checks.run_suite("roundtrip", seed=8, samples=300)
    assert [int(b.sum()) for b in bands] == [64, 36, 0, 0, 0]
    assert np.array_equal(np.concatenate(bands), np.arange(300) < 100)
    monkeypatch.undo()
    monkeypatch.setattr(checks, "BLOCK", 64)
    assert checks.run_suite("roundtrip", seed=8, samples=300) == by_row


# Check seeds of the conformance benchmark (seeds 401, 408 and 410) whose
# drawn bispinors have a psibar psi that cancels: a density weight divided by
# it fails its 1e-10 there on some of OpenBLAS's x86-64 kernels.
DENSITY_SEEDS = (401002532, 408002434, 410001962)
VERDICT_SCRIPT = f"""
from finslerboost import checks
print({{seed: checks.run_suite("bispinor", seed, 50).passed for seed in {DENSITY_SEEDS}}})
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
@pytest.mark.parametrize("coretype", ["Prescott", "Nehalem", "Haswell"])
def test_bispinor_passes_on_every_blas_kernel(coretype):
    proc = spawn("-c", VERDICT_SCRIPT, OPENBLAS_CORETYPE=coretype)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == str(dict.fromkeys(DENSITY_SEEDS, True))


# Hard bispinor inputs, pinned as (nu, r, v, re psi, im psi): at each seed and
# sample count where the bispinor suite's density weight was once measured on
# a sampled psibar psi (check seed 9 at 10,000 samples and the DENSITY_SEEDS
# at 50), the row of the worst density weight and the row of the smallest
# |psibar psi| / |psi|^2, as the suite drew them before it drew by column.
HARD_BISPINORS = [
    # seed 9, sample 9101 (worst) and 9041 (|psibar psi| / |psi|^2 = 4.3e-7)
    ([0.28378232661887126, -0.03137733603540483, 0.9583752156030024], -0.1824509912593083,
     [0.25846115121485486, 0.012568376045538607, 0.9607888148993055],
     [0.06830647985751762, -0.535637151694753, 1.2422741798263819, 0.14734326828558722],
     [-0.4645144604841224, -0.36051783246016506, -0.4257241547947038, -0.24450464625559598]),
    ([-0.1066776372831805, -0.8997453057763095, -0.42317640108726934], -0.8435013752349925,
     [0.7167147980863017, 0.10656991068662035, 0.06250299978748662],
     [-0.3017947852399761, 0.5174515443711641, -1.155483647759423, -0.20067592177366902],
     [1.1610083310717905, 0.2104857898535654, 0.475411424584015, -0.3868462214524171]),
    # seed 401002532, samples 17 and 30 (4.1e-6)
    ([0.16073249196473222, -0.559574655719663, 0.8130444457119353], -0.4732603450100147,
     [0.3517951955543547, -0.4416979278873949, 0.8135010743252554],
     [0.6174558902443246, 0.33587560820979234, -1.0813577494674358, -0.6559787446919926],
     [0.06530083233196524, -0.6427234100956959, -0.3445876651439011, -0.14212227296808883]),
    ([0.7749537224963102, 0.6146514989754651, 0.1471402827111788], 0.1307538898800381,
     [-0.08051972537279627, -0.6013094694275881, 0.7832582437590131],
     [-0.3219959629346132, -0.5653897055362357, 1.270868726587694, 0.14444814668105832],
     [1.1459842934174176, 0.1064518100660392, -0.3326119514397515, 0.037011623201602305]),
    # seed 408002434, samples 9 and 5 (3.6e-6)
    ([-0.8068537371777385, -0.546447117166083, 0.22446067571669223], 0.568806635435645,
     [-0.5284333165852357, -0.807709712360833, 0.22055700843337814],
     [0.3265567532988828, 0.49120370800876356, -1.486837764732348, 1.3305331047695244],
     [-0.09279219978835403, -0.020008417139345282, 1.3635177601238777, 0.4943325827771348]),
    ([0.40166229804142983, 0.8929981538617573, -0.20303126737419214], 0.6972268823926052,
     [0.10672805110060068, -0.23616307531736272, -0.9602199315266862],
     [0.7030227697043306, 1.2056298511396673, -0.08250353040419806, -0.7643841403720153],
     [0.20013091886103043, -0.29096743994926844, -0.22703066814639225, 1.1957638202485832]),
    # seed 410001962, samples 36 and 1 (2.5e-6)
    ([-0.056972910529269616, -0.3546703615609039, 0.9332539965604656], 0.18114030609291187,
     [-0.3174765038127268, -0.28488063017492754, 0.8971681435889497],
     [0.49068893450065865, -0.3219107412820471, -0.7407819768548888, 0.2882406517181921],
     [-0.09690718727365577, 0.46452167169846625, -1.5119801565223872, 1.1139587326126326]),
    ([-0.9920911264256752, -0.029788994707488557, -0.12193364040227839], 0.8715962258099125,
     [0.10251225759299555, 0.214823467031113, 0.892811993260088],
     [-1.0602495720882674, -0.8675538962900805, 0.5182550880627682, 0.25922355986516493],
     [0.16239911828101863, 1.1667407987817868, 0.5923035145968656, 1.6055666328000235]),
]


def test_bispinor_weights_hold_on_the_hard_rows():
    nu, r, v, re, im = (np.array(column) for column in zip(*HARD_BISPINORS))
    two, rho, cur = checks._bispinor_deviations(nu, r, v, re + 1j * im)
    assert np.all(two <= 1e-9) and np.all(rho <= 1e-10) and np.all(cur <= 1e-10), (two, rho, cur)
    density = spinor._density(tuple((re + 1j * im).T)) / np.sum(re * re + im * im, axis=1)
    assert np.sum(abs(density) < 1e-5) == 4  # the rows that cancel are still there


def _density_weight():
    props = checks.run_suite("bispinor", seed=3, samples=50).properties
    return next(p for p in props if p.name == "density-weight")


def test_density_weight_sees_a_scaled_bispinor_matrix(monkeypatch):
    """B scaled by 1 + delta gives gamma^0 B^dagger gamma^0 B = (1 + delta)^2 D^-3 I:
    a deviation of 2 delta, which fails the 1e-10 tolerance at delta = 1e-9."""
    assert _density_weight().passed
    exact = checks._bispinor_matrices
    monkeypatch.setattr(checks, "_bispinor_matrices", lambda *args: exact(*args) * (1.0 + 1e-9))
    scaled = _density_weight()
    assert not scaled.passed
    assert scaled.max_deviation == pytest.approx(2e-9, rel=1e-3)
