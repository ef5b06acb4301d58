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
    for i in range(count):
        nu = UnitVector3(*checks._direction(rng))
        g = BoostParams(UnitVector3(*checks._direction(rng)), checks._alpha(rng))
        spec = AnisotropySpec(nu, checks._aniso(rng))
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
    for i in range(100_000):
        lo, hi = _UNIFORM_RANGES[i % len(_UNIFORM_RANGES)]
        got.append(checks._uniform(ours, lo, hi))
        want.append(numpys.uniform(lo, hi))
        if i % 10 == 0:
            got += checks._uniform(ours, lo, hi, 3)
            want += numpys.uniform(lo, hi, size=3).tolist()
    assert len(got) == len(want) >= 100_000
    assert np.array_equal(_bits(got), _bits(want))

    for n in (3, 4):
        ours, numpys = np.random.default_rng(12), np.random.default_rng(12)
        got = np.concatenate([ours.standard_normal(n) for _ in range(100_000 // n + 1)])
        want = np.concatenate([numpys.normal(size=n) for _ in range(100_000 // n + 1)])
        assert got.size >= 100_000
        assert np.array_equal(_bits(got), _bits(want))


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


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_reports_do_not_depend_on_the_block_size(suite, monkeypatch):
    """Stacked reductions give the bits of sample-by-sample ones: a block
    of one sample is the per-sample reference."""
    stacked = checks.run_suite(suite, seed=8, samples=30)
    monkeypatch.setattr(checks, "BLOCK", 1)
    assert checks.run_suite(suite, seed=8, samples=30) == stacked


def test_roundtrip_band_switch_inside_a_block(monkeypatch):
    """The roundtrip suite draws its first 100 samples in the near-zero band.
    In blocks of 64 over 300 samples that switch falls inside the second
    block, whose band rows get their directions by selection."""
    whole = checks.run_suite("roundtrip", seed=8, samples=300)
    monkeypatch.setattr(checks, "BLOCK", 64)
    assert checks.run_suite("roundtrip", seed=8, samples=300) == whole


# The bispinor suite's report, 50 samples, at the two check seeds of the
# conformance benchmark (seeds 401 and 408) where the density weight read
# 1.53e-10 and 5.04e-10 against its 1e-10 on one host.  The weight goes
# through BLAS products, whose kernel OpenBLAS picks per CPU, so the bits are
# pinned on its baseline x86-64 kernel.  There the weight reads 7.72e-11 and
# 2.16e-10: the second seed still fails.  A change that moves the suite's
# rounding moves these bits, and must say so here.
BISPINOR_TAIL = {
    401002532: ["0x1.4e131f443b669p-49", "0x1.53a64a08317c3p-34", "0x1.56c5d1820a342p-48"],
    408002434: ["0x1.d07e30022b36ep-51", "0x1.db4b31b0fee48p-33", "0x1.7224c19c227fap-50"],
}
TAIL_SCRIPT = """
from finslerboost import checks
for seed in (401002532, 408002434):
    print(seed, *[p.max_deviation.hex() for p in checks.run_suite("bispinor", seed, 50).properties])
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_bispinor_density_tail_is_pinned():
    proc = spawn("-c", TAIL_SCRIPT, OPENBLAS_CORETYPE="Prescott")
    assert proc.returncode == 0, proc.stderr.decode()
    got = {int(seed): devs for seed, *devs in map(str.split, proc.stdout.decode().splitlines())}
    assert got == BISPINOR_TAIL
