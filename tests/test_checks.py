import math
import re

import mpmath
import numpy as np
import pytest

from finslerboost import AnisotropySpec, BoostParams, boost, checks, spinor
from finslerboost.subgroups import perpendicular_to


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
        nu, g = checks._unit(rng), checks._params(rng)
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
