import math

import pytest

from finslerboost import checks


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


def test_negative_samples_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        checks.run_suite("closure", samples=-5)
