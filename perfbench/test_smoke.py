"""Smoke test of the benchmark at tiny sizes (about two minutes).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that no operation fails on the library as it is, that the benchmark
refuses to run without the library, and that wrong or NaN results are
counted as failures by the checks, including wrong results the library's
own conformance suites would let through.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checking  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    assert line["attempted"] >= 1
    assert line["failed"] == 0 and line["correct"]
    if not trace:
        assert line["metrics"]["ok_frac"]["value"] == 1.0
        for m in SPEC["end_to_end"]:
            assert line["metrics"][m["name"]]["value"] != 0.0, m["name"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-fixed-axis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def stream(tmp_path):
    wl = workloads.StreamFixedAxis(3, str(tmp_path))
    wl.setup()
    return wl


def test_stream_counts_no_failure_on_the_library(stream):
    result = stream.run(0.0)
    assert result["attempted"] == workloads.MIN_OPS * workloads.CHUNK
    assert result["failed"] == 0


def test_stream_counts_a_wrong_result(stream, monkeypatch):
    boost = stream.fb.boost
    real = boost.add_velocities

    def off(nu, v1, v2):
        v = real(nu, v1, v2)
        return type(v)(v.vx - math.copysign(1e-9, v.vx), v.vy, v.vz)

    monkeypatch.setattr(boost, "add_velocities", off)
    result = stream.run(0.0)
    assert result["failed"] == result["attempted"] > 0


def test_stream_counts_nan_as_a_failure(stream, monkeypatch):
    monkeypatch.setattr(stream.fb.core, "finsler_interval_sq", lambda *a, **k: math.nan)
    result = stream.run(0.0)
    assert result["failed"] == result["attempted"] > 0


def test_stream_counts_an_interval_preserving_wrong_boost(stream, monkeypatch):
    import numpy as np

    # The identity keeps every interval, so only the own-arithmetic check sees it.
    monkeypatch.setattr(stream.fb.boost, "generalized_boost_matrix", lambda *a, **k: np.eye(4))
    result = stream.run(0.0)
    assert result["failed"] == result["attempted"] > 0


def test_conformance_counts_failed_and_nan_properties():
    from finslerboost import checks

    suites = list(checks.SUITES)
    reports = checks.run_all(suites, seed=1, samples=2)
    again = checks.run_suite("metric", seed=1, samples=2)
    assert checking.conformance_failures(reports, suites, 2, again) == (34, 0, [])
    prop = reports[5].properties[1]
    dev, prop.max_deviation = prop.max_deviation, 1.0
    assert checking.conformance_failures(reports, suites, 2)[1] == 1
    prop.max_deviation = math.nan
    assert checking.conformance_failures(reports, suites, 2)[1] == 1
    prop.max_deviation = dev
    # the known defect passes up to its cap, as a finding, and fails above it
    cyl = reports[9].properties[2]
    assert (reports[9].suite, cyl.name) in checking.KNOWN_DEFECTS
    cyl.max_deviation = 5e-9
    assert checking.conformance_failures(reports, suites, 2) == (
        34, 0, [("velocity-space", cyl.name, 5e-9, cyl.tolerance)])
    cyl.max_deviation = 1e-6
    assert checking.conformance_failures(reports, suites, 2)[1] == 1
    cyl.max_deviation = 0.0
    again.properties[1].max_deviation += 1e-15
    assert checking.conformance_failures(reports, suites, 2, again)[1] == 1
    assert checking.conformance_failures(reports[1:], suites, 2)[1] == 1


def test_own_checks_see_what_the_suites_drop(monkeypatch):
    import numpy as np

    import finslerboost as fb

    assert checking.own_check_failures(fb, 7) == (checking.OWN_SAMPLES, 0)
    # PropertyResult.record drops NaN, so the suites would pass this
    monkeypatch.setattr(fb.spinor, "spinor_boost", lambda *a, **k: np.full((4, 4), math.nan))
    assert checking.own_check_failures(fb, 7) == (checking.OWN_SAMPLES, checking.OWN_SAMPLES)
    monkeypatch.undo()
    real = fb.boost.generalized_boost_matrix
    monkeypatch.setattr(fb.boost, "generalized_boost_matrix",
                        lambda spec, g, *a: real(spec, g, *a) * (1 + 1e-8))
    assert checking.own_check_failures(fb, 7) == (checking.OWN_SAMPLES, checking.OWN_SAMPLES)


def test_cli_check_compares_every_byte(tmp_path):
    import numpy as np

    argv = next(workloads.cli_argvs(np.random.default_rng(5), str(tmp_path)))
    proc = subprocess.run(
        [sys.executable, "-m", "finslerboost.cli", *argv], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, check=False)
    got = (proc.returncode, proc.stdout, workloads._read_and_remove(workloads._output_path(argv)))
    want = workloads.cli_in_process(argv)
    assert not checking.cli_mismatch(got, want)
    assert checking.cli_mismatch((got[0], got[1][:-2] + b"0\n", got[2]), want)
    assert checking.cli_mismatch((2, *got[1:]), want)
