import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerboost import UnitVector3, checks
from finslerboost.cli import main
from support import spawn, strict_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_boost_standard_matrix(capsys):
    code, out, _ = run(
        capsys, "boost", "--nu", "0,0,1", "--r", "0", "--n", "0,0,1", "--alpha", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["matrix", "params", "velocity", "dilation"]
    m = np.array(doc["matrix"]).reshape(4, 4)
    assert m[0, 0] == pytest.approx(math.cosh(1.0), rel=1e-12)
    assert m[0, 3] == pytest.approx(-math.sinh(1.0), rel=1e-12)
    assert doc["velocity"][2] == pytest.approx(math.tanh(1.0), rel=1e-12)
    assert doc["dilation"] == pytest.approx(1.0)


def test_boost_rest_frame_identity(capsys):
    code, out, _ = run(capsys, "boost", "--nu", "0,0,1", "--r", "0.2", "--v", "0,0,0")
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(np.array(doc["matrix"]).reshape(4, 4), np.eye(4))
    assert doc["dilation"] == 1.0


def test_boost_dilation_report(capsys):
    code, out, _ = run(capsys, "boost", "--nu", "0,0,1", "--r", "1", "--v", "0.6,0,0")
    assert code == 0
    assert json.loads(out)["dilation"] == pytest.approx(1.25, rel=1e-14)


def test_boost_transforms_event(capsys):
    code, out, _ = run(
        capsys, "boost", "--nu", "0,0,1", "--r", "0", "--n", "0,0,1",
        "--alpha", "1", "--x", "1,0,0,0",
    )
    doc = json.loads(out)
    assert doc["x_prime"][0] == pytest.approx(math.cosh(1.0), rel=1e-12)
    assert doc["x_prime"][3] == pytest.approx(-math.sinh(1.0), rel=1e-12)


def test_compose_identity_and_parallel(capsys):
    code, out, _ = run(
        capsys, "compose", "--nu", "0,0,1",
        "--n1", "1,0,0", "--alpha1", "0.8", "--n2", "0,0,1", "--alpha2", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["alpha"] == pytest.approx(0.8, abs=1e-12)
    assert doc["residual"] < 1e-10

    code, out, _ = run(
        capsys, "compose", "--nu", "0,0,1",
        "--n1", "0,0,1", "--alpha1", "0.5", "--n2", "0,0,1", "--alpha2", "0.5",
    )
    doc = json.loads(out)
    assert doc["params"]["alpha"] == pytest.approx(1.0, abs=1e-12)
    assert doc["residual"] < 1e-10

    # each operand's speed rounds to 1; their composite is the identity, and
    # the float product's entries cancel: the residual is relative to its terms
    code, out, _ = run(
        capsys, "compose", "--nu", "0,0,1",
        "--n1", "0,0,1", "--alpha1", "20", "--n2=0,0,-1", "--alpha2", "20",
    )
    doc = json.loads(out)
    assert code == 0
    assert (doc["params"], doc["velocity"]) == ({"n": [0.0, 0.0, 1.0], "alpha": 0.0}, [0.0] * 3)
    assert doc["residual"] <= 1e-15


def test_invariants_trivial_event(capsys):
    code, out, _ = run(
        capsys, "invariants", "--nu", "0,0,1", "--r", "0.3", "--x", "1,0,0,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["minkowski_interval"] == 1.0
    assert doc["finsler_interval_sq"] == pytest.approx(1.0)
    assert doc["axial_invariants"] == {
        "nu_projection": 1.0,
        "interval_sq": 1.0,
        "cylinder_ratio": 0.0,
    }


def test_invariants_horosphere_velocity(capsys):
    code, out, _ = run(
        capsys, "invariants", "--nu", "0,0,1", "--r", "0.3",
        "--v", f"{2/3},0,{1/3}",
    )
    assert code == 0
    assert json.loads(out)["horosphere_level"] == pytest.approx(1.0, abs=1e-12)


def test_invariants_spacelike_event_surfaces_error(capsys):
    code, out, _ = run(
        capsys, "invariants", "--nu", "0,0,1", "--r", "0.3", "--x", "1,2,0,0"
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["axial_invariants"]["error"] == "NonTimelike"
    assert doc["finsler_interval_sq"]["error"] == "SpacelikeInput"


def test_spinor_rest_frame(capsys):
    code, out, _ = run(
        capsys, "spinor", "--nu", "0,0,1", "--r", "0.4", "--v", "0,0,0",
        "--psi", "1,0,0,0,0,0,0,0",
    )
    assert code == 0
    doc = json.loads(out)
    got = np.array([complex(re, im) for re, im in doc["psi_prime"]])
    assert np.max(np.abs(got - np.array([1, 0, 0, 0]))) < 1e-12
    assert doc["dilation"] == 1.0


def test_check_pass_and_vacuous(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "closure", "--samples", "100", "--seed", "42"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["suites"][0]["max_deviation"] < 1e-10

    code, out, _ = run(capsys, "check", "--samples", "0", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert all(s["vacuous"] for s in doc["suites"])


def test_check_negative_samples_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--suite", "closure", "--samples", "-3")
    assert code == 1
    assert out == ""
    assert "non-negative" in err


def test_check_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--seed", "-1", "--samples", "2")
    assert code == 1
    assert out == ""
    assert "--seed must be non-negative, got -1" in err


def _cli_with_imports(*argv):
    """A fresh `python -m finslerboost.cli *argv` under -X importtime, and
    the top-level packages it imported."""
    proc = spawn("-X", "importtime", "-m", "finslerboost.cli", *argv)
    names = {
        line.rsplit("|", 1)[-1].strip().split(".")[0]
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    assert "finslerboost" in names, proc.stderr
    return proc, names


def test_no_command_imports_scipy():
    """The suites' oracle is checks.expm; every other command is started in
    test_cli_bytes_do_not_depend_on_numpy_being_loaded."""
    assert callable(checks.expm)
    proc, names = _cli_with_imports(
        "check", "--suite", "oracle", "--suite", "spinor", "--samples", "5"
    )
    assert proc.returncode == 0
    assert "scipy" not in names


def test_check_unknown_suite_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--suite", "closure", "--suite", "nope")
    assert code == 1
    assert out == ""
    assert "'nope'" in err
    assert all(name in err for name in checks.SUITES)


# Every command, both ways of giving a boost, with and without an event, a
# rapidity in the near-zero band |nu.n alpha| < 1e-4, and both surface
# families in both formats.
REPLAY = (
    ["boost", "--nu=0.3,-0.4,0.8", "--r=0.37", "--n=0.2,0.9,-0.1", "--alpha=1.7"],
    ["boost", "--nu=0.3,-0.4,0.8", "--r=-0.6", "--n=-0.5,0.1,0.7", "--alpha=-2.3",
     "--x=1.9,0.3,-0.7,0.2"],
    ["boost", "--nu=0,0,1", "--r=0.8", "--v=0.31,-0.52,0.44"],
    ["boost", "--nu=0,0,1", "--r=-0.25", "--v=-0.2,0.1,-0.6", "--x=2.5,-1.1,0.4,0.9"],
    ["boost", "--nu=0,0,1", "--r=0.5", "--n=1,0,0.00002", "--alpha=2.5",
     "--x=1.2,0.1,0.2,0.3"],
    ["compose", "--nu=0.3,-0.4,0.8", "--n1=0.2,0.9,-0.1", "--alpha1=1.7",
     "--v2=0.31,-0.52,0.44"],
    ["compose", "--nu=0,0,1", "--v1=-0.2,0.1,-0.6", "--n2=0.6,0.8,0", "--alpha2=-0.9"],
    ["invariants", "--nu=0.3,-0.4,0.8", "--r=0.37", "--x=2.1,0.3,-0.7,0.2",
     "--v=0.31,-0.52,0.44", "--psi=0.9,-0.3,0.2,0.7,-0.4,0.1,0.25,-0.6"],
    ["invariants", "--nu=0,0,1", "--r=0.3", "--x=1,2,0,0"],
    ["spinor", "--nu=0.3,-0.4,0.8", "--r=-0.45", "--v=0.31,-0.52,0.44",
     "--psi=0.9,-0.3,0.2,0.7,-0.4,0.1,0.25,-0.6"],
    ["surface", "--nu=0.3,-0.4,0.8", "--family=horosphere", "--level=1.7",
     "--resolution=5x4", "--format=csv"],
    ["surface", "--nu=0.3,-0.4,0.8", "--family=horosphere", "--level=0.6",
     "--resolution=4x6", "--extent=1.5", "--format=json"],
    ["surface", "--nu=0,0,1", "--family=cylinder", "--level=0.8", "--resolution=6x5",
     "--format=csv"],
    ["surface", "--nu=0.3,-0.4,0.8", "--family=cylinder", "--level=1.3",
     "--resolution=4x7", "--format=json"],
)


def test_cli_bytes_do_not_depend_on_numpy_being_loaded(tmp_path, capsys):
    """In process, numpy is loaded; a fresh `python -m finslerboost.cli`
    imports neither numpy nor scipy, nor dataclasses and inspect, which the
    value types do without.  Both must exit with the same code and print and
    write the same bytes."""
    assert "numpy" in sys.modules
    for i, argv in enumerate(REPLAY):
        path = tmp_path / f"out-{i}"
        argv = argv + [f"--output={path}"] if argv[0] == "surface" else argv
        code = main(argv)
        out = capsys.readouterr().out.encode()
        strict_json(out)
        written = path.read_bytes() if argv[0] == "surface" else None
        if written is not None:
            path.unlink()
        proc, names = _cli_with_imports(*argv)
        assert (proc.returncode, proc.stdout) == (code, out), argv
        assert not {"numpy", "scipy", "dataclasses", "inspect"} & names, (argv, names)
        if written is not None:
            assert path.read_bytes() == written, argv
    # the fifth boost is in the near-zero band
    assert abs(UnitVector3.normalized((1.0, 0.0, 2e-5)).z * 2.5) < 1e-4


def test_check_determinism(capsys):
    _, first, _ = run(capsys, "check", "--suite", "metric", "--samples", "50", "--seed", "9")
    _, second, _ = run(capsys, "check", "--suite", "metric", "--samples", "50", "--seed", "9")
    assert first == second


def test_surface_export(tmp_path, capsys):
    out_csv = tmp_path / "h.csv"
    code, out, _ = run(
        capsys, "surface", "--nu", "0,0,1", "--family", "horosphere",
        "--level", "1", "--resolution", "8x8", "--output", str(out_csv),
    )
    assert code == 0
    assert json.loads(out)["points"] == 64
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "vx,vy,vz,level"
    assert len(lines) == 65

    out_json = tmp_path / "c.json"
    code, out, err = run(
        capsys, "surface", "--nu", "0,0,1", "--family", "cylinder",
        "--level", "0", "--resolution", "5x6", "--output", str(out_json),
        "--format", "json",
    )
    assert code == 0
    assert "degenerates" in err
    assert "the 6 columns of --resolution are not used" in err
    doc = json.loads(out_json.read_text())
    assert doc["family"] == "cylinder"
    assert len(doc["points"]) == 5


def test_surface_out_of_range(tmp_path, capsys):
    # level 1e8: the sampled points no longer re-evaluate to the level
    path = tmp_path / "x.csv"
    for family, level in (("horosphere", "-1"), ("horosphere", "1e8"), ("cylinder", "1e8")):
        code, out, err = run(
            capsys, "surface", "--nu", "0,0,1", "--family", family,
            "--level", level, "--resolution", "4x4", "--output", str(path),
        )
        assert (code, out) == (2, ""), (family, level)
        assert err.startswith("finslerboost: OutOfRange: ") and err.count("\n") == 1
        assert not path.exists()


def test_usage_errors(capsys):
    code, _, err = run(capsys, "boost", "--nu", "0,0,1", "--r", "0")
    assert code == 1
    code, out, err = run(capsys, "invariants", "--nu", "0,0,1", "--r", "0.3")
    assert (code, out) == (1, "")
    assert err == "finslerboost: error: nothing to compute: give --x, --v or --psi\n"
    with pytest.raises(SystemExit) as exc:
        main(["surface", "--nu", "0,0,1", "--family", "horosphere", "--level", "1",
              "--output", "/tmp/x", "--format", "xml"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["boost", "--nu", "1,2", "--r", "0", "--alpha", "1", "--n", "0,0,1"])
    assert exc.value.code == 1


@pytest.mark.parametrize("grid", ["0x3", "3x-1", "3x0", "abc", "3"])
def test_malformed_resolution_is_usage_error(grid, tmp_path, capsys):
    path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["surface", "--nu", "0,0,1", "--family", "horosphere", "--level", "1",
              f"--resolution={grid}", "--output", str(path)])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert f"argument --resolution: bad resolution {grid!r}" in err
    assert not path.exists()


_SURFACE = ["surface", "--family", "horosphere", "--output", "unused.csv"]


@pytest.mark.parametrize("argv, option, value", [
    (["boost", "--nu=0,0,1", "--r=nan", "--v=0,0,0"], "--r", "nan"),
    (["boost", "--nu=0,0,1", "--r=-inf", "--v=0,0,0"], "--r", "-inf"),
    (["boost", "--nu=0,0,1", "--r=0", "--n=0,0,1", "--alpha=nan"], "--alpha", "nan"),
    (["boost", "--nu=0,0,1", "--r=0", "--n=0,0,1", "--alpha=1e400"], "--alpha", "1e400"),
    (["compose", "--nu=0,0,1", "--n1=0,0,1", "--alpha1=inf", "--n2=1,0,0", "--alpha2=1"],
     "--alpha1", "inf"),
    (["compose", "--nu=0,0,1", "--n1=0,0,1", "--alpha1=1", "--n2=1,0,0", "--alpha2=nan"],
     "--alpha2", "nan"),
    (["invariants", "--nu=0,0,1", "--r=inf", "--x=1,0,0,0"], "--r", "inf"),
    (["spinor", "--nu=0,0,1", "--r=nan", "--v=0,0,0", "--psi=1,0,0,0,0,0,0,0"], "--r", "nan"),
    (_SURFACE + ["--nu=0,0,1", "--level=inf"], "--level", "inf"),
    (_SURFACE + ["--nu=0,0,1", "--level=1", "--extent=nan"], "--extent", "nan"),
    (_SURFACE + ["--nu=0,0,1", "--level=1", "--extent=inf"], "--extent", "inf"),
    (["boost", "--nu=0,nan,1", "--r=0", "--v=0,0,0"], "--nu", "0,nan,1"),
    (["boost", "--nu=0,0,1", "--r=0", "--v=inf,0,0"], "--v", "inf,0,0"),
    (["boost", "--nu=0,0,1", "--r=0", "--v=0,0,0", "--x=1,0,0,-inf"], "--x", "1,0,0,-inf"),
    (["compose", "--nu=0,0,1", "--n1=0,0,1", "--alpha1=1", "--n2=0,inf,1", "--alpha2=1"],
     "--n2", "0,inf,1"),
    (["invariants", "--nu=0,0,1", "--r=0", "--psi=1,0,0,0,0,nan,0,0"],
     "--psi", "1,0,0,0,0,nan,0,0"),
    # the value as a separate token
    (["boost", "--nu=0,0,1", "--r=0", "--n=0,0,1", "--alpha", "-inf"], "--alpha", "-inf"),
    (["boost", "--nu=0,0,1", "--r=0", "--n=0,0,1", "--alpha", "-nan"], "--alpha", "-nan"),
    (["boost", "--nu=0,0,1", "--r", "-Infinity", "--v=0,0,0"], "--r", "-Infinity"),
])
def test_non_finite_number_is_usage_error(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert f"argument {option}: " in err and repr(value) in err


@pytest.mark.parametrize("argv, option, value", [
    (["boost", "--nu=0,0,1", "--r", "abc", "--v=0,0,0"], "--r", "abc"),
    (["boost", "--nu=0,0,1", "--r=0", "--v", "1,x,0"], "--v", "1,x,0"),
])
def test_non_numeric_value_is_usage_error(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert f"argument {option}: " in err and repr(value) in err


@pytest.mark.parametrize("extra", [["--n=1,0,0"], ["--alpha=1"]])
def test_velocity_with_direction_or_rapidity_is_usage_error(extra, capsys):
    code, out, err = run(capsys, "boost", "--nu=0,0,1", "--r=0", "--v=0.1,0,0", *extra)
    assert (code, out) == (1, "")
    assert err == "finslerboost: error: give either (n, alpha) or v, not both\n"


def test_surface_into_a_missing_directory_is_domain_error(tmp_path, capsys):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, "surface", "--nu=0,0,1", "--family=horosphere",
                         "--level=1", f"--output={path}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error writing {path}: ")
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [
    ["boost", "--nu=0,0,0", "--r=0.2", "--n=1,0,0", "--alpha=1"],
    ["boost", "--nu=0,0,1", "--r=0.2", "--n=0,0,0", "--alpha=1"],
], ids=["nu", "n"])
def test_zero_direction_is_zero_velocity(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "finslerboost: ZeroVelocity: cannot normalize the zero vector\n"


def test_overflowing_rapidity_is_domain_error(capsys):
    # (nu.n) alpha beyond the range of expm1 on either side of the axis
    for n in ("0,0,1", "0,0,-1"):
        code, out, err = run(
            capsys, "boost", "--nu", "0,0,1", "--r", "0", "--n", n, "--alpha", "800"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("finslerboost: ")


@pytest.mark.parametrize("argv, message", [
    (["invariants", "--nu=0,0,1", "--r=0.5", "--x=1e200,0,0,0"],
     "event [1e+200, 0.0, 0.0, 0.0] overflows its squared size"),
    (["invariants", "--nu=0,0,1", "--r=0.5", "--x=1e200,0,0,1e200"],
     "event [1e+200, 0.0, 0.0, 1e+200] overflows its squared size"),
    (["invariants", "--nu=0,0,1", "--r=0.5", "--psi=1e200,0,0,0,0,0,0,0"],
     "density is not finite"),
    (["surface", "--nu=0,0,1", "--family=horosphere", "--level=1e-310"],
     "horosphere level = 1e-310 overflows"),
    # D = e^{709.5} and 1 + c0 = cosh(15) are finite, their product is not
    (["boost", "--nu=0,0,1", "--r=-47.3", "--n=0,0,1", "--alpha=15"],
     "anisotropy r = -47.3 with rapidity alpha = 15.0 overflows the generalized boost"),
    (["spinor", "--nu=0,0,1", "--r=65", "--v=0,0,0.999999", "--psi=1,0,0,0,0,0,0,0"],
     "anisotropy r = 65.0 overflows the bispinor transform at velocity [0.0, 0.0, 0.999999]"),
    # -r (nu.n) alpha and -1.5 r overflow to inf: exp and pow return inf with no error
    (["boost", "--nu=0,0,1", "--r=-1.5e308", "--n=0,0,1", "--alpha=2"],
     "anisotropy r = -1.5e+308 overflows its scale factor"),
    (["spinor", "--nu=0,0,1", "--r=1.5e308", "--v=0,0,0.5", "--psi=1,0,0,0,0,0,0,0"],
     "anisotropy r = 1.5e+308 overflows its scale factor"),
], ids=["event-size", "ray-size", "density", "horosphere-level", "generalized-boost",
        "bispinor-transform", "generalized-boost-infinite-exponent",
        "bispinor-infinite-exponent"])
def test_non_finite_result_is_out_of_range(argv, message, capsys, tmp_path):
    path = tmp_path / "out.csv"
    argv = argv + [f"--output={path}"] if argv[0] == "surface" else argv
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"finslerboost: OutOfRange: {message}\n"
    assert not path.exists()


@pytest.mark.parametrize("n, alpha, what", [
    ("0,0,1", "25", "gives a speed that rounds to 1"),
    ("1,0,0", "1e5", "gives a speed that rounds to 1"),
    ("0,0,-1", "800", "overflows the boost coefficients"),
])
def test_rapidity_outside_the_float_domain_is_named(n, alpha, what, capsys):
    code, out, err = run(
        capsys, "boost", "--nu", "0,0,1", "--r", "0.2", "--n", n, "--alpha", alpha
    )
    assert (code, out) == (2, "")
    assert err.startswith("finslerboost: OutOfRange: rapidity alpha = ")
    assert what in err


def test_slow_frames_are_boosts_not_the_identity(capsys):
    code, out, _ = run(capsys, "boost", "--nu", "0,0,1", "--r", "0", "--v", "1e-11,0,0")
    doc = json.loads(out)
    assert code == 0 and doc["params"]["alpha"] == pytest.approx(1e-11, rel=1e-15)
    m = np.array(doc["matrix"]).reshape(4, 4)
    assert m[0, 1] == pytest.approx(-1e-11, rel=1e-15)
    code, out, _ = run(
        capsys, "compose", "--nu", "0,0,1",
        "--n1", "1,0,0", "--alpha1", "1e-11", "--n2", "0,1,0", "--alpha2", "1e-11",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["params"]["alpha"] == pytest.approx(math.sqrt(2.0) * 1e-11, rel=1e-15)
    assert doc["velocity"][:2] == pytest.approx([1e-11, 1e-11], rel=1e-15)
    assert doc["residual"] <= 1e-16


def test_boost_prints_the_dilation_of_its_matrix(capsys):
    # across the axis e^{-r (nu.n) alpha} is exactly 1, however fast the frame
    code, out, _ = run(
        capsys, "boost", "--nu", "0,0,1", "--r", "0.2", "--n", "1,0,0", "--alpha", "40"
    )
    doc = json.loads(out)
    assert code == 0 and doc["dilation"] == 1.0
    assert np.array(doc["matrix"]).reshape(4, 4)[2, 2] == 1.0
    # along it, the matrix is scaled by the printed factor
    code, out, _ = run(
        capsys, "boost", "--nu", "0,0,1", "--r", "0.2", "--n", "0,0,1", "--alpha", "1"
    )
    doc = json.loads(out)
    assert doc["dilation"] == math.exp(-0.2)
    assert np.array(doc["matrix"]).reshape(4, 4)[1, 1] == math.exp(-0.2)


SIX_COMMANDS = tuple(REPLAY[i] for i in (0, 5, 7, 9, 10)) + (
    ["check", "--suite=closure", "--samples=1"],
)


@pytest.mark.parametrize("argv", SIX_COMMANDS, ids=lambda argv: argv[0])
def test_tol_is_not_an_option(argv, tmp_path, capsys):
    if argv[0] == "surface":
        argv = argv + [f"--output={tmp_path / 'x.csv'}"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-6"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert "unrecognized arguments: --tol 1e-6" in err


def test_tol_environment_variable_is_not_read(capsys, monkeypatch):
    # a frame slower than a 1e-6 tolerance is a boost, not the identity
    argv = ["boost", "--nu", "0,0,1", "--r", "0", "--v", "1e-7,0,0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["params"]["alpha"] > 0
    monkeypatch.setenv("FINSLER_TOL", "1e-6")
    assert run(capsys, *argv) == (code, out, "")


@pytest.mark.parametrize("argv, option, value", [
    (["boost", "--nu", "0,0,1", "--v", "0.3,0,0"], "--r", "-1e-3"),
    (["boost", "--nu", "0,0,1", "--r", "0.2"], "--v", "-0.5,0,0"),
    (["boost", "--nu", "0,0,1", "--r", "0.2"], "--v", "-.5,-0.1,-2e-1"),
    (["boost", "--r", "0.2", "--v", "0.1,0,0"], "--nu", "-0,0,-1"),
    (["boost", "--nu", "0,0,1", "--r", "0.2", "--n", "0,0,1"], "--alpha", "-2.5"),
    (["compose", "--nu", "0,0,1", "--v1", "0.1,0,0", "--n2", "1,0,0"], "--alpha2", "-1E-5"),
    (["invariants", "--nu", "0,0,1", "--r", "-0.3"], "--x", "-2,1,0,0"),
    (["spinor", "--nu", "0,0,1", "--r", "0.3", "--psi", "1,0,0,0,0,0,0,0"],
     "--v", "-0.5,0,0"),
    (["surface", "--nu", "0,0,1", "--family", "horosphere", "--level", "1",
      "--resolution", "2x2", "--output", "unused.csv"], "--extent", "-1.5"),
])
def test_negative_number_as_separate_token(argv, option, value, capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    separate = run(capsys, *argv, option, value)
    joined = run(capsys, *argv, f"{option}={value}")
    assert separate == joined
    assert separate[0] == 0, separate


def _readme_cli_examples() -> list:
    """The `finslerboost ...` commands of README's CLI block, with lines
    that end in a backslash joined to the next."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("finslerboost ")]
    assert commands, "README has no CLI example"
    return commands


def test_readme_cli_examples_exit_0(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command in _readme_cli_examples():
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert (code, err) == (0, ""), command
        strict_json(out)


def test_vanishing_ratio_at_negative_r_is_a_json_error_entry(capsys):
    """t = nu.x off the light cone at r = -1: a bare ZeroDivisionError before."""
    code, out, err = run(capsys, "invariants", "--nu", "0,0,1", "--r", "-1", "--x", "1,5,0,1")
    assert (code, err) == (2, "")
    assert strict_json(out)["finsler_interval_sq"] == {
        "error": "DegenerateRatio", "message": "anisotropy r = -1.0 diverges at a vanishing ratio"
    }


def test_velocity_at_the_edge_along_nu_is_out_of_range(capsys):
    """1 - v.nu rounds below 0 for this v inside the ball: the dilation was a
    complex number that json could not print (exit 1)."""
    code, out, err = run(
        capsys, "invariants", "--nu=1.9522509436867783,-0.19672840206571665,-0.5930057969416156",
        "--r=0.3", "--v=0.9524147984923186,-0.0959748755748056,-0.28930066517593184",
    )
    assert (code, out) == (2, "")
    assert err.startswith("finslerboost: OutOfRange: velocity [0.9524147984923186, ")
    assert "meets the ball's edge along nu" in err
