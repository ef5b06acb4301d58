"""Desk-scale acceptance runs.

Each test drives one randomized conformance suite at full sample count and
prints a single pass/fail line on the terminal, bypassing capture, so a
plain pytest run still shows the scoreboard.
"""
from finslerboost import checks
from support import spawn

SAMPLES = 1000
SEED = 2024


def _run(capsys, number, label, suite, samples=SAMPLES):
    report = checks.run_suite(suite, seed=SEED, samples=samples)
    status = "pass" if report.passed else "FAIL"
    with capsys.disabled():
        print(
            f"acceptance {number:02d} {status}: {label} "
            f"(max deviation {report.max_deviation:.3e})"
        )
    for prop in report.properties:
        assert prop.passed, (
            f"criterion {number}: {prop.name} deviated {prop.max_deviation:.3e} "
            f"> {prop.tolerance:.1e}"
        )


def test_acceptance_01_boost_oracle(capsys):
    _run(capsys, 1, "closed-form boosts match the matrix-exponential oracle", "oracle")


def test_acceptance_02_group_closure(capsys):
    _run(capsys, 2, "composition closes and axis rapidities add", "closure")


def test_acceptance_03_metric_invariance(capsys):
    _run(capsys, 3, "anisotropic interval invariant under generalized boosts", "metric")


def test_acceptance_04_parameter_roundtrip(capsys):
    # the suite forces its first 100 samples into the near-degenerate band
    _run(capsys, 4, "parameter-velocity round trip incl. near-degenerate band",
         "roundtrip")


def test_acceptance_05_velocity_addition(capsys):
    _run(capsys, 5, "velocity addition matches composition; axis is a fixed point",
         "velocity-addition")


def test_acceptance_06_spinor_intertwining(capsys):
    _run(capsys, 6, "spin transform intertwines with the vector transform", "spinor")


def test_acceptance_07_bispinor_two_path(capsys):
    _run(capsys, 7, "bispinor closed form equals scaled spin path; density weight",
         "bispinor")


def test_acceptance_08_bispinor_invariant(capsys):
    _run(capsys, 8, "anisotropic bispinor form preserved", "bispinor-invariant")


def test_acceptance_09_subgroup_invariants(capsys):
    _run(capsys, 9, "planar subgroup invariants and axial scaling laws", "subgroups")


def test_acceptance_10_velocity_space(capsys):
    _run(capsys, 10, "velocity-space isometries and invariant level sets",
         "velocity-space")


def test_acceptance_11_branch_continuity(capsys):
    _run(capsys, 11, "closed forms match a degree-4 Taylor evaluation at |(nu.n) alpha| <= 1e-4",
         "branch")


def test_acceptance_12_cli_determinism(capsys):
    argv = ["-m", "finslerboost.cli", "check", "--seed", "7", "--samples", "50"]
    first, second = spawn(*argv), spawn(*argv)
    assert first.returncode == second.returncode == 0, (first.stderr, second.stderr)
    same = first.stdout == second.stdout
    status = "pass" if same else "FAIL"
    with capsys.disabled():
        print(f"acceptance 12 {status}: fixed-seed check reports are byte-identical")
    assert same
    assert first.stdout.strip(), "check produced no output"
