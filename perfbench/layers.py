"""Per-layer probes of a traced run that do not depend on the workload:
per-call cost of public functions on fixed inputs, per-suite conformance
time, and in-process CLI time per command."""
from __future__ import annotations

import statistics
import time

import numpy as np

import checking
import reference
import workloads

REPEATS = 5
CHECK_PASSES = 3


def per_call_us(fn, budget_s: float) -> float:
    """Median over REPEATS of the normalized mean time per call, in
    microseconds.  Each repeat makes as many calls as fit in
    budget_s / REPEATS and is normalized by the references around it."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        dt = time.perf_counter() - t0
        if dt >= 1e-3:
            break
        number *= 4
    number = max(1, int(number * budget_s / REPEATS / dt))
    reps = []
    before = reference.factor()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        dt = (time.perf_counter() - t0) / number
        after = reference.factor()
        reps.append(dt * (before + after) / 2)
        before = after
    return statistics.median(reps) * 1e6


def call_probes():
    """(metric name, zero-argument call) on fixed inputs, generic branch."""
    from finslerboost import boost, core, spinor, subgroups, velocity_space as vs

    nu = core.UnitVector3(0.0, 0.0, 1.0)
    spec = core.AnisotropySpec(nu, 0.3)
    n = core.UnitVector3(0.6, 0.0, 0.8)
    g = boost.BoostParams(n, 1.3)
    g2 = boost.BoostParams(core.UnitVector3(0.0, 0.8, -0.6), 0.7)
    v = core.Velocity3(0.3, -0.2, 0.5)
    w = core.Velocity3(-0.1, 0.4, 0.2)
    x = core.FourVector(2.0, 0.3, -0.1, 0.4)
    raw = np.array([1.0, 2.0, 2.0])
    perp = core.UnitVector3(0.6, 0.8, 0.0)
    psi = np.array([1.0 + 0.5j, -0.3j, 0.2, 0.1 - 0.4j])
    return [
        ("boost.boost_matrix_us", lambda: boost.boost_matrix(nu, g)),
        ("boost.generalized_boost_matrix_us", lambda: boost.generalized_boost_matrix(spec, g)),
        ("boost.compose_us", lambda: boost.compose(nu, g, g2)),
        ("boost.velocity_from_params_us", lambda: boost.velocity_from_params(nu, g)),
        ("boost.params_from_velocity_us", lambda: boost.params_from_velocity(nu, v)),
        ("boost.add_velocities_us", lambda: boost.add_velocities(nu, v, w)),
        ("boost.dilation_factor_us", lambda: boost.dilation_factor(spec, v)),
        ("core.finsler_interval_sq_us", lambda: core.finsler_interval_sq(x, spec)),
        ("core.UnitVector3.normalized_us", lambda: core.UnitVector3.normalized(raw)),
        ("core.Velocity3_us", lambda: core.Velocity3(0.3, -0.2, 0.5)),
        ("subgroups.abelian_transform_us",
         lambda: subgroups.abelian_transform(nu, subgroups.AbelianParams(perp, 0.9), x)),
        ("subgroups.axial_transform_us",
         lambda: subgroups.axial_transform(spec, subgroups.AxialParams(0.9), x)),
        ("velocity_space.induced_motion_us", lambda: vs.induced_motion(nu, v, w)),
        ("velocity_space.lobachevsky_distance_us", lambda: vs.lobachevsky_distance(v, w)),
        ("velocity_space.sample_surface_us",
         lambda: vs.sample_surface(nu, "horosphere", 1.0, (8, 8))),
        ("spinor.spinor_boost_us", lambda: spinor.spinor_boost(nu, g)),
        ("spinor.bispinor_matrix_us", lambda: spinor.bispinor_matrix(spec, v)),
        ("spinor.finsler_bispinor_invariant_us",
         lambda: spinor.finsler_bispinor_invariant(spec, psi)),
    ]


def check_probe(seed: int) -> tuple:
    """Per-suite seconds (median of CHECK_PASSES untraced passes at the
    benchmark's sample count), calls and seconds of the scipy expm oracle
    per pass (0 when checks has no module-level expm), and the
    (attempted, failed) properties."""
    from finslerboost import checks

    suites = list(checks.SUITES)
    expm = getattr(checks, "expm", None)
    per_suite = {name: [] for name in suites}
    expm_calls, expm_s = [], []
    attempted = failed = 0
    findings = []
    tally = [0, 0.0]

    def counted(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return expm(*args, **kwargs)
        finally:
            tally[0] += 1
            tally[1] += time.perf_counter() - t0

    if expm is not None:
        checks.expm = counted
    try:
        for p in range(CHECK_PASSES):
            tally[:] = [0, 0.0]
            reports = []
            raw = {}
            f0 = reference.factor()
            for name in suites:
                t0 = time.perf_counter()
                reports.append(checks.run_suite(
                    name, seed=workloads.pass_seed(seed, 1 + p), samples=workloads.CHECK_SAMPLES))
                raw[name] = time.perf_counter() - t0
            f = (f0 + reference.factor()) / 2
            for name, t in raw.items():
                per_suite[name].append(t * f)
            expm_calls.append(tally[0])
            expm_s.append(tally[1] * f)
            a, bad, found = checking.conformance_failures(reports, suites, workloads.CHECK_SAMPLES)
            attempted += a
            failed += bad
            findings += found
    finally:
        if expm is not None:
            checks.expm = expm
    out = {f"checks.{name}_s": (statistics.median(t), "s") for name, t in per_suite.items()}
    out["checks.expm_calls"] = (statistics.median(expm_calls), "count")
    out["checks.expm_s"] = (statistics.median(expm_s), "s")
    out["checks.failed_props"] = (len(findings), "count")
    return out, attempted, failed


def cli_probe(seed: int, outdir: str) -> tuple:
    """Median in-process cli.main time per command over the cli-oneshot mix."""
    argvs, expected = workloads.cli_commands(np.random.default_rng([seed, 3]), outdir)
    f0 = reference.factor()
    times, failed = workloads.time_cli_main(argvs, expected)
    f = (f0 + reference.factor()) / 2
    return ({"cli.main_ms": (statistics.median(times) * f * 1e3, "ms")},
            workloads.CLI_COMMANDS, failed)


def all_probes(seed: int, outdir: str, budget_s: float) -> tuple:
    """Every workload-independent layer figure: (metrics, attempted, failed)."""
    probes = call_probes()
    out = {name: (per_call_us(fn, budget_s / len(probes)), "us") for name, fn in probes}
    checks_out, a1, f1 = check_probe(seed)
    cli_out, a2, f2 = cli_probe(seed, outdir)
    out.update(checks_out)
    out.update(cli_out)
    return out, a1 + a2, f1 + f2
