"""The three benchmark workloads: seeded inputs, the timed operation, checks.

Each workload runs in a fresh worker process (worker.py).  ``setup``
imports the library and performs one warm-up operation; ``run`` times
operations for a number of seconds; ``trace`` runs a fixed amount of the
same work untraced and traced and returns the per-layer figures of the
trace.  The library only ever receives the generated inputs.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import checking
import reference
from tracing import Tracer

# At least this many timed operations per run, so that the 75th
# percentile has ten or more samples beyond it.
MIN_OPS = 40
FACTOR_WINDOW = 3
TRACE_ROUNDS = 3


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _units(rng, k) -> np.ndarray:
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _rapidities(rng, k) -> np.ndarray:
    """Uniform in [-3, 3] with |alpha| >= 1e-3, so direction round trips
    stay well conditioned."""
    return rng.choice((-1.0, 1.0), size=k) * rng.uniform(1e-3, 3.0, size=k)


def _timelike(rng, k) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, size=(k, 3))
    t = np.linalg.norm(x, axis=1) + rng.uniform(0.1, 2.0, size=k)
    return np.column_stack((t, x))


def _velocities(rng, k) -> np.ndarray:
    return np.tanh(rng.uniform(0.0, 3.0, size=k))[:, None] * _units(rng, k)


def _plane_basis(nu: np.ndarray):
    """Orthonormal e1, e2 spanning the plane orthogonal to nu."""
    pivot = np.zeros(3)
    pivot[int(np.argmin(np.abs(nu)))] = 1.0
    e1 = np.cross(nu, pivot)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(nu, e1)


def _timed_loop(seconds, op, ref=reference.factor, window=FACTOR_WINDOW):
    """Call op(i) until `seconds` have passed and MIN_OPS calls are done.

    op returns the seconds it spent in timed work.  The reference `ref`
    runs before the first call and after each one.  Returns
    (raw seconds, normalized seconds) per call.  Call i is normalized by
    the median factor of the references within FACTOR_WINDOW calls of it:
    one reference is noisy, the host's drift is slow.
    """
    raw = []
    factors = [ref()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(raw) < MIN_OPS:
        raw.append(op(len(raw)))
        factors.append(ref())
    norm = [t * statistics.median(factors[max(0, i - window):i + window + 2])
            for i, t in enumerate(raw)]
    return raw, norm


def _run_result(raw, norm, items, attempted, failed, extra=None) -> dict:
    out = {
        "op_times": norm,
        "raw_op_times": raw,
        "items": items,
        "attempted": attempted,
        "failed": failed,
    }
    out.update(extra or {})
    return out


def _traced_ratio(untraced, traced):
    """Median normalized time of TRACE_ROUNDS untraced and traced
    repetitions of the same work, alternating; returns (untraced_s,
    traced_s, tracer, factor), where factor normalizes the last traced
    repetition."""
    plain, spanned = [], []
    tracer = None
    for _ in range(TRACE_ROUNDS):
        f0 = reference.factor()
        t0 = time.perf_counter()
        untraced()
        t1 = time.perf_counter()
        f1 = reference.factor()
        tracer = Tracer()
        with tracer:
            t2 = time.perf_counter()
            traced(tracer)
            t3 = time.perf_counter()
        f2 = reference.factor()
        plain.append((t1 - t0) * (f0 + f1) / 2)
        spanned.append((t3 - t2) * (f1 + f2) / 2)
    return statistics.median(plain), statistics.median(spanned), tracer, (f1 + f2) / 2


def layer_figures(tracer, items, factor) -> dict:
    """Per-layer figures of one traced repetition; self times are
    multiplied by the normalization factor measured around it."""
    out = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s * factor, "s")
    out["core.values_built"] = (tracer.values_built / items, "count")
    out["boost.series_frac"] = (
        tracer.boost_series_calls / tracer.boost_param_calls if tracer.boost_param_calls else 0.0,
        "frac",
    )
    return out


# ---------------------------------------------------------------------------
# cli-oneshot


COMMANDS = ("boost", "compose", "invariants", "spinor", "surface")
CLI_COMMANDS = 40


def _num(x) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return ",".join(repr(float(c)) for c in v)


def _psi(rng) -> np.ndarray:
    """Bispinor with Dirac density |psibar psi| > 0.1 (Dirac representation)."""
    while True:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = abs(psi[0]) ** 2 + abs(psi[1]) ** 2 - abs(psi[2]) ** 2 - abs(psi[3]) ** 2
        if abs(rho) > 0.1:
            return np.column_stack((psi.real, psi.imag)).reshape(8)


def cli_argv(rng, outdir: str, index: int, cmd: str) -> list:
    """One seeded command line; options use --opt=value so negative
    numbers are never read as flags."""
    argv = [cmd, f"--nu={_vec(_unit(rng))}"]
    if cmd in ("boost", "invariants", "spinor"):
        argv.append(f"--r={_num(rng.uniform(-0.9, 0.9))}")
    if cmd == "boost":
        if rng.uniform() < 0.5:
            argv += [f"--n={_vec(_unit(rng))}", f"--alpha={_num(_rapidities(rng, 1)[0])}"]
        else:
            argv.append(f"--v={_vec(_velocities(rng, 1)[0])}")
        if rng.uniform() < 0.5:
            argv.append(f"--x={_vec(_timelike(rng, 1)[0])}")
    elif cmd == "compose":
        for s in ("1", "2"):
            if rng.uniform() < 0.5:
                argv += [f"--n{s}={_vec(_unit(rng))}",
                         f"--alpha{s}={_num(_rapidities(rng, 1)[0])}"]
            else:
                argv.append(f"--v{s}={_vec(_velocities(rng, 1)[0])}")
    elif cmd == "invariants":
        argv += [f"--x={_vec(_timelike(rng, 1)[0])}",
                 f"--v={_vec(_velocities(rng, 1)[0])}",
                 f"--psi={_vec(_psi(rng))}"]
    elif cmd == "spinor":
        argv += [f"--v={_vec(_velocities(rng, 1)[0])}", f"--psi={_vec(_psi(rng))}"]
    else:
        family = "horosphere" if rng.uniform() < 0.5 else "cylinder"
        low = 0.5 if family == "horosphere" else 0.1
        fmt = "csv" if rng.uniform() < 0.5 else "json"
        argv += [f"--family={family}", f"--level={_num(rng.uniform(low, 2.0))}",
                 f"--resolution={int(rng.integers(4, 9))}x{int(rng.integers(4, 9))}",
                 f"--format={fmt}",
                 f"--output={os.path.join(outdir, f'surface-{index}.{fmt}')}"]
    return argv


def cli_argvs(rng, outdir: str):
    """Endless seeded command lines in blocks of five, each block every
    command once in a seeded order.  The commands differ in cost, so a
    free draw would make the mix, and with it the percentiles, differ
    from seed to seed."""
    index = 0
    while True:
        for k in rng.permutation(len(COMMANDS)):
            yield cli_argv(rng, outdir, index, COMMANDS[k])
            index += 1


def _output_path(argv):
    for a in argv:
        if a.startswith("--output="):
            return a[len("--output="):]
    return None


def _read_and_remove(path):
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None
    finally:
        with contextlib.suppress(OSError):
            os.remove(path)


def cli_in_process(argv) -> tuple:
    """(exit code, stdout bytes, output-file bytes) of cli.main(argv)."""
    from finslerboost import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode(), _read_and_remove(_output_path(argv))


def cli_commands(rng, outdir: str) -> tuple:
    """CLI_COMMANDS seeded argvs and the in-process output of each."""
    argvs = list(itertools.islice(cli_argvs(rng, outdir), CLI_COMMANDS))
    return argvs, [cli_in_process(a) for a in argvs]


def time_cli_main(argvs, expected, tracer=None) -> tuple:
    """(seconds per command, mismatches) of in-process cli.main over argvs,
    checked against `expected`; with a tracer, spans carry the command number."""
    times, failed = [], 0
    for i, (argv, want) in enumerate(zip(argvs, expected)):
        if tracer is not None:
            tracer.record = i
        t0 = time.perf_counter()
        got = cli_in_process(argv)
        times.append(time.perf_counter() - t0)
        failed += checking.cli_mismatch(got, want)
    return times, failed


class CliOneshot:
    """Closed loop, one client: each operation is a fresh CLI process."""

    # Peak memory is that of the largest CLI process, not of the client.
    rss_of_children = True

    def __init__(self, seed: int, outdir: str):
        self.outdir = outdir
        self.seed = seed
        self.argvs = cli_argvs(np.random.default_rng([seed, 0]), outdir)
        self.warm_rng = np.random.default_rng([seed, 1])
        self.cmd = [sys.executable, "-m", "finslerboost.cli"]

    def setup(self) -> None:
        self._spawn(next(cli_argvs(self.warm_rng, self.outdir)))

    def _spawn(self, argv) -> tuple:
        """(seconds, (exit code, stdout bytes, output-file bytes))."""
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=60, check=False)
        dt = time.perf_counter() - t0
        return dt, (proc.returncode, proc.stdout, _read_and_remove(_output_path(argv)))

    def run(self, seconds: float) -> dict:
        done = []

        def op(i):
            argv = next(self.argvs)
            dt, got = self._spawn(argv)
            done.append((argv, got))
            return dt

        raw, norm = _timed_loop(seconds, op, reference.spawn_factor)
        failed = sum(checking.cli_mismatch(got, cli_in_process(argv)) for argv, got in done)
        return _run_result(raw, norm, len(raw), len(done), failed)

    def trace(self) -> dict:
        """In-process cli.main over CLI_COMMANDS commands, untraced and traced."""
        argvs, expected = cli_commands(np.random.default_rng([self.seed, 0]), self.outdir)
        failed = [0]

        def traced(tracer):
            failed[0] = time_cli_main(argvs, expected, tracer)[1]

        plain, spanned, tracer, factor = _traced_ratio(
            lambda: time_cli_main(argvs, expected), traced)
        return {"tracer": tracer, "items": CLI_COMMANDS, "untraced_s": plain,
                "traced_s": spanned, "factor": factor, "attempted": CLI_COMMANDS,
                "failed": failed[0]}


# ---------------------------------------------------------------------------
# conformance

CHECK_SAMPLES = 50


def pass_seed(seed: int, index: int) -> int:
    """Distinct check seed for every pass, so passes share no inputs."""
    return seed * 1_000_003 + index


class Conformance:
    """In-process checks.run_all over all suites at CHECK_SAMPLES samples."""

    def __init__(self, seed: int, outdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.fb = importlib.import_module("finslerboost")
        self.checks = importlib.import_module("finslerboost.checks")
        self.suites = list(self.checks.SUITES)
        self._pass(0)

    def _pass(self, index):
        return self.checks.run_all(self.suites, seed=pass_seed(self.seed, index),
                                   samples=CHECK_SAMPLES)

    def run(self, seconds: float) -> dict:
        tally = [0, 0]
        findings = []

        def op(i):
            t0 = time.perf_counter()
            reports = self._pass(i + 1)
            dt = time.perf_counter() - t0
            # Re-run one suite per pass (round robin): reports must be reproducible.
            again = self.checks.run_suite(self.suites[i % len(self.suites)],
                                          seed=pass_seed(self.seed, i + 1),
                                          samples=CHECK_SAMPLES)
            attempted, failed, found = checking.conformance_failures(
                reports, self.suites, CHECK_SAMPLES, again)
            own_attempted, own_failed = checking.own_check_failures(
                self.fb, pass_seed(self.seed, i + 1))
            tally[0] += attempted + own_attempted
            tally[1] += failed + own_failed
            findings.extend((pass_seed(self.seed, i + 1), *f) for f in found)
            return dt

        # A pass lasts long enough to span a switch of the host's speed, so
        # only the two references right around it normalize it.
        raw, norm = _timed_loop(seconds, op, window=0)
        items = len(raw) * len(self.suites) * CHECK_SAMPLES
        return _run_result(raw, norm, items, tally[0], tally[1], {"findings": findings})

    def trace(self) -> dict:
        reports = []

        def traced(tracer):
            reports.clear()
            for name in self.suites:
                tracer.record = name
                reports.extend(self.checks.run_all(
                    [name], seed=pass_seed(self.seed, 1), samples=CHECK_SAMPLES))

        plain, spanned, tracer, factor = _traced_ratio(lambda: self._pass(1), traced)
        attempted, failed, _ = checking.conformance_failures(reports, self.suites, CHECK_SAMPLES)
        return {"tracer": tracer, "items": len(self.suites) * CHECK_SAMPLES,
                "untraced_s": plain, "traced_s": spanned, "factor": factor,
                "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# stream-fixed-axis

CHUNK = 100
# Every BAND_EVERY-th record is forced into the series band |nu.n alpha| < 1e-4.
BAND_EVERY = 20
TRACE_RECORDS = 2000


def stream_chunk(seed: int, index: int, nu: np.ndarray) -> list:
    """CHUNK records for chunk `index`, as tuples of Python floats:
    (n1, alpha1, n2, alpha2, x, va, vb, axial_alpha, abelian_n, abelian_alpha)."""
    rng = np.random.default_rng([seed, 2, index + 1])
    k = CHUNK
    n1, a1 = _units(rng, k), _rapidities(rng, k)
    e1, e2 = _plane_basis(nu)
    band = (np.arange(k) + index * k) % BAND_EVERY == 0
    nb = int(band.sum())
    alpha = rng.uniform(0.5, 3.0, size=nb)
    s = rng.uniform(-1e-4, 1e-4, size=nb) / alpha
    th = rng.uniform(0.0, 2.0 * math.pi, size=nb)
    perp = np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2
    n1[band] = np.sqrt(1.0 - s * s)[:, None] * perp + s[:, None] * nu
    a1[band] = alpha
    n2, a2 = _units(rng, k), _rapidities(rng, k)
    x = _timelike(rng, k)
    va, vb = _velocities(rng, k), _velocities(rng, k)
    gamma = rng.uniform(-2.0, 2.0, size=k)
    th = rng.uniform(0.0, 2.0 * math.pi, size=k)
    abn = np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2
    aba = rng.uniform(-2.0, 2.0, size=k)
    cols = (n1, a1, n2, a2, x, va, vb, gamma, abn, aba)
    return [tuple(c[i].tolist() for c in cols) for i in range(k)]


def stream_record(fb, nu, spec, rec) -> tuple:
    """Push one record through the scalar public API (forward then inverse)."""
    core, boost, subgroups, vs = fb.core, fb.boost, fb.subgroups, fb.velocity_space
    n1, a1, n2, a2, x4, va3, vb3, gamma, abn, aba = rec
    g1 = boost.BoostParams(core.UnitVector3(*n1), a1)
    g2 = boost.BoostParams(core.UnitVector3(*n2), a2)
    x = core.FourVector(*x4)
    v1 = boost.velocity_from_params(nu, g1)
    xp = boost.apply_matrix(boost.generalized_boost_matrix(spec, g1), x)
    s0 = core.finsler_interval_sq(x, spec)
    s1 = core.finsler_interval_sq(xp, spec)
    v12 = boost.velocity_from_params(nu, boost.compose(nu, g1, g2))
    vadd = boost.add_velocities(nu, v1, boost.velocity_from_params(nu, g2))
    back = boost.params_from_velocity(nu, v1)
    va, vb = core.Velocity3(*va3), core.Velocity3(*vb3)
    d0 = vs.lobachevsky_distance(va, vb)
    d1 = vs.lobachevsky_distance(vs.induced_motion(nu, v1, va), vs.induced_motion(nu, v1, vb))
    xa = subgroups.abelian_transform(nu, subgroups.AbelianParams(core.UnitVector3(*abn), aba), x)
    xx = subgroups.axial_transform(spec, subgroups.AxialParams(gamma), x)
    return g1, xp, s0, s1, v12, vadd, back, d0, d1, xa, xx


class StreamFixedAxis:
    """Library throughput on one preferred axis and one r per run."""

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.nu_arr = _unit(rng)
        self.r = float(rng.uniform(-0.9, 0.9))

    def setup(self) -> None:
        self.fb = importlib.import_module("finslerboost")
        self.nu = self.fb.UnitVector3(*self.nu_arr.tolist())
        self.spec = self.fb.AnisotropySpec(self.nu, self.r)
        self._chunk(stream_chunk(self.seed, -1, self.nu_arr))

    def _chunk(self, records, tracer=None, first=0):
        """Returns (seconds, outputs); an exception fails only its record.
        With a tracer, each record's spans carry the record number."""
        fb, nu, spec = self.fb, self.nu, self.spec
        outs = []
        t0 = time.perf_counter()
        for i, rec in enumerate(records):
            if tracer is not None:
                tracer.record = first + i
            try:
                outs.append(stream_record(fb, nu, spec, rec))
            except (ArithmeticError, ValueError) as exc:
                outs.append(exc)
        return time.perf_counter() - t0, outs

    def _failures(self, records, outs) -> int:
        nu = tuple(self.nu_arr.tolist())
        return sum(isinstance(o, Exception) or bool(checking.stream_failures(nu, self.r, rec, o))
                   for rec, o in zip(records, outs))

    def run(self, seconds: float) -> dict:
        failed = [0]

        def op(i):
            records = stream_chunk(self.seed, i, self.nu_arr)
            dt, outs = self._chunk(records)
            failed[0] += self._failures(records, outs)
            return dt

        raw, norm = _timed_loop(seconds, op)
        n = len(raw) * CHUNK
        return _run_result(raw, norm, n, n, failed[0])

    def trace(self) -> dict:
        chunks = [stream_chunk(self.seed, i, self.nu_arr) for i in range(TRACE_RECORDS // CHUNK)]
        outs = []

        def untraced():
            for records in chunks:
                self._chunk(records)

        def traced(tracer):
            outs.clear()
            for c, records in enumerate(chunks):
                outs.append(self._chunk(records, tracer, c * CHUNK)[1])

        plain, spanned, tracer, factor = _traced_ratio(untraced, traced)
        failed = sum(self._failures(r, o) for r, o in zip(chunks, outs))
        return {"tracer": tracer, "items": TRACE_RECORDS, "untraced_s": plain,
                "traced_s": spanned, "factor": factor, "attempted": TRACE_RECORDS, "failed": failed}


WORKLOADS = {
    "cli-oneshot": CliOneshot,
    "conformance": Conformance,
    "stream-fixed-axis": StreamFixedAxis,
}
