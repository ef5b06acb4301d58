"""Benchmark of the finslerboost package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-oneshot, conformance, stream-fixed-axis (see README.md).
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  Each workload runs in fresh
worker processes, single-threaded.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
carries the machine facts, and the full report is written under
.perfbench-out/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("cli-oneshot", "conformance", "stream-fixed-axis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh processes whose time to READY gives setup_s (the median is reported).
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 3


class BenchError(RuntimeError):
    pass


def percentile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def spawn_worker(args, env, root, timeout):
    """Run worker.py; returns (seconds from start to READY, result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0 or not rest.strip():
        raise BenchError(f"worker {args[:2]} {args[3]} failed (exit {code})")
    return ready, json.loads(rest.strip().splitlines()[-1])


def setup_sample(args, env, root, timeout):
    """(seconds from worker start to READY, reference factors, worker result).
    The factors come from the workload's reference, run by this process
    just before the start and by the worker just after READY."""
    before = reference.for_workload(args[0])()
    ready, result = spawn_worker(args, env, root, timeout)
    return ready, [before, result["setup_factor"]], result


def import_times(env, root) -> dict:
    """Cumulative import seconds from -X importtime in fresh processes
    (median); scipy.linalg counts 0 when importing the CLI does not load it."""
    wanted = {"finslerboost.cli": [], "scipy.linalg": [], "finslerboost": []}
    for _ in range(IMPORT_SAMPLES):
        before = reference.factor()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import finslerboost.cli"],
                              env=env, cwd=root, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError("import of finslerboost.cli failed")
        f = (before + reference.factor()) / 2
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                wanted[parts[2].strip()].append(int(parts[1]) * 1e-6 * f)
    if any(len(wanted[m]) != IMPORT_SAMPLES for m in ("finslerboost.cli", "finslerboost")):
        raise BenchError("import-time probe did not report the package")
    return {
        "cli.import_s": (statistics.median(wanted["finslerboost.cli"]), "s"),
        "cli.import_scipy_s": (statistics.median(wanted["scipy.linalg"] or [0.0]), "s"),
        "finslerboost.import_s": (statistics.median(wanted["finslerboost"]), "s"),
    }


def machine_facts(root, env) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    git_sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        if proc.returncode == 0:
            git_sha = proc.stdout.strip()
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "finslerboost")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "thread_env": {k: env[k] for k in THREAD_VARS},
    }


def end_to_end(samples, result) -> dict:
    times = result["op_times"]
    return {
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - result["failed"] / result["attempted"], "frac"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p75_ms": (percentile(times, 75) * 1e3, "ms"),
        "items_per_s": (result["items"] / sum(times), "1/s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "finslerboost", "__init__.py")):
        sys.stderr.write("perfbench: run from a checkout root holding src/finslerboost\n")
        return 2
    # One CPU for this process and every worker and CLI process it starts,
    # so that the reference computation runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.update({k: "1" for k in THREAD_VARS})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outdir = os.path.join(root, ".perfbench-out")
    scratch = os.path.join(outdir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    # The build step: byte-compile the sources once, so no timed process compiles.
    subprocess.run([sys.executable, "-m", "compileall", "-q", src], env=env, cwd=root,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)

    wargs = [args.workload, str(args.seed), repr(args.seconds)]
    limit = args.seconds + 120.0
    try:
        if args.trace:
            metrics = import_times(env, root)
            _, result = spawn_worker(wargs + ["trace", outdir], env, root, limit)
            metrics.update({k: tuple(v) for k, v in result["metrics"].items()})
        else:
            raw, samples = [], []
            for i in range(SETUP_SAMPLES):
                mode = "run" if i == SETUP_SAMPLES - 1 else "setup"
                ready, (f0, f1), result = setup_sample(wargs + [mode, scratch], env, root,
                                                       limit if mode == "run" else 60.0)
                raw.append(ready)
                # The host's speed can switch within a run, so each sample
                # is normalized by its own two references.
                samples.append(ready * (f0 + f1) / 2)
            result["setup_raw_s"], result["setup_samples_s"] = raw, samples
            metrics = end_to_end(samples, result)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    library = os.path.realpath(result["library"])
    if not library.startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"perfbench: imported the library from {library}, not from {src}\n")
        return 1
    facts = machine_facts(root, env)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    # Failed verdicts of the library's own conformance suites: accuracy
    # findings about the library, not wrong output of a timed operation.
    findings = [dict(zip(("check_seed", "suite", "property", "max_deviation", "tolerance"), f))
                for f in result.get("findings", [])]
    summary = {"facts": facts, "ops": len(result.get("op_times", [])),
               "spans": result.get("spans"), "library_findings": findings}
    path = os.path.join(outdir, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, **summary, **line,
                   "setup_samples_s": result.get("setup_samples_s"),
                   "setup_raw_s": result.get("setup_raw_s"),
                   "op_times_s": result.get("op_times"),
                   "raw_op_times_s": result.get("raw_op_times")}, fh, indent=2)
    print(json.dumps({**summary, "report": path}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
