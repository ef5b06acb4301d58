"""One benchmark worker process.

Usage: python3 worker.py WORKLOAD SEED SECONDS MODE OUTDIR

Sets the workload up (imports and one warm-up operation), prints READY,
then for MODE "run" times operations for SECONDS and for MODE "trace"
makes the traced run; MODE "setup" stops after READY.  The result is one
JSON line on stdout.
"""
from __future__ import annotations

import json
import os
import resource
import sys

import layers
import reference
import workloads

# Share of the traced run spent on per-call probes of fixed inputs.
PROBE_SHARE = 0.3


def main(argv) -> int:
    name, seed, seconds, mode, outdir = argv
    seed, seconds = int(seed), float(seconds)
    wl = workloads.WORKLOADS[name](seed, outdir)
    wl.setup()
    print("READY", flush=True)
    # Normalizes the setup time the parent measured (see reference.py).
    setup_factor = reference.for_workload(name)()
    if mode == "setup":
        print(json.dumps({"setup_factor": setup_factor}), flush=True)
        return 0
    if mode == "run":
        result = wl.run(seconds)
    else:
        result = trace(wl, name, seed, seconds, outdir)
    who = resource.RUSAGE_CHILDREN if getattr(wl, "rss_of_children", False) else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["library"] = sys.modules["finslerboost"].__file__
    result["setup_factor"] = setup_factor
    print(json.dumps(result), flush=True)
    return 0


def trace(wl, name, seed, seconds, outdir) -> dict:
    t = wl.trace()
    tracer = t.pop("tracer")
    tracer.write_csv(os.path.join(outdir, f"spans-{name}-seed{seed}.csv"))
    metrics = workloads.layer_figures(tracer, t["items"], t["factor"])
    metrics["trace.overhead_frac"] = (1.0 - t["untraced_s"] / t["traced_s"], "frac")
    probes, attempted, failed = layers.all_probes(seed, outdir, PROBE_SHARE * seconds)
    metrics.update(probes)
    return {
        "metrics": metrics,
        "attempted": t["attempted"] + attempted,
        "failed": t["failed"] + failed,
        "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
