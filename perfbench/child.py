"""One cold run of one workload in a fresh interpreter.

Started by ``perfbench/run.py``; not meant to be run by hand.  It imports
the program, builds the runner (the set-up it times), runs the workload
once with a private, empty result cache and prints one JSON object: set-up
and wall time, peak memory, every cell's statistics, every compiled-driver
attach outcome and, when traced, the per-layer span summary.

Usage::

    python3 perfbench/child.py SPAWNED_AT WORKLOAD SEED MODE CACHE_DIR [SPANS_PATH]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process; ``MODE`` is ``plain`` or ``traced``.
"""

import sys
import time

# The argument list is parsed before anything else is imported, so the
# set-up time below covers interpreter start plus the program's imports.
SPAWNED_AT = float(sys.argv[1])

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import repro  # noqa: E402
import repro._kernels  # noqa: E402,F401  (fails loudly when the C tier is missing)
from repro.experiments.executors import JobFailure  # noqa: E402
from repro.experiments.runner import ExperimentRunner, RunScale  # noqa: E402
from repro.sim.driver import driver_available  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _stats_record(cell_id: str, result) -> dict:
    if isinstance(result, JobFailure):
        return {"id": cell_id, "failure": str(result)}
    return {"id": cell_id, "stats": result.to_dict()}


def main() -> int:
    _, _, workload_name, seed, mode, cache_dir, *rest = sys.argv
    workload = WORKLOADS[workload_name]
    if not driver_available():
        print("repro._kernels imports but exposes no DriverKernel", file=sys.stderr)
        return 3
    runner = ExperimentRunner(
        RunScale(trace_length=workload.trace_length, traces_per_suite=None),
        kernel="compiled",
        cache_dir=cache_dir,
        use_cache=True,
        faults="off",
    )
    setup_s = time.monotonic() - SPAWNED_AT
    out = {"setup_s": setup_s, "repro": os.path.abspath(repro.__file__)}

    import tracing

    specs = workload.specs(int(seed))
    entry = workload.run
    attach = []
    tracing.record_attach(attach)
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap("experiments.figures", entry)

    start = time.perf_counter()
    cells, model = entry(runner, specs)
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["cells"] = [_stats_record(cell_id, result) for cell_id, result in cells]
    out["model"] = model
    out["counters"] = runner.engine.counters()
    out["attach"] = attach
    if tracer is not None:
        out["self_s"] = tracer.self_times()
        out["calls"] = tracer.calls()
        if rest:
            tracer.write(rest[0])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
