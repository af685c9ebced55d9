"""End-to-end benchmark of cold figure runs, with a traced per-layer run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig11-cold --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Set-up builds the ``repro._kernels`` extension in place the way README
documents (``python setup.py build_ext --inplace``) and stops with an error
when it cannot be built or imported.  Each repetition then runs the whole
workload cold in a fresh interpreter (``perfbench/child.py``) with a
private, empty result cache, one cell at a time on the serial executor.  Repetitions
continue while the next one is predicted to end within ``--seconds``
(at least :data:`MIN_REPS`); the reported figures are medians.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports its
per-layer metrics, tracing overhead included.  Every repetition's output
is checked (see :func:`check_cells` and :func:`check_tier`); the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from collections import Counter
from pathlib import Path

from workloads import HELD_BACK_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
#: Scratch space inside the checkout: private caches and span files.
OUT_DIR = ".perfbench"
BUILD_DIR = ".bench_build"

MIN_REPS = 3
#: Every child of one workload must end this many seconds after its first.
DEADLINE_S = 170.0

MODEL_LABEL = "model unvalidated against hardware; caches start empty, no warm-up"

#: What each per-layer metric of ``BENCHMARK.json`` should move.  Times
#: are self times: a span's duration minus the time its children cover.
LAYER_MOVES = {
    "workloads.trace.build_s": "wall_s/sim_kips on fig11-cold (~31%); ~5% of fig15-mix, ~2% of fig13-fallback",
    "workloads.trace.build_calls": "workloads.trace.build_s on every workload",
    "sim.batch.decode_s": "wall_s on fig11-cold (~2%)",
    "sim.driver.attach_s": "wall_s on fig11-cold; ~0 on fig13-fallback, 0 on fig15-mix",
    "sim.driver.run_s": "wall_s on fig11-cold (~11%); ~0 on fig13-fallback, 0 on fig15-mix",
    "sim.driver.detach_s": "wall_s and peak_rss_mb on fig11-cold (~51%); ~0 on fig13-fallback, 0 on fig15-mix",
    "sim.driver.engaged_cells": "explains fig11-cold (all cells) and fig13-fallback",
    "sim.driver.declined_cells": "explains fig13-fallback (reasons listed in the report)",
    "sim.simulator.self_s": "wall_s on fig13-fallback (~95%)",
    "sim.multicore.run_s": "wall_s on fig15-mix (~93%)",
    "sim.ns_per_access": "sim_kips on all three workloads",
    "prefetchers.create_s": "negligible today (<=0.01 s)",
    "experiments.engine.key_s": "wall_s on all three workloads",
    "experiments.cache.get_s": "wall_s on all three workloads (~1% today)",
    "experiments.cache.put_s": "wall_s on all three workloads (~1% today)",
    "experiments.cache.puts": "one per cell on every workload",
    "experiments.cache.quarantined": "0 on every workload",
    "experiments.executors.dispatch_s": "wall_s on all three workloads (executor and job glue)",
    "experiments.executors.retries": "failed_cell_ratio on all three workloads",
    "experiments.executors.failures": "failed_cell_ratio on all three workloads",
    "experiments.figures.self_s": "wall_s on all three workloads (grid assembly)",
    "model.demand_accesses": "nothing: a perf-only change leaves it identical",
    "model.l1_misses": "nothing: a perf-only change leaves it identical",
    "model.llc_misses": "nothing: a perf-only change leaves it identical",
    "model.dram_reads": "nothing: a perf-only change leaves it identical",
    "model.prefetch.filled": "nothing: a perf-only change leaves it identical",
    "model.prefetch.useful": "nothing: a perf-only change leaves it identical",
    "model.prefetch.accuracy": "nothing: a perf-only change leaves it identical",
    "trace.wall_s": "the traced twin of wall_s",
    "trace.overhead_s": "nothing: traced wall_s minus untraced wall_s",
    "trace.coverage": "share of traced wall_s in layers below the figure entry",
}

#: Span name -> self-time metric.
SPAN_METRICS = {
    "workloads.trace.build": "workloads.trace.build_s",
    "sim.batch.decode": "sim.batch.decode_s",
    "sim.driver.attach": "sim.driver.attach_s",
    "sim.driver.run": "sim.driver.run_s",
    "sim.driver.detach": "sim.driver.detach_s",
    "sim.simulator": "sim.simulator.self_s",
    "sim.multicore.run": "sim.multicore.run_s",
    "prefetchers.create": "prefetchers.create_s",
    "experiments.engine.key": "experiments.engine.key_s",
    "experiments.cache.get": "experiments.cache.get_s",
    "experiments.cache.put": "experiments.cache.put_s",
    "experiments.executors.dispatch": "experiments.executors.dispatch_s",
    "experiments.figures": "experiments.figures.self_s",
}

#: Spans whose self time is simulation proper (for ``sim.ns_per_access``).
SIMULATION_SPANS = (
    "sim.simulator", "sim.driver.attach", "sim.driver.run", "sim.driver.detach",
    "sim.multicore.run",
)

#: Conservation identities every single-core cell and every mix core obeys.
IDENTITIES = (
    ("demand_accesses", ("l1_hits", "l1_misses")),
    ("l1_misses", ("l2_hits", "l2_misses")),
    ("l2_misses", ("llc_hits", "llc_misses")),
    ("llc_misses", ("dram_reads",)),
)


class BenchError(RuntimeError):
    """Set-up or a child process failed; the benchmark prints no result."""


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
def build_kernels(root: Path) -> None:
    """Build ``repro._kernels`` in place; setuptools skips it when current."""
    if not (root / "setup.py").is_file() or not (root / "src" / "repro").is_dir():
        raise BenchError(f"{root} holds no repro source tree (setup.py, src/repro)")
    env = dict(os.environ)
    env.pop("REPRO_DEBUG_KERNELS", None)  # measure the release build
    command = [
        sys.executable, "setup.py", "build_ext", "--inplace",
        "--build-temp", f"{BUILD_DIR}/temp", "--build-lib", f"{BUILD_DIR}/lib",
    ]
    done = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True, timeout=600
    )
    # setup.py declares the extension optional: a failed compile exits 0 and
    # may copy a stale library from the build directory into place.
    source = root / "src" / "repro" / "_kernels.c"
    built = source.with_name("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if done.returncode != 0 or not built.is_file() or built.stat().st_mtime < source.stat().st_mtime:
        raise BenchError(f"building repro._kernels failed:\n{done.stderr[-2000:]}")


class Spawner:
    """Spawns the child interpreters of one benchmark run."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.out = root / OUT_DIR
        self.out.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def spawn(self, workload: str, seed: int, mode: str, spans: str = "") -> dict:
        """Run one child interpreter to completion and return its JSON."""
        self.count += 1
        cache_dir = self.out / f"cache-{os.getpid()}-{self.count}"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next repetition")
        try:
            argv = [sys.executable, str(CHILD), repr(time.monotonic()), workload,
                    str(seed), mode, str(cache_dir)] + ([spans] if spans else [])
            done = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{workload} {mode} run exceeded {timeout:.0f} s") from error
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if done.returncode != 0:
            raise BenchError(
                f"{workload} {mode} run exited {done.returncode}:\n{done.stderr[-3000:]}"
            )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        expected = self.root / "src" / "repro"
        if Path(result["repro"]).parent != expected:
            raise BenchError(f"imported repro from {result['repro']}, not {expected}")
        return result


# --------------------------------------------------------------------------- #
# Output check
# --------------------------------------------------------------------------- #
def _cores(cell: dict):
    """A single-core cell's statistics, or a mix cell's per-core ones."""
    stats = cell["stats"]
    if "per_core" in stats:
        return [stats["per_core"][core] for core in sorted(stats["per_core"], key=int)]
    return [stats]


def _without_extra(stats: dict) -> dict:
    if "per_core" in stats:
        return {**stats, "per_core": {k: _without_extra(v) for k, v in stats["per_core"].items()}}
    return {k: v for k, v in stats.items() if k != "extra"}


def check_cells(workload, rep: dict):
    """Check one repetition's cells: ``(failed cells, problems, digest)``.

    A cell fails when it came back as a ``JobFailure`` or when one of its
    cores breaks a conservation identity.  The digest covers every cell's
    statistics except the free-form ``extra`` dict.
    """
    cells = rep["cells"]
    problems = []
    if len(cells) != workload.cells:
        problems.append(f"expected {workload.cells} cells, got {len(cells)}")
    failed = 0
    for cell in cells:
        if "failure" in cell:
            failed += 1
            problems.append(f"{cell['id']}: {cell['failure']}")
            continue
        broken = [
            f"{total} != {' + '.join(parts)}"
            for core in _cores(cell)
            for total, parts in IDENTITIES
            if core[total] != sum(core[part] for part in parts)
        ]
        if broken:
            failed += 1
            problems.append(f"{cell['id']}: {'; '.join(broken)}")
    payload = json.dumps(
        [[cell["id"], _without_extra(cell.get("stats", {}))] for cell in cells],
        sort_keys=True, separators=(",", ":"),
    )
    return failed, problems, hashlib.sha256(payload.encode()).hexdigest()


def check_tier(workload, rep: dict) -> list:
    """Problems when a repetition's cells did not run on the expected tier.

    Every single-core cell calls ``CompiledDriver.try_attach`` once; the
    workload fixes how many engage the compiled driver and how many are
    declined, so a cell quietly falling back to Python is caught.
    """
    engaged = sum(1 for reason in rep["attach"] if reason is None)
    declined = len(rep["attach"]) - engaged
    if (engaged, declined) == (workload.engaged, workload.declined):
        return []
    return [
        f"tier check: expected {workload.engaged} cells on the compiled driver and "
        f"{workload.declined} declined, saw {engaged} and {declined}"
    ]


def model_totals(rep: dict) -> dict:
    """Modelled counters summed over every cell (and every mix core)."""
    keys = ("demand_accesses", "l1_misses", "llc_misses", "dram_reads", "instructions")
    totals = dict.fromkeys(keys, 0)
    filled = useful = 0
    for cell in rep["cells"]:
        if "stats" not in cell:
            continue
        for core in _cores(cell):
            for key in keys:
                totals[key] += core[key]
            prefetch = core["prefetch"]
            filled += prefetch["filled_l1"] + prefetch["filled_l2"]
            useful += prefetch["useful_l1"] + prefetch["useful_l2"]
    totals["filled"], totals["useful"] = filled, useful
    totals["accuracy"] = min(1.0, useful / filled) if filled else 0.0
    return totals


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def repeat(seconds: float, minimum: int, run_once) -> list:
    """Call ``run_once`` ``minimum`` times, then while it fits ``seconds``."""
    start = time.monotonic()
    results, durations = [], []
    while True:
        began = time.monotonic()
        results.append(run_once())
        durations.append(time.monotonic() - began)
        if len(results) >= minimum and (
            time.monotonic() + statistics.median(durations) > start + seconds
        ):
            return results


def measure(spawner: Spawner, name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload for ``seconds`` and check every repetition."""
    workload = WORKLOADS[name]
    spawner.deadline = time.monotonic() + DEADLINE_S
    spans_path = str(spawner.root / OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    if traced:
        pairs = repeat(seconds, 1, lambda: (
            spawner.spawn(name, seed, "plain"),
            spawner.spawn(name, seed, "traced", spans_path),
        ))
        plain = [pair[0] for pair in pairs]
        traced_reps = [pair[1] for pair in pairs]
    else:
        plain = repeat(seconds, MIN_REPS, lambda: spawner.spawn(name, seed, "plain"))
        traced_reps = []

    failed, problems, digests = 0, [], set()
    for rep in plain + traced_reps:
        rep_failed, rep_problems, digest = check_cells(workload, rep)
        failed += rep_failed
        problems.extend(rep_problems + check_tier(workload, rep))
        digests.add(digest)
    if len(digests) != 1:
        problems.append(f"cell statistics differ between repetitions of one seed: {sorted(digests)}")
    totals = model_totals(plain[0])
    attempted = workload.cells * len(plain + traced_reps)
    result = {
        "workload": workload,
        "seed": seed,
        "reps": len(plain),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests.pop() if len(digests) == 1 else "inconsistent",
        "model": plain[0]["model"],
        "metrics": {
            "setup_s": statistics.median(rep["setup_s"] for rep in plain),
            "wall_s": statistics.median(rep["wall_s"] for rep in plain),
            "sim_kips": statistics.median(
                totals["instructions"] / rep["wall_s"] / 1000.0 for rep in plain
            ),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        },
        "walls": [rep["wall_s"] for rep in plain],
    }
    if traced:
        result.update(layer_metrics(plain, traced_reps, totals))
    return result


def layer_metrics(plain: list, traced: list, totals: dict) -> dict:
    """Per-layer metrics from the traced repetitions (medians of times)."""
    layers = {}
    for span, metric in SPAN_METRICS.items():
        layers[metric] = statistics.median(rep["self_s"].get(span, 0.0) for rep in traced)
    first = traced[0]
    layers["workloads.trace.build_calls"] = first["calls"].get("workloads.trace.build", 0)
    declines = Counter(reason for reason in first["attach"] if reason is not None)
    layers["sim.driver.engaged_cells"] = sum(1 for reason in first["attach"] if reason is None)
    layers["sim.driver.declined_cells"] = sum(declines.values())
    simulated = statistics.median(
        sum(rep["self_s"].get(span, 0.0) for span in SIMULATION_SPANS) for rep in traced
    )
    layers["sim.ns_per_access"] = simulated / max(1, totals["demand_accesses"]) * 1e9
    counters = first["counters"]
    layers["experiments.cache.puts"] = first["calls"].get("experiments.cache.put", 0)
    layers["experiments.cache.quarantined"] = counters["cache_quarantined"]
    layers["experiments.executors.retries"] = counters["retries"]
    layers["experiments.executors.failures"] = counters["job_failures"]
    layers["model.demand_accesses"] = totals["demand_accesses"]
    layers["model.l1_misses"] = totals["l1_misses"]
    layers["model.llc_misses"] = totals["llc_misses"]
    layers["model.dram_reads"] = totals["dram_reads"]
    layers["model.prefetch.filled"] = totals["filled"]
    layers["model.prefetch.useful"] = totals["useful"]
    layers["model.prefetch.accuracy"] = totals["accuracy"]
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - statistics.median(rep["wall_s"] for rep in plain)
    layers["trace.coverage"] = statistics.median(
        (sum(rep["self_s"].values()) - rep["self_s"].get("experiments.figures", 0.0))
        / rep["wall_s"]
        for rep in traced
    )
    return {"layers": layers, "declines": dict(declines)}


# --------------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------------- #
def report(result: dict, traced: bool, units: dict) -> None:
    """Print one workload's human-readable report."""
    workload = result["workload"]
    ratio = result["failed"] / result["attempted"]
    print(f"# {workload.name}  seed={result['seed']}  reps={result['reps']}  "
          f"(closed loop, serial executor, cold: fresh interpreter and empty cache per rep)")
    for name, value in result["metrics"].items():
        print(f"{workload.name:16s} {name:18s} {value:12.4f} {units[name]}")
    print(f"{workload.name:16s} {'failed_cell_ratio':18s} {ratio:12.4f} ratio "
          f"({result['failed']}/{result['attempted']} cells)")
    print(f"{workload.name:16s} {'digest':18s} {result['digest'][:16]}")
    print(f"# wall_s per rep: {' '.join(f'{w:.3f}' for w in result['walls'])}")
    print(f"# modelled results ({MODEL_LABEL}):")
    for prefetcher, row in result["model"].items():
        print(f"#   {prefetcher:20s} geomean speedup {row['speedup']:.4f}  "
              f"accuracy {row['accuracy']:.4f}")
    if traced:
        wall = result["layers"]["trace.wall_s"]
        print(f"# per-layer self times of the traced run (share of traced wall_s {wall:.3f} s):")
        for name, value in result["layers"].items():
            unit, moves = units[name], LAYER_MOVES[name]
            share = f"{value / wall:6.1%}" if unit == "s" and not name.startswith("trace.") else "      "
            print(f"{workload.name:16s} {name:34s} {value:14.4f} {unit:6s} {share}  moves: {moves}")
        for reason, count in sorted(result["declines"].items()):
            print(f"# declined by reason: {count:3d} x {reason}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")


def metric_units(root: Path) -> tuple:
    """``(end-to-end, per-layer)`` metric name -> unit maps of BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help=f"workload seed; 0 = the figures' own traces, "
                             f"{HELD_BACK_SEED} is held back for checking claims")
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        e2e_units, layer_units = metric_units(root)
        build_kernels(root)
        spawner = Spawner(root)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [
            measure(spawner, name, args.seed, args.seconds, bool(args.trace))
            for name in names
        ]
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    metrics = {}
    for result in results:
        units = layer_units if args.trace else e2e_units
        values = result["layers"] if args.trace else result["metrics"]
        report(result, bool(args.trace), {**e2e_units, **layer_units})
        prefix = "" if len(results) == 1 else f"{result['workload'].name}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    correct = all(
        not result["problems"]
        and all(math.isfinite(entry["value"]) for entry in metrics.values())
        for result in results
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
