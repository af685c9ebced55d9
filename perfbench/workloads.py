"""The benchmark's workloads: three cold figure grids built from a seed.

Each workload replays one of the paper's figure grids through the public
experiment API (``ExperimentRunner.run_grid`` for single-core cells,
``ExperimentRunner.mix_job_for`` plus ``engine.run_jobs`` for four-core
mixes) on the serial executor, one cell at a time, with the modelled
caches starting empty as in the figures' own runs.

The program never sees the seed.  :func:`seeded_specs` derives every trace
spec from the suite's spec with ``dataclasses.replace``; seed 0 returns the
figures' own specs unchanged.

This module imports ``repro`` only inside functions, so the parent process
of the benchmark can read the workload table without loading the program.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Spec seed offset per benchmark seed: ``spec.seed + SEED_STRIDE * seed``.
#: The suites' own seeds are all below 1000, so seeds never collide.
SEED_STRIDE = 1000

#: A seed kept out of every tuning run of this benchmark.  A later change
#: that claims a gain re-measures on it (see perfbench/README.md).
HELD_BACK_SEED = 9001

#: Fig. 11's 21 traces, in the figure's order.
FIG11_TRACES = (
    "leslie3d-like",
    "GemsFDTD-like",
    "libquantum-like",
    "lbm-like",
    "sphinx3-like",
    "mcf-like",
    "BFS-like",
    "PageRank-like",
    "Components-like",
    "canneal-like",
    "facesim-like",
    "streamcluster-like",
    "cassandra-like",
    "cloud9-like",
    "nutch-like",
    "gcc_s-like",
    "bwaves_s-like",
    "mcf_s-like",
    "xalancbmk_s-like",
    "fotonik3d_s-like",
    "roms_s-like",
)

#: Fig. 13's configurations: baseline, Gaze at L1 only, then Group 1
#: (L1 x L2 combinations) and Group 2 (IP-stride at L1).
FIG13_CONFIGS = (
    ("none", "gaze")
    + tuple(
        f"{l1}+{l2}"
        for l1 in ("vberti", "pmp", "dspatch", "ipcp", "gaze")
        for l2 in ("spp-ppf", "bingo")
    )
    + tuple(f"ip-stride+{l2}" for l2 in ("spp-ppf", "bingo", "gaze"))
)

#: Fig. 15's prefetchers, baseline first.
FIG15_PREFETCHERS = ("none", "vberti", "pmp", "gaze")


@dataclass(frozen=True)
class Workload:
    """One cold figure grid.

    ``engaged``/``declined`` are the compiled-driver attach outcomes the
    traced run must observe: every single-core cell calls
    ``CompiledDriver.try_attach`` once, mix cells never do.
    """

    name: str
    figure: str
    trace_length: int
    cells: int
    engaged: int
    declined: int
    max_instructions_per_core: int = 0

    def specs(self, seed: int):
        """The workload's trace specs for ``seed`` (one tuple per mix)."""
        if self.figure == "fig11":
            return seeded_specs(FIG11_TRACES, seed)
        if self.figure == "fig13":
            from repro.workloads.suites import MAIN_SUITES, trace_specs_for_suite

            names = [trace_specs_for_suite(suite)[0].name for suite in MAIN_SUITES]
            return seeded_specs(names, seed)
        from repro.experiments.figures import FOUR_CORE_MIXES

        return [tuple(seeded_specs(names, seed)) for names in FOUR_CORE_MIXES.values()]

    def run(self, runner, specs) -> Tuple[List[Tuple[str, object]], Dict[str, Dict[str, float]]]:
        """Run the grid; returns its cells and the modelled summary.

        Each cell is ``(cell id, SimulationStats | MultiCoreStats |
        JobFailure)``.  The summary maps each prefetcher to its geomean speedup over the
        baseline and its mean prefetch accuracy, as the figure reports it.
        """
        if self.figure == "fig11":
            return _run_grid(runner, specs, ("none", "vberti", "pmp", "gaze"))
        if self.figure == "fig13":
            return _run_grid(runner, specs, FIG13_CONFIGS)
        return _run_mixes(runner, specs, self)


#: The workloads by name; BENCHMARK.json records why each was chosen.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig11-cold",
            figure="fig11",
            trace_length=20_000,
            cells=84,
            engaged=84,
            declined=0,
        ),
        Workload(
            name="fig13-fallback",
            figure="fig13",
            trace_length=4_000,
            cells=75,
            engaged=10,
            declined=65,
        ),
        Workload(
            name="fig15-mix",
            figure="fig15",
            trace_length=5_000,
            cells=20,
            engaged=0,
            declined=0,
            max_instructions_per_core=20_000,
        ),
    )
}


def seeded_specs(names: Sequence[str], seed: int):
    """The suites' specs named ``names``, re-seeded for benchmark ``seed``."""
    from repro.workloads.suites import suite_names, trace_specs_for_suite

    by_name = {
        spec.name: spec
        for suite in suite_names()
        for spec in trace_specs_for_suite(suite)
    }
    return [
        dataclasses.replace(by_name[name], seed=by_name[name].seed + SEED_STRIDE * seed)
        for name in names
    ]


def _run_grid(runner, specs, prefetchers):
    from repro.experiments.metrics import summarize_runs

    results = runner.run_grid(specs, prefetchers)
    cells = [(f"{r.spec.name}/{r.prefetcher}", r.stats) for r in results]
    summary = summarize_runs([r for r in results if r.prefetcher != "none"])
    model = {
        name: {"speedup": row["speedup"], "accuracy": row["accuracy"]}
        for name, row in summary.items()
    }
    return cells, model


def _run_mixes(runner, mixes, workload: Workload):
    from repro.experiments.executors import JobFailure
    from repro.experiments.metrics import arithmetic_mean, geomean

    jobs = [
        runner.mix_job_for(
            specs,
            prefetcher,
            trace_length=workload.trace_length,
            max_instructions_per_core=workload.max_instructions_per_core,
        )
        for specs in mixes
        for prefetcher in FIG15_PREFETCHERS
    ]
    results = runner.engine.run_jobs(jobs)
    cells = [(job.name, stats) for job, stats in zip(jobs, results)]
    width = len(FIG15_PREFETCHERS)
    model = {}
    for column, prefetcher in enumerate(FIG15_PREFETCHERS[1:], start=1):
        speedups, accuracies = [], []
        for row in range(0, len(results), width):
            baseline, stats = results[row], results[row + column]
            if isinstance(baseline, JobFailure) or isinstance(stats, JobFailure):
                continue  # counted by the benchmark's output check
            speedups.append(stats.geomean_speedup(baseline))
            accuracies.extend(core.prefetch.accuracy for core in stats.per_core.values())
        model[prefetcher] = {
            "speedup": geomean(speedups),
            "accuracy": arithmetic_mean(accuracies),
        }
    return cells, model
