"""Spans around the calls into each layer of ``repro``, recorded from outside.

:func:`install` replaces a fixed set of public functions and methods with
wrappers that record one span per call: name, start, end, parent span and
the id of the cell being simulated.  Spans stay in memory; the benchmark
writes them out after the run.  Nothing here changes what the wrapped
functions compute or return.

Only the traced run installs the span wrappers; the end-to-end metrics
come from untraced runs, and the difference between the two is reported as
tracing overhead.  Every run, traced or not, installs
:func:`record_attach`, one call per cell, so the benchmark can check on
every repetition which cells ran on the compiled driver.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None, cell id or None]``.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.cell: Optional[str] = None

    def wrap(self, name: str, fn: Callable):
        """``fn`` wrapped so every call records a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.cell]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            return result

        return traced

    def with_cell(self, cell_of: Callable, fn: Callable):
        """``fn`` wrapped so spans inside it carry ``cell_of(first arg)``."""

        def in_cell(job, *args, **kwargs):
            outer, self.cell = self.cell, cell_of(job)
            try:
                return fn(job, *args, **kwargs)
            finally:
                self.cell = outer

        return in_cell

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent, _cell in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _cell) in enumerate(self.spans):
            totals[name] += (end - start) - children[index]
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        """Number of spans per name."""
        return dict(Counter(span[0] for span in self.spans))

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for name, start, end, parent, cell in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "cell": cell}
                    )
                    + "\n"
                )


def _patch(owner, attribute: str, wrap: Callable) -> None:
    """Replace ``owner.attribute`` by ``wrap(it)``, keeping a static/class method one."""
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(owner, attribute, type(raw)(wrap(raw.__func__)))
    else:
        setattr(owner, attribute, wrap(raw))


def record_attach(outcomes: List[Optional[str]]) -> None:
    """Append every ``CompiledDriver.try_attach`` outcome to ``outcomes``.

    ``None`` stands for a cell that engaged the compiled driver, a string
    for the reason it was declined.  No span is recorded.
    """
    from repro.sim.driver import CompiledDriver

    def observe(fn):
        def observed(*args, **kwargs):
            driver, reason = result = fn(*args, **kwargs)
            outcomes.append(None if driver is not None else reason)
            return result

        return observed

    _patch(CompiledDriver, "try_attach", observe)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.experiments import executors, jobs
    from repro.experiments.cache import ResultCache
    from repro.sim.batch import BatchedTrace
    from repro.sim.driver import CompiledDriver
    from repro.sim.multicore import MultiCoreSimulator
    from repro.workloads.trace import TraceSpec

    for owner, attribute, name in (
        (TraceSpec, "build", "workloads.trace.build"),
        (BatchedTrace, "from_accesses", "sim.batch.decode"),
        (CompiledDriver, "try_attach", "sim.driver.attach"),
        (CompiledDriver, "run_batch", "sim.driver.run"),
        (CompiledDriver, "detach", "sim.driver.detach"),
        (jobs, "simulate_trace", "sim.simulator"),
        (MultiCoreSimulator, "run", "sim.multicore.run"),
        (jobs, "create_prefetcher", "prefetchers.create"),
        (jobs.SimulationJob, "key", "experiments.engine.key"),
        (jobs.MixSimulationJob, "key", "experiments.engine.key"),
        (ResultCache, "get", "experiments.cache.get"),
        (ResultCache, "put", "experiments.cache.put"),
        (executors.SerialExecutor, "run_detailed", "experiments.executors.dispatch"),
    ):
        _patch(owner, attribute, lambda fn, name=name: tracer.wrap(name, fn))
    executors.execute_job = tracer.with_cell(executors.job_name, executors.execute_job)
