"""Outside-in instrumentation of the ``repro`` layers.

Nothing under ``src/`` is edited.  The benchmark rebinds public callables
of each ``repro`` module to wrappers, and it does so before the worker
pool forks, so pool workers run the same wrappers.  Two objects hold what
the wrappers see, both in shared memory so every process writes to one
place:

* :class:`Accounting` — counters fed by a wrapper around every
  ``simulate`` call in any process: simulations run, simulated events,
  output-check verdicts, and the fault, overload and replica counters of
  each result.  Installed on every run.  Pool workers return only a
  verdict to the search, so the check runs where the simulation ran,
  inside the timed iteration; it costs about a millisecond per
  simulation (a digest of the per-query arrays).
* :class:`Tracer` — one span per wrapped call (name, start, end, parent
  span, iteration), recorded only while ``enabled`` is set, so the
  untraced iterations that give the end-to-end metrics pay one flag test
  per wrapped call.  A span opened in a pool worker has as parent the span
  the parent process had open when the worker span began, so the
  ``experiments`` layer's self time is the pool time not covered by any
  worker's simulation.

``overload`` and ``replicas`` run inside the kernel loops, one call per
event; wrapping those calls would change what is measured, so those two
layers report the counts of each result and their time stays inside
``cluster`` self time.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Span names; the part before the dot is the layer.
SPAN_NAMES = (
    "bench.iteration",
    "workloads.generate",
    "core.estimator_build",
    "core.budget_table",
    "cluster.simulate",
    "faults.materialize",
    "federation.simulate",
    "federation.route",
    "federation.merge",
    "experiments.find_max_load",
    "experiments.run_simulations",
    "obs.attribution",
    "obs.slo",
    "obs.export",
    "obs.report",
    "sim.run",
)
LAYERS = ("bench", "workloads", "core", "cluster", "faults", "overload",
          "replicas", "federation", "experiments", "obs", "sim")

#: Shared counters kept by :class:`Accounting`.
COUNTERS = (
    "started", "sims", "failed", "events",
    "queries", "rejected", "tasks_retried", "tasks_hedged",
    "tasks_cancelled", "tasks_failed", "server_failures",
    "degraded_queries", "shed_tasks", "breaker_trips", "cdf_rebootstraps",
    "hedges_suppressed", "rep_hedged", "rep_base", "rep_delay_scale",
)


def count_events(result) -> int:
    """Simulated events of one run: arrivals, task starts, retries,
    hedges, cancels and fail/recover transitions (the perf gate's
    definition, so numbers compare with ``benchmarks/perfgate.py``)."""
    return (int(result.latency.size) + int(result.tasks_total)
            + int(result.tasks_retried + result.tasks_hedged
                  + result.tasks_cancelled + 2 * result.server_failures))


class Accounting:
    """Per-simulation counters and output checks, shared across processes.

    ``check`` maps ``(config, result)`` to a list of failure messages
    (empty when the output is correct).  A failure is also written to
    standard error by the process that found it.
    """

    def __init__(self, check: Callable) -> None:
        self._values = multiprocessing.RawArray("d", len(COUNTERS))
        self._lock = multiprocessing.Lock()
        self.check = check

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(zip(COUNTERS, self._values[:]))

    def _add(self, updates: Dict[str, float]) -> None:
        with self._lock:
            for name, value in updates.items():
                i = COUNTERS.index(name)
                if name == "rep_delay_scale":     # a level, not a count
                    self._values[i] = value
                else:
                    self._values[i] += value

    def add_failures(self, n: int) -> None:
        self._add({"failed": n})

    def wait_idle(self, timeout_s: float = 60.0) -> None:
        """Wait until no simulation is in flight in any process (a probe
        the search no longer needs may still be running in a worker)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            snap = self.snapshot()
            if snap["started"] <= snap["sims"]:
                return
            time.sleep(0.005)

    def wrap(self, simulate: Callable) -> Callable:
        accounting = self

        @functools.wraps(simulate)
        def accounted(config):
            accounting._add({"started": 1})
            try:
                result = simulate(config)
            except Exception:
                accounting._add({"sims": 1, "failed": 1})
                raise
            failures = accounting.check(config, result)
            for message in failures:
                print(f"perfbench: output check failed: {message}",
                      file=sys.stderr, flush=True)
            updates = {
                "sims": 1,
                "failed": int(bool(failures)),
                "events": count_events(result),
                "queries": int(result.latency.size),
                "rejected": int(result.rejected.sum()),
                "tasks_retried": result.tasks_retried,
                "tasks_hedged": result.tasks_hedged,
                "tasks_cancelled": result.tasks_cancelled,
                "tasks_failed": result.tasks_failed,
                "server_failures": result.server_failures,
                "degraded_queries": result.degraded_queries,
                "shed_tasks": result.shed_tasks,
                "breaker_trips": result.breaker_trips,
                "cdf_rebootstraps": result.cdf_rebootstraps,
                "hedges_suppressed": result.hedges_suppressed,
            }
            if result.replicas is not None:
                updates["rep_hedged"] = result.tasks_hedged
                updates["rep_base"] = duplicate_base(result)
                updates["rep_delay_scale"] = result.replicas.delay_scale()
            accounting._add(updates)
            return result

        return accounted


def duplicate_base(result) -> int:
    """Base task launches of a run: requested fanout plus retries."""
    return int(result.fanout.sum()) + int(result.tasks_retried)


class Tracer:
    """Spans in a shared-memory buffer, one row per wrapped call.

    Row ``i`` is span ``i``: ``(parent, name code, start, end, iteration,
    count)``.  Times are ``time.perf_counter()``, which on Linux reads one
    system-wide monotonic clock, so rows from different processes compare.
    """

    COLUMNS = 6

    def __init__(self, capacity: int = 100_000) -> None:
        self._capacity = capacity
        self._rows = multiprocessing.RawArray("d", capacity * self.COLUMNS)
        self._next = multiprocessing.RawValue("q", 0)
        self._top = multiprocessing.RawValue("q", -1)
        self._lock = multiprocessing.Lock()
        self.enabled = multiprocessing.RawValue("b", 0)
        self.iteration = multiprocessing.RawValue("q", 0)
        self._owner = os.getpid()
        self._pid = self._owner
        self._stack: List[int] = []

    def _open(self, code: int) -> int:
        pid = os.getpid()
        if pid != self._pid:            # first span in a forked worker
            self._pid, self._stack = pid, []
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = self._top.value if pid != self._owner else -1
        with self._lock:
            slot = self._next.value
            self._next.value = slot + 1
        if slot < self._capacity:
            base = slot * self.COLUMNS
            self._rows[base] = parent
            self._rows[base + 1] = code
            self._rows[base + 4] = self.iteration.value
        else:
            slot = -1
        self._stack.append(slot)
        if pid == self._owner:
            self._top.value = slot
        if slot >= 0:
            self._rows[slot * self.COLUMNS + 2] = time.perf_counter()
        return slot

    def _close(self, slot: int, count: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if os.getpid() == self._owner:
            self._top.value = self._stack[-1] if self._stack else -1
        if slot >= 0:
            base = slot * self.COLUMNS
            self._rows[base + 3] = end
            self._rows[base + 5] = count

    def span(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` while enabled;
        ``count(args, kwargs)`` gives the span's work count."""
        code = SPAN_NAMES.index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled.value:
                return fn(*args, **kwargs)
            slot = tracer._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(slot, count(args, kwargs) if count else 0)

        return traced

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.span(name, fn)(*args, **kwargs)

    @property
    def dropped(self) -> int:
        return max(0, self._next.value - self._capacity)

    def rows(self) -> np.ndarray:
        """Every finished span, as an ``(n, 6)`` array indexed by span id."""
        n = min(self._next.value, self._capacity)
        rows = np.frombuffer(self._rows, dtype=np.float64,
                             count=n * self.COLUMNS).reshape(n, self.COLUMNS)
        return rows.copy()


def self_times(rows: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap one another (two pool workers under one search),
    so the covered part is the length of the union of their intervals,
    clipped to the parent's interval.
    """
    start, end = rows[:, 2], rows[:, 3]
    own = np.where(end > 0, end - start, 0.0)
    children: Dict[int, List[int]] = {}
    for i, parent in enumerate(rows[:, 0].astype(np.int64)):
        if parent >= 0 and end[i] > 0:
            children.setdefault(int(parent), []).append(i)
    for parent, kids in children.items():
        lo, hi = start[parent], end[parent]
        covered, cursor = 0.0, lo
        for k in sorted(kids, key=lambda i: start[i]):
            a, b = max(start[k], cursor), min(end[k], hi)
            if b > a:
                covered += b - a
                cursor = b
        own[parent] -= covered
    return own


def rebind(original: object, replacement: object) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(cls, attr: str, wrap: Callable) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def install(accounting: Accounting, tracer: Optional[Tracer]) -> None:
    """Wrap the layer boundaries.  Call once, before any pool starts."""
    import repro.cluster.simulation as cluster_simulation
    from repro.cluster.results import SimulationResult
    from repro.core.deadline import DeadlineEstimator
    from repro.experiments.maxload import find_max_load
    from repro.experiments.parallel import run_simulations
    from repro.faults.plan import FaultPlan
    from repro.federation.router import route_queries
    from repro.federation.simulation import simulate_federation
    from repro.obs.attribution import attribute_queries
    from repro.obs.export import write_chrome_trace
    from repro.obs.forensics import tail_forensics_report
    from repro.obs.slo import SLOAccountant
    from repro.sim.engine import Environment
    from repro.workloads.generator import generate_queries, generate_query_arrays

    simulate = cluster_simulation.simulate
    if tracer is not None:
        def n_queries(args, kwargs):
            return int(args[1])

        for fn in (generate_query_arrays, generate_queries):
            rebind(fn, tracer.span("workloads.generate", fn, n_queries))
        for fn, name in ((route_queries, "federation.route"),
                         (simulate_federation, "federation.simulate"),
                         (find_max_load, "experiments.find_max_load"),
                         (run_simulations, "experiments.run_simulations"),
                         (attribute_queries, "obs.attribution"),
                         (write_chrome_trace, "obs.export"),
                         (tail_forensics_report, "obs.report")):
            rebind(fn, tracer.span(name, fn))
        for cls, attr, name in (
                (DeadlineEstimator, "__init__", "core.estimator_build"),
                (DeadlineEstimator, "budget_table", "core.budget_table"),
                (FaultPlan, "materialize", "faults.materialize"),
                (SimulationResult, "merge", "federation.merge"),
                (SLOAccountant, "ingest", "obs.slo"),
                (SLOAccountant, "to_prometheus", "obs.slo"),
                (Environment, "run", "sim.run")):
            _wrap_method(cls, attr, functools.partial(tracer.span, name))
        traced = tracer.span("cluster.simulate", simulate)
        rebind(simulate, traced)
        simulate = traced
    rebind(simulate, accounting.wrap(simulate))


class PoolWatch:
    """Futures submitted to one executor, to count cancelled probes."""

    def __init__(self, pool) -> None:
        self.futures: List = []
        submit = pool.submit

        def watched(*args, **kwargs):
            future = submit(*args, **kwargs)
            self.futures.append(future)
            return future

        pool.submit = watched

    def take(self) -> Sequence:
        futures, self.futures = self.futures, []
        return futures
