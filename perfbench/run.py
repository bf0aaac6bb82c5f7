"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload maxload_sweep --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times untraced iterations of the workload's job for
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` splits the time between untraced and traced iterations and
reports the per-layer metrics, with each layer's self time, and writes
the spans to ``.perfbench/``.  Every simulation's output is checked (see
:mod:`perfbench.checks`); a failed check prints ``"correct": false`` and
exits 1.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give provenance and each metric's median, quartiles and run
count.

``--record-reference`` runs every simulation the benchmark makes for one
workload and seed once and stores their digests under
``perfbench/reference/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# Host measurements
# ----------------------------------------------------------------------
def _process_ids() -> List[int]:
    return [os.getpid()] + [p.pid for p in multiprocessing.active_children()]


def reset_peak_rss(pids: Sequence[int]) -> None:
    """Reset each process's resident-set high-water mark (Linux)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            pass


def peak_rss_mb(pids: Sequence[int]) -> float:
    """The largest resident-set high-water mark among ``pids``."""
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            pass
    if peak_kb == 0:
        import resource
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak_kb / 1024.0


def measure_setup(workload: str, seed: int):
    """Seconds from a fresh interpreter until the first simulation can
    start, once per probe process, and the host-speed kernel's seconds
    before each probe."""
    from perfbench import hostspeed

    times, kernel_times = [], []
    for _ in range(SETUP_PROBES):
        kernel_times.append(hostspeed.kernel_seconds())
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=120)
        finally:
            if probe.poll() is None:
                os.killpg(probe.pid, signal.SIGKILL)
                probe.wait()
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times, kernel_times


def start_tracker() -> None:
    """Start the shared-memory resource tracker before any worker forks.

    Workers inherit a running tracker; without one, each worker that
    packs a result into shared memory starts a tracker of its own, which
    outlives the worker and is never waited for."""
    resource_tracker.ensure_running()


def stop_workers() -> None:
    """Shut the worker pool and the resource tracker down and wait until
    their processes have ended."""
    from repro.experiments.parallel import shutdown_pools

    shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=60)
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def provenance(args, reference_available: bool) -> Dict[str, object]:
    git_rev = "none"
    if (ROOT / ".git").exists():
        try:
            git_rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_rev = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_digests": reference_available,
    }


# ----------------------------------------------------------------------
# The measured run
# ----------------------------------------------------------------------
class Run:
    """One workload at one seed: inputs, instrumentation and results."""

    def __init__(self, args, record_dir: Optional[Path] = None) -> None:
        from perfbench import layers, workloads
        from perfbench.checks import Reference

        self.args = args
        self.workload = workloads.WORKLOADS.get(args.workload)
        self.ref = Reference(args.workload, args.seed, record_dir)
        self.accounting = layers.Accounting(self.ref.check_result)
        self.tracer = layers.Tracer() if args.trace or record_dir else None
        layers.install(self.accounting, self.tracer)
        self.job = self.workload.build(args.seed)
        self.workload.setup(self.job)
        self.pool_watch = None
        if self.tracer is not None and self.workload.pool_workers:
            from repro.experiments.parallel import get_pool
            self.pool_watch = layers.PoolWatch(
                get_pool(self.workload.pool_workers))
        self.workload.warm(self.job)
        self.accounting.wait_idle()
        self.problems: List[str] = []
        self.iterations = 0
        self.outcome = None
        self.extra_sims = 0

    def iteration(self, traced: bool) -> Optional[Dict[str, float]]:
        """Run the job once; ``None`` when it raised."""
        from perfbench import hostspeed

        kernel_s = hostspeed.kernel_seconds()
        gc.collect()
        pids = _process_ids()
        reset_peak_rss(pids)
        before = self.accounting.snapshot()
        index = self.iterations
        if traced:
            self.tracer.iteration.value = index
            self.tracer.enabled.value = 1
        try:
            start = time.perf_counter()
            if traced:
                outcome = self.tracer.run("bench.iteration",
                                          self.workload.iterate, self.job)
            else:
                outcome = self.workload.iterate(self.job)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.accounting.wait_idle()
            after = self.accounting.snapshot()
            self.accounting.add_failures(
                max(1, int(after["started"] - before["started"])))
            self.problems.append("an iteration raised")
            return None
        finally:
            if traced:
                self.tracer.enabled.value = 0
        self.accounting.wait_idle()
        rss = peak_rss_mb(_process_ids())
        after = self.accounting.snapshot()
        problems = self.workload.check(self.job, outcome, self.ref)
        self.extra_sims += outcome.other_sims
        self._record_problems(problems)
        self.outcome = outcome
        record = {name: after[name] - before[name] for name in after}
        record.update(index=index, traced=traced, wall_s=wall,
                      kernel_s=kernel_s, peak_rss_mb=rss)
        if self.pool_watch is not None:
            futures = self.pool_watch.take()
            record["sims_submitted"] = len(futures)
            record["sims_cancelled"] = sum(f.cancelled() for f in futures)
        self.iterations += 1
        return record

    def _record_problems(self, problems: List[str]) -> None:
        for message in problems:
            print(f"perfbench: output check failed: {message}",
                  file=sys.stderr)
        if problems:
            self.accounting.add_failures(len(problems))
            self.problems.extend(problems)

    def loop(self, seconds: float, modes: Sequence[bool]):
        """Rounds of one iteration per entry of ``modes`` (``True`` =
        traced) until ``seconds`` have passed, at least one round.
        Alternating the modes keeps drift of the host out of the ratio
        of traced to untraced wall time.  Returns the untraced and the
        traced records."""
        done: Dict[bool, List[Dict[str, float]]] = {False: [], True: []}
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not (
                done[False] or done[True]):
            for traced in modes:
                record = self.iteration(traced)
                if record is None:
                    return done[False], done[True]
                done[traced].append(record)
        return done[False], done[True]

    def finish_checks(self) -> None:
        if self.outcome is None:
            return
        self._record_problems(
            self.workload.check_once(self.job, self.outcome, self.ref))

    def totals(self) -> Dict[str, int]:
        snap = self.accounting.snapshot()
        attempted = int(snap["started"]) + self.extra_sims
        return {"attempted": max(1, attempted), "failed": int(snap["failed"])}


def end_to_end(run: Run, records, setup) -> Dict[str, Dict]:
    """The end-to-end metrics, with times in reference-host seconds (see
    :mod:`perfbench.hostspeed`) where the job runs in this process; a job
    on the worker pool keeps its host seconds."""
    from perfbench import hostspeed

    p99, max_load = run.workload.sim_metrics(run.job, run.outcome)
    totals = run.totals()
    setup_times, setup_kernel = setup
    run_scale = 1.0
    if not run.workload.pool_workers:
        run_scale = hostspeed.scale(setup_kernel
                                    + [r["kernel_s"] for r in records])
    return {
        "wall_s": quartiles([r["wall_s"] * run_scale for r in records]),
        "events_per_s": quartiles([r["events"] / (r["wall_s"] * run_scale)
                                   for r in records]),
        "setup_s": quartiles([t * run_scale for t in setup_times]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in records]),
        "ok_fraction": quartiles([(totals["attempted"] - totals["failed"])
                                  / totals["attempted"]]),
        "sim_p99_ms": quartiles([p99]),
        "sim_max_load": quartiles([max_load]),
    }


def per_layer(run: Run, untraced, traced) -> Dict[str, Dict]:
    """Per-layer metrics: medians over the traced iterations."""
    import numpy as np

    from perfbench.layers import LAYERS, SPAN_NAMES, self_times

    rows = run.tracer.rows()
    own = self_times(rows)
    code = rows[:, 1].astype(int)
    iteration = rows[:, 4].astype(int)
    duration = rows[:, 3] - rows[:, 2]

    def per_iteration(fn) -> Dict:
        return quartiles([fn(r) for r in traced])

    def span_total(name, values=duration):
        c = SPAN_NAMES.index(name)

        def total(record):
            mask = (code == c) & (iteration == record["index"])
            return float(values[mask].sum())
        return total

    def span_count(name):
        return span_total(name, np.ones(len(rows)))

    def layer_self(layer):
        codes = [i for i, n in enumerate(SPAN_NAMES)
                 if n.split(".")[0] == layer]

        def total(record):
            mask = np.isin(code, codes) & (iteration == record["index"])
            return float(own[mask].sum())
        return total

    def ratio(num, den):
        return lambda r: r[num] / r[den] if r[den] else 0.0

    metrics = {
        "workloads.generate_s": per_iteration(span_total("workloads.generate")),
        "workloads.queries": per_iteration(span_total(
            "workloads.generate", rows[:, 5])),
        "core.estimator_build_s": per_iteration(
            span_total("core.estimator_build")),
        "core.estimator_builds": per_iteration(
            span_count("core.estimator_build")),
        "core.budget_table_s": per_iteration(span_total("core.budget_table")),
        "cluster.simulate_calls": per_iteration(
            span_count("cluster.simulate")),
        "cluster.simulate_s": per_iteration(span_total("cluster.simulate")),
        "cluster.kernel_s": per_iteration(span_total("cluster.simulate",
                                                     own)),
        "cluster.us_per_event": per_iteration(
            lambda r: 1e6 * span_total("cluster.simulate")(r) / r["events"]
            if r["events"] else 0.0),
        "faults.materialize_s": per_iteration(
            span_total("faults.materialize")),
    }
    for name in ("tasks_retried", "tasks_hedged", "tasks_cancelled",
                 "tasks_failed", "server_failures"):
        metrics[f"faults.{name}"] = per_iteration(lambda r, n=name: r[n])
    metrics.update({
        "replicas.duplicate_fraction": per_iteration(
            ratio("rep_hedged", "rep_base")),
        "replicas.duplicate_base": per_iteration(lambda r: r["rep_base"]),
        "replicas.hedges_suppressed": per_iteration(
            lambda r: r["hedges_suppressed"]),
        "replicas.delay_scale": per_iteration(
            lambda r: r["rep_delay_scale"]),
        "overload.rejected_fraction": per_iteration(
            ratio("rejected", "queries")),
    })
    for name in ("degraded_queries", "shed_tasks", "breaker_trips",
                 "cdf_rebootstraps"):
        metrics[f"overload.{name}"] = per_iteration(lambda r, n=name: r[n])
    route = span_total("federation.route")
    merge = span_total("federation.merge")
    metrics.update({
        "federation.route_s": per_iteration(route),
        "federation.merge_s": per_iteration(merge),
        "federation.shard_s": per_iteration(
            lambda r: span_total("federation.simulate")(r) - route(r)
            - merge(r)),
        "experiments.sims_submitted": per_iteration(
            lambda r: r.get("sims_submitted", 0)),
        "experiments.sims_cancelled": per_iteration(
            lambda r: r.get("sims_cancelled", 0)),
        "experiments.useful_fraction": per_iteration(
            lambda r: 1.0 - r["sims_cancelled"] / r["sims_submitted"]
            if r.get("sims_submitted") else 0.0),
        "obs.attribution_s": per_iteration(span_total("obs.attribution")),
        "obs.slo_s": per_iteration(span_total("obs.slo")),
        "obs.export_s": per_iteration(span_total("obs.export")),
        "obs.report_s": per_iteration(span_total("obs.report")),
        "sim.des_s": per_iteration(span_total("sim.run")),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_iteration(layer_self(layer))
    extras = run.workload.layer_extras(run.job, run.outcome)
    for name in ("experiments.parallel_efficiency", "obs.trace_overhead_x",
                 "obs.events_recorded", "sim.des_events",
                 "sim.des_over_calendar_x"):
        metrics[name] = quartiles([extras.get(name, 0.0)])
    metrics["bench.trace_overhead_x"] = quartiles(
        [statistics.median(r["wall_s"] for r in traced)
         / statistics.median(r["wall_s"] for r in untraced)])
    return metrics


def write_spans(run: Run) -> Path:
    from perfbench.layers import SPAN_NAMES

    rows = run.tracer.rows()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{run.args.workload}-seed{run.args.seed}.json"
    spans = [{"id": i, "parent": int(r[0]), "name": SPAN_NAMES[int(r[1])],
              "start": r[2], "end": r[3], "iteration": int(r[4]),
              "count": int(r[5])} for i, r in enumerate(rows)]
    path.write_text(json.dumps({"dropped": run.tracer.dropped,
                                "spans": spans}) + "\n", encoding="utf-8")
    return path


def units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def report(prov, samples: Dict[str, List[float]],
           metrics: Dict[str, Dict], totals, correct: bool) -> None:
    unit_of = units()
    print("perfbench provenance " + json.dumps(prov, sort_keys=True))
    for name, values in samples.items():
        print(f"perfbench samples {name} " + json.dumps(values))
    for name, stats in metrics.items():
        print(f"perfbench metric {name} median={stats['median']!r} "
              f"q1={stats['q1']!r} q3={stats['q3']!r} n={stats['n']} "
              f"unit={unit_of[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": stats["median"], "unit": unit_of[name]}
                    for name, stats in metrics.items()},
    }))


def record_reference(args) -> int:
    """Run every simulation of one workload and seed once and store the
    digests of their outputs as that seed's reference."""
    from perfbench.checks import store

    record_dir = OUT_DIR / f"record-{args.workload}-{args.seed}"
    shutil.rmtree(record_dir, ignore_errors=True)
    run = Run(args, record_dir)
    run.loop(0.0, (False, True))
    run.finish_checks()
    run.workload.sim_metrics(run.job, run.outcome)
    run.workload.layer_extras(run.job, run.outcome)
    run.accounting.wait_idle()
    count = store(args.workload, args.seed, record_dir)
    shutil.rmtree(record_dir, ignore_errors=True)
    print(f"recorded {count} digests for {args.workload} seed {args.seed}")
    return 1 if run.problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no repro package under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail("no BENCHMARK.json at the repository root")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    start_tracker()
    try:
        if args.setup_probe:
            workload.setup(workload.build(args.seed))
            print("READY", flush=True)
            return 0
        if args.record_reference:
            return record_reference(args)
        return measure(args, workload)
    finally:
        stop_workers()


def measure(args, workload) -> int:
    setup = ([], []) if args.trace else measure_setup(args.workload,
                                                      args.seed)
    run = Run(args)
    untraced, traced = run.loop(args.seconds,
                                (False, True) if args.trace else (False,))
    run.finish_checks()
    correct = not run.problems and run.outcome is not None
    if args.trace and correct:
        metrics = per_layer(run, untraced, traced)
        write_spans(run)
    elif correct:
        metrics = end_to_end(run, untraced, setup)
        error = workload.model_error(run.outcome)
        if error:
            print("perfbench model_error (information only, not a gate) "
                  + json.dumps(error, sort_keys=True))
    else:
        metrics = {}
    run.accounting.wait_idle()
    totals = run.totals()
    correct = correct and totals["failed"] == 0
    samples = {"host_wall_s": [r["wall_s"] for r in untraced],
               "kernel_s": [r["kernel_s"] for r in untraced]}
    if args.trace:
        samples["host_traced_wall_s"] = [r["wall_s"] for r in traced]
    else:
        samples["host_setup_s"], samples["setup_kernel_s"] = setup
    report(provenance(args, run.ref.available), samples, metrics, totals,
           correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
