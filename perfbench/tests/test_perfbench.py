"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
The two end-to-end tests run ``run.py`` once per trace mode on the
cheapest workload with ``--seconds 0`` (one iteration each).
"""

import json
import multiprocessing
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from perfbench import checks, hostspeed, layers, workloads
from perfbench.checks import Reference, input_key, output_digest
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_run(policy="tailguard"):
    config = workloads._single_class(7, 2_000).at_load(0.6).evolve(
        policy=policy)
    return config, repro.simulate(config)


def reference_for(config, result):
    ref = Reference("none", 0)
    ref.entries = {input_key(config, result): output_digest(result)}
    return ref


# ----------------------------------------------------------------------
# The output check
# ----------------------------------------------------------------------
def test_check_accepts_the_recorded_output():
    config, result = small_run()
    assert reference_for(config, result).check_result(config, result) == []


def test_check_rejects_a_corrupted_latency_array():
    config, result = small_run()
    ref = reference_for(config, result)
    result.latency[123] += 1e-9
    problems = ref.check_result(config, result)
    assert problems and "digest" in problems[0]


@pytest.mark.parametrize("field", ["rejected", "class_index", "fanout"])
def test_check_rejects_other_corrupted_arrays(field):
    config, result = small_run()
    ref = reference_for(config, result)
    array = getattr(result, field)
    array[5] = not array[5] if array.dtype == bool else array[5] + 1
    assert ref.check_result(config, result)


def test_invariants_catch_a_negative_latency_without_a_reference():
    config, result = small_run()
    result.latency[0] = -1.0
    problems = Reference("none", 0).check_result(config, result)
    assert any("negative" in p for p in problems)


def test_invariants_catch_a_duplicate_budget_overrun():
    job = workloads.Resilience().build(0)
    config = job["configs"][2].evolve(n_queries=2_000)
    result = repro.simulate(config)
    assert checks.invariants(config, result) == []
    result.tasks_hedged = result.fanout.sum()   # 100% duplicates
    assert any("duplicate" in p for p in checks.invariants(config, result))


def test_accounting_counts_a_failed_check():
    def always_wrong(config, result):
        return ["wrong"]

    accounting = layers.Accounting(always_wrong)
    simulate = accounting.wrap(repro.simulate)
    config = workloads._single_class(3, 500).at_load(0.5)
    simulate(config)
    snap = accounting.snapshot()
    assert snap["sims"] == 1 and snap["failed"] == 1
    assert snap["events"] >= 500


# ----------------------------------------------------------------------
# Inputs follow the seed
# ----------------------------------------------------------------------
def first_stream(workload, seed):
    """The first config's generated query stream, as ``simulate`` makes it."""
    from repro.workloads.generator import generate_query_arrays

    job = workload.build(seed)
    config = job["configs"][0]
    spec_rng = np.random.default_rng(config.seed).spawn(3)[0]
    arrays = generate_query_arrays(config.workload, 300, spec_rng)
    if "specs" in job:
        arrays += (np.array([s.arrival_time for s in job["specs"]]),)
    return arrays


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_inputs(name):
    workload = WORKLOADS[name]
    one, again, two = (first_stream(workload, s) for s in (1, 1, 2))
    assert all(np.array_equal(a, b) for a, b in zip(one, again))
    assert not all(np.array_equal(a, b) for a, b in zip(one, two))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _child_work(wrapped):
    wrapped(0.0)


def test_spans_nest_and_self_time_subtracts_children():
    tracer = layers.Tracer(capacity=64)
    leaf = tracer.span("workloads.generate", lambda x: sum(range(20_000)))
    middle = tracer.span("cluster.simulate", lambda x: [leaf(x), leaf(x)])
    tracer.enabled.value = 1
    tracer.run("bench.iteration", middle, 0)
    context = multiprocessing.get_context("fork")
    outer = tracer.span("experiments.run_simulations", lambda: (
        child.start(), child.join(timeout=30)))
    child = context.Process(target=_child_work, args=(leaf,))
    outer()
    assert not child.is_alive()
    rows = tracer.rows()
    assert len(rows) == 6
    names = [layers.SPAN_NAMES[int(code)] for code in rows[:, 1]]
    assert names == ["bench.iteration", "cluster.simulate",
                     "workloads.generate", "workloads.generate",
                     "experiments.run_simulations", "workloads.generate"]
    parents = rows[:, 0].astype(int).tolist()
    assert parents == [-1, 0, 1, 1, -1, 4]   # the forked child's span too
    for i, parent in enumerate(parents):
        if parent >= 0:
            assert rows[parent, 2] <= rows[i, 2] <= rows[i, 3] \
                <= rows[parent, 3]
    own = layers.self_times(rows)
    duration = rows[:, 3] - rows[:, 2]
    assert own[1] == pytest.approx(duration[1] - duration[2] - duration[3])
    assert own[2] == pytest.approx(duration[2])
    assert (own >= -1e-12).all()


def test_self_time_counts_overlapping_children_once():
    rows = np.array([
        [-1, 0, 0.0, 10.0, 0, 0],
        [0, 4, 1.0, 6.0, 0, 0],      # two workers, overlapping
        [0, 4, 2.0, 8.0, 0, 0],
        [0, 4, 9.0, 12.0, 0, 0],     # outlives its parent: clipped
    ])
    own = layers.self_times(rows)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)


# ----------------------------------------------------------------------
# What run.py prints
# ----------------------------------------------------------------------
def run_benchmark(trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "federation",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def untraced_output():
    return run_benchmark(0)


@pytest.fixture(scope="module")
def traced_output():
    return run_benchmark(1)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metric_names_match_benchmark_json(untraced_output):
    result = json.loads(untraced_output[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_host_speed_scale_cancels_a_uniform_slowdown():
    host, kernel = [2.0, 2.4, 2.2], [0.05, 0.06, 0.055]
    fast = statistics.median(host) * hostspeed.scale(kernel)
    slow = (statistics.median([1.7 * t for t in host])
            * hostspeed.scale([1.7 * k for k in kernel]))
    assert slow == pytest.approx(fast)


def test_times_are_host_times_scaled_by_the_kernel(untraced_output):
    samples = {}
    for line in untraced_output:
        if line.startswith("perfbench samples "):
            _, _, name, values = line.split(" ", 3)
            samples[name] = json.loads(values)
    metrics = json.loads(untraced_output[-1])["metrics"]
    scale = hostspeed.scale(samples["setup_kernel_s"] + samples["kernel_s"])
    assert metrics["wall_s"]["value"] == pytest.approx(
        statistics.median(samples["host_wall_s"]) * scale)
    assert metrics["setup_s"]["value"] == pytest.approx(
        statistics.median(samples["host_setup_s"]) * scale)


def test_per_layer_metric_names_match_benchmark_json(traced_output):
    result = json.loads(traced_output[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_run_spans_nest(traced_output):
    path = ROOT / ".perfbench" / "spans-federation-seed0.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    spans = document["spans"]
    assert document["dropped"] == 0 and spans
    names = {s["name"] for s in spans}
    assert {"federation.simulate", "federation.route", "federation.merge",
            "cluster.simulate", "workloads.generate"} <= names
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert parent["iteration"] == span["iteration"]
