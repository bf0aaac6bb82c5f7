"""The two simulation paths implement the same semantics.

The coroutine model (QueryHandler + TaskServer on the DES kernel) and
the optimized event-calendar loop (repro.cluster.simulation) are driven
with the *same trace* — pre-assigned servers and deterministic
per-server service times so no randomness can diverge — and must
produce identical per-query latencies under every policy.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.core.admission import DeadlineMissRatioAdmission
from repro.core.deadline import DeadlineEstimator
from repro.core.handler import QueryHandler
from repro.core.policies import get_policy
from repro.core.server import TaskServer
from repro.distributions import Deterministic
from repro.sim import Environment
from repro.types import QuerySpec, ServiceClass

N_SERVERS = 8


def build_trace(n_queries=400, seed=9):
    """Random trace with pre-assigned servers and two classes."""
    rng = np.random.default_rng(seed)
    classes = [
        ServiceClass("class-I", slo_ms=5.0, priority=0),
        ServiceClass("class-II", slo_ms=7.5, priority=1),
    ]
    specs = []
    now = 0.0
    for qid in range(n_queries):
        now += float(rng.exponential(0.35))
        fanout = int(rng.choice([1, 2, 4, 8]))
        servers = tuple(
            int(s) for s in rng.choice(N_SERVERS, size=fanout, replace=False)
        )
        specs.append(
            QuerySpec(
                query_id=qid,
                arrival_time=now,
                fanout=fanout,
                service_class=classes[int(rng.integers(2))],
                servers=servers,
            )
        )
    return specs


def server_cdfs():
    """Deterministic heterogeneous service times: 0.5 .. 1.2 ms."""
    return {
        sid: Deterministic(0.5 + 0.1 * sid) for sid in range(N_SERVERS)
    }


def run_kernel_path(specs, policy_name):
    env = Environment()
    policy = get_policy(policy_name)
    cdfs = server_cdfs()
    estimator = DeadlineEstimator(dict(cdfs))
    servers = [
        TaskServer(env, sid, policy, cdfs[sid], np.random.default_rng(sid))
        for sid in range(N_SERVERS)
    ]
    handler = QueryHandler(env, servers, estimator, policy,
                           np.random.default_rng(123))
    env.process(handler.drive(specs))
    env.run()
    return {
        record.spec.query_id: record.latency for record in handler.completed
    }


def run_fast_path(specs, policy_name):
    config = ClusterConfig(
        n_servers=N_SERVERS,
        policy=policy_name,
        specs=specs,
        server_cdfs=server_cdfs(),
        warmup_fraction=0.0,
    )
    result = simulate(config)
    return {spec.query_id: result.latency[i] for i, spec in enumerate(specs)}


@pytest.mark.parametrize("policy_name",
                         ["fifo", "priq", "t-edf", "tailguard", "wrr"])
def test_both_paths_agree_exactly(policy_name):
    specs = build_trace()
    kernel = run_kernel_path(specs, policy_name)
    fast = run_fast_path(specs, policy_name)
    assert set(kernel) == set(fast)
    for qid in kernel:
        assert kernel[qid] == pytest.approx(fast[qid], abs=1e-9), (
            f"query {qid} diverged under {policy_name}"
        )


def test_policies_actually_differ_on_this_trace():
    """Guard against a vacuous equivalence: the trace must be contended
    enough that at least two policies order work differently."""
    specs = build_trace()
    outcomes = {
        policy: tuple(sorted(run_fast_path(specs, policy).values()))
        for policy in ("fifo", "tailguard")
    }
    assert outcomes["fifo"] != outcomes["tailguard"]


@pytest.mark.parametrize("stream", ["generated", "unplaced-specs"])
@pytest.mark.parametrize("admission", [False, True])
@pytest.mark.parametrize("policy_name", ["fifo", "t-edf", "tailguard"])
def test_static_loop_matches_generic_loop(policy_name, admission, stream,
                                          contended_config, kernel_loops,
                                          assert_same_run):
    """The static loop replays the generic no-fault loop bit for bit,
    admission hook and caller-supplied unplaced streams included.
    Timeline sampling forces the generic loop without perturbing any
    event."""
    def config(**changes):
        if admission:
            changes["admission"] = DeadlineMissRatioAdmission(
                threshold=0.2, window_tasks=200, min_samples=50)
        return contended_config(policy_name,
                                unplaced_specs=stream == "unplaced-specs",
                                **changes)

    static = simulate(config())
    assert kernel_loops == ["_static_loop"]
    generic = simulate(config(timeline_interval_ms=1e6))
    assert kernel_loops == ["_static_loop"], "sampling must force generic"
    assert_same_run(static, generic)
    assert static.tasks_missed_deadline > 0
    assert static.rejected.any() == admission
