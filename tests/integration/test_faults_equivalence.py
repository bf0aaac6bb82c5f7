"""Both simulation paths implement identical fault semantics.

Same pattern as test_equivalence.py — one shared trace, pre-assigned
servers, deterministic per-server service times — but now with fault
plans layered on: pause-mode downtime windows, kill-mode crashes with
retry/requeue, hedged requests, straggler episodes, and a seeded MTBF/
MTTR crash process.  The composable DES-kernel path (QueryHandler +
TaskServer + FaultManager) and the fault-aware event calendar
(repro.cluster.faultsim) must produce identical per-query latencies and
agree on which queries failed.
"""

import math

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.core.deadline import DeadlineEstimator
from repro.core.handler import QueryHandler
from repro.core.policies import get_policy
from repro.core.server import TaskServer
from repro.distributions import Deterministic
from repro.faults import (
    CrashProcess,
    Downtime,
    FaultPlan,
    HedgePolicy,
    RetryPolicy,
    StragglerEpisode,
    fault_horizon,
    install_faults,
)
from repro.sim import Environment
from repro.types import QuerySpec, ServiceClass

N_SERVERS = 8


def build_trace(n_queries=400, seed=9):
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
    return {
        sid: Deterministic(0.5 + 0.1 * sid) for sid in range(N_SERVERS)
    }


#: The fault plans under test.  Times use odd decimals so no fault
#: event ever ties exactly with a completion (the two paths order
#: different event kinds at equal times by different rules).
PLANS = {
    "pause": FaultPlan(
        downtimes=(
            Downtime(2, 10.113, 17.391),
            Downtime(5, 30.207, 38.119),
            Downtime(2, 60.551, 64.723),
        ),
    ),
    "kill-retry": FaultPlan(
        downtimes=(
            Downtime(2, 10.113, 17.391),
            Downtime(5, 30.207, 38.119),
            Downtime(2, 60.551, 64.723),
        ),
        retry=RetryPolicy(max_retries=3, backoff_ms=0.377),
    ),
    "hedge-straggler": FaultPlan(
        downtimes=(Downtime(1, 20.117, 26.393),),
        stragglers=(StragglerEpisode((3, 4), 40.109, 70.457, 3.0),),
        hedge=HedgePolicy(delay_ms=2.131, max_hedges=1),
    ),
    "everything": FaultPlan(
        downtimes=(Downtime(6, 15.359, 22.901),),
        crashes=CrashProcess(mtbf_ms=80.0, mttr_ms=6.0,
                             server_ids=(0, 3), seed=5),
        stragglers=(StragglerEpisode((7,), 35.183, 55.621, 2.5),),
        retry=RetryPolicy(max_retries=2, backoff_ms=0.531,
                          timeout_ms=9.207),
        hedge=HedgePolicy(delay_ms=3.313, max_hedges=1),
    ),
}


def run_kernel_path(specs, policy_name, plan):
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
    install_faults(env, handler, servers, plan,
                   fault_horizon(specs[-1].arrival_time), cdfs)
    env.process(handler.drive(specs))
    env.run()
    latencies = {
        record.spec.query_id: record.latency for record in handler.completed
    }
    failed = {record.spec.query_id for record in handler.failed}
    return latencies, failed


def run_fast_path(specs, policy_name, plan):
    config = ClusterConfig(
        n_servers=N_SERVERS,
        policy=policy_name,
        specs=specs,
        server_cdfs=server_cdfs(),
        warmup_fraction=0.0,
    ).with_faults(plan)
    result = simulate(config)
    latencies = {
        spec.query_id: result.latency[i]
        for i, spec in enumerate(specs)
        if not math.isnan(result.latency[i])
    }
    failed = {
        spec.query_id for i, spec in enumerate(specs) if result.failed[i]
    }
    return latencies, failed


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("policy_name", ["fifo", "tailguard"])
def test_fault_paths_agree_exactly(policy_name, plan_name):
    specs = build_trace()
    plan = PLANS[plan_name]
    kernel_lat, kernel_failed = run_kernel_path(specs, policy_name, plan)
    fast_lat, fast_failed = run_fast_path(specs, policy_name, plan)
    assert kernel_failed == fast_failed
    assert set(kernel_lat) == set(fast_lat)
    for qid in kernel_lat:
        assert kernel_lat[qid] == pytest.approx(fast_lat[qid], abs=1e-9), (
            f"query {qid} diverged under {policy_name}/{plan_name}"
        )


def test_faults_actually_bite():
    """Guard against vacuous equivalence: the pause plan must change
    latencies versus a fault-free run of the same trace."""
    specs = build_trace()
    faulty, _ = run_fast_path(specs, "tailguard", PLANS["pause"])
    config = ClusterConfig(
        n_servers=N_SERVERS,
        policy="tailguard",
        specs=specs,
        server_cdfs=server_cdfs(),
        warmup_fraction=0.0,
    )
    clean = simulate(config)
    clean_lat = {spec.query_id: clean.latency[i]
                 for i, spec in enumerate(specs)}
    assert any(
        abs(faulty[qid] - clean_lat[qid]) > 1e-9 for qid in faulty
    )


def test_kill_mode_and_hedging_leave_no_query_behind():
    """With mitigations on and generous budgets, every query completes
    despite crashes."""
    specs = build_trace()
    latencies, failed = run_fast_path(specs, "tailguard",
                                      PLANS["hedge-straggler"])
    assert not failed
    assert len(latencies) == len(specs)


def test_mitigations_cut_the_crash_tail():
    """The ext_fault_sweep claim: when the MTTR dwarfs the SLO, hedging
    and kill-mode retry each cut p99 by a large factor versus letting
    queued tasks wait out the repair."""
    from repro.experiments.extensions import ext_fault_sweep

    report = ext_fault_sweep(
        n_queries=3_000, mtbf_values=(500.0,), policies=("tailguard",),
    )
    p99 = {row["mitigation"]: row["p99_ms"] for row in report.rows}
    assert p99["none"] > 10.0  # the tail absorbs the 20 ms MTTR
    assert p99["hedge"] < 0.25 * p99["none"]
    assert p99["retry"] < 0.25 * p99["none"]
    assert p99["retry+hedge"] < 0.25 * p99["none"]
    hedged = {row["mitigation"]: row["tasks_hedged"] for row in report.rows}
    assert hedged["hedge"] > 0 and hedged["none"] == 0


#: Mitigation-free plans: crashes and downtimes *pause* the in-service
#: task, so the mitigated loop runs with no retry and no hedge.
PAUSE_SHAPES = {
    "crash-only": FaultPlan(
        crashes=CrashProcess(mtbf_ms=40.0, mttr_ms=3.0, seed=11),
    ),
    "downtime-straggler": FaultPlan(
        downtimes=(Downtime(2, 8.113, 13.391), Downtime(5, 22.207, 28.119)),
        stragglers=(StragglerEpisode((7,), 18.183, 40.621, 2.5),),
    ),
}


@pytest.mark.parametrize("shape", sorted(PAUSE_SHAPES))
@pytest.mark.parametrize("policy_name", ["fifo", "t-edf", "tailguard"])
def test_mitigated_loop_pauses_like_generic_loop(policy_name, shape,
                                                 contended_config,
                                                 kernel_loops,
                                                 assert_same_run):
    """Without retry or hedge the mitigated loop replays the generic
    fault loop's pause semantics bit for bit.  Timeline sampling forces
    the generic loop without perturbing any event."""
    config = contended_config(policy_name, faults=PAUSE_SHAPES[shape])
    fast = simulate(config)
    assert kernel_loops == ["_fault_loop_mitigated"]
    generic = simulate(config.evolve(timeline_interval_ms=1e6))
    assert kernel_loops == ["_fault_loop_mitigated"], (
        "sampling must force generic")
    assert_same_run(fast, generic)
    assert fast.server_failures > 0
    assert fast.tasks_retried == fast.tasks_cancelled == 0
