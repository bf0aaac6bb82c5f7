"""Both simulation paths implement identical replica-layer semantics.

Same pattern as test_faults_equivalence.py — one shared trace,
pre-assigned servers, deterministic per-server service times, a fault
plan with crashes, stragglers, retries, and hedging — now with a
:class:`repro.replicas.ReplicaPolicy` layered on.  The composable
DES-kernel path (QueryHandler + TaskServer + FaultManager +
install_replicas) and the fault-aware event calendar
(repro.cluster.faultsim) must produce identical per-query latencies,
agree on which queries failed, and drive their shared
:class:`ReplicaController` through the identical decision sequence
(the controller is RNG-free, so equal feed order means equal counters,
equal suppression tallies, and an equal hedge-delay trace).

A third axis pins the *specialized* mitigated timer-lane loop against
the generic event loop: the same workload-driven config runs once
eligible for the fast loop and once with timeline sampling enabled
(which forces the generic loop without changing any latency), and the
results must be bit-identical.
"""

import math

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.core.deadline import DeadlineEstimator
from repro.core.handler import QueryHandler
from repro.core.policies import get_policy
from repro.core.server import TaskServer
from repro.distributions import Deterministic, Exponential
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
from repro.replicas import (
    AdaptiveHedgePolicy,
    HedgeSuppressionPolicy,
    ReplicaPolicy,
    ReplicaScorer,
    install_replicas,
)
from repro.sim import Environment
from repro.types import QuerySpec, ServiceClass
from repro.workloads import (
    FixedFanout,
    PoissonArrivals,
    Workload,
    single_class_mix,
)

N_SERVERS = 8


def build_trace(n_queries=400, seed=17):
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


#: One busy plan — crashes, stragglers, retries, hedges — so every
#: replica-layer code path (scored requeue, hedge gating, outcome
#: accounting on wins, losses, and slot failures) actually fires.
PLAN = FaultPlan(
    downtimes=(Downtime(6, 15.359, 22.901),),
    crashes=CrashProcess(mtbf_ms=80.0, mttr_ms=6.0,
                         server_ids=(0, 3), seed=5),
    stragglers=(StragglerEpisode((7,), 35.183, 55.621, 2.5),),
    retry=RetryPolicy(max_retries=2, backoff_ms=0.531, timeout_ms=9.207),
    hedge=HedgePolicy(delay_ms=3.313, max_hedges=2),
)

REPLICA_POLICIES = {
    "scorer-tail": ReplicaPolicy(
        scorer=ReplicaScorer(tail_weight=0.5, tail_alpha=0.2),
    ),
    "suppression": ReplicaPolicy(
        suppression=HedgeSuppressionPolicy(
            pressure_alpha=0.1, pressure_threshold_ms=0.6,
            score_threshold=6.0),
    ),
    "adaptive": ReplicaPolicy(
        adaptive=AdaptiveHedgePolicy(
            window_hedges=40, min_samples=10, ctl_interval_ms=10.0,
            increase=1.5, decrease=0.2, max_duplicate_fraction=0.5),
    ),
    "full": ReplicaPolicy(
        scorer=ReplicaScorer(tail_weight=0.5, tail_alpha=0.2),
        suppression=HedgeSuppressionPolicy(
            pressure_alpha=0.1, pressure_threshold_ms=0.6),
        adaptive=AdaptiveHedgePolicy(
            window_hedges=40, min_samples=10, ctl_interval_ms=10.0,
            max_duplicate_fraction=0.4),
    ),
}


def controller_fingerprint(rc):
    return {
        "base_launches": rc.base_launches,
        "hedges_launched": rc.hedges_launched,
        "hedges_suppressed": rc.hedges_suppressed,
        "suppressed_by": dict(rc.suppressed_by),
        "hedge_wins": rc.hedge_wins,
        "hedge_losses": rc.hedge_losses,
        "delay_trace": list(rc.delay_trace),
        "tail_ewma": list(rc.tail_ewma),
        "pressure": rc.pressure,
    }


def run_kernel_path(specs, policy_name, rpolicy):
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
    install_faults(env, handler, servers, PLAN,
                   fault_horizon(specs[-1].arrival_time), cdfs)
    rc = install_replicas(env, handler, servers, rpolicy)
    env.process(handler.drive(specs))
    env.run()
    latencies = {
        record.spec.query_id: record.latency for record in handler.completed
    }
    failed = {record.spec.query_id for record in handler.failed}
    return latencies, failed, rc


def run_fast_path(specs, policy_name, rpolicy):
    config = ClusterConfig(
        n_servers=N_SERVERS,
        policy=policy_name,
        specs=specs,
        server_cdfs=server_cdfs(),
        warmup_fraction=0.0,
    ).with_faults(PLAN).with_replicas(rpolicy)
    result = simulate(config)
    latencies = {
        spec.query_id: result.latency[i]
        for i, spec in enumerate(specs)
        if not math.isnan(result.latency[i])
    }
    failed = {
        spec.query_id for i, spec in enumerate(specs) if result.failed[i]
    }
    return latencies, failed, result.replicas


@pytest.mark.parametrize("rpolicy_name", sorted(REPLICA_POLICIES))
@pytest.mark.parametrize("policy_name", ["fifo", "tailguard"])
def test_replica_paths_agree_exactly(policy_name, rpolicy_name):
    specs = build_trace()
    rpolicy = REPLICA_POLICIES[rpolicy_name]
    kernel_lat, kernel_failed, kernel_rc = run_kernel_path(
        specs, policy_name, rpolicy)
    fast_lat, fast_failed, fast_rc = run_fast_path(
        specs, policy_name, rpolicy)
    assert kernel_failed == fast_failed
    assert set(kernel_lat) == set(fast_lat)
    for qid in kernel_lat:
        assert kernel_lat[qid] == pytest.approx(fast_lat[qid], abs=1e-9), (
            f"query {qid} diverged under {policy_name}/{rpolicy_name}"
        )
    # The controller is RNG-free: identical feed order must leave the
    # two instances in bit-identical states.
    assert controller_fingerprint(kernel_rc) == controller_fingerprint(
        fast_rc)
    # Guard against vacuous agreement: the plan hedges on both paths.
    assert fast_rc.hedges_launched > 0
    assert fast_rc.hedge_wins + fast_rc.hedge_losses > 0


def test_suppression_and_adaptivity_actually_fire():
    """The equivalence above would be vacuous if no gate ever tripped."""
    specs = build_trace()
    _, _, rc = run_fast_path(specs, "tailguard",
                             REPLICA_POLICIES["suppression"])
    assert rc.hedges_suppressed > 0
    _, _, rc = run_fast_path(specs, "tailguard",
                             REPLICA_POLICIES["adaptive"])
    assert len(rc.delay_trace) > 1, "AIMD never adjusted the delay"


def test_default_scorer_is_inert():
    """A depth-only scorer is exactly pick_server: adding it to a run
    must not change a single latency on either loop family."""
    specs = build_trace()
    base = ClusterConfig(
        n_servers=N_SERVERS,
        policy="tailguard",
        specs=specs,
        server_cdfs=server_cdfs(),
        warmup_fraction=0.0,
    ).with_faults(PLAN)
    plain = simulate(base)
    scored = simulate(base.with_replicas(ReplicaPolicy(
        scorer=ReplicaScorer())))
    np.testing.assert_array_equal(plain.latency, scored.latency)
    np.testing.assert_array_equal(plain.failed, scored.failed)
    assert plain.tasks_hedged == scored.tasks_hedged
    assert plain.tasks_retried == scored.tasks_retried


def workload_config(**changes):
    # Moderate load: saturating the cluster would trip the pressure
    # gate permanently and no hedge (hence no AIMD adjustment) would
    # ever happen — the equivalence would go vacuous.
    workload = Workload(
        name="replica-eq",
        arrivals=PoissonArrivals(2.6),
        fanout=FixedFanout(4),
        class_mix=single_class_mix(ServiceClass("only", slo_ms=4.0)),
        service_time=Exponential(rate=2.0),
    )
    config = ClusterConfig(
        n_servers=N_SERVERS,
        policy="tailguard",
        workload=workload,
        n_queries=3_000,
        seed=11,
        warmup_fraction=0.0,
        faults=FaultPlan(
            crashes=CrashProcess(mtbf_ms=120.0, mttr_ms=5.0,
                                 server_ids=(1, 4), seed=3),
            stragglers=(StragglerEpisode((2, 5), 40.0, 160.0, 3.0),),
            retry=RetryPolicy(max_retries=2, backoff_ms=0.531,
                              timeout_ms=9.207),
            hedge=HedgePolicy(delay_ms=1.717, max_hedges=1),
        ),
        replicas=REPLICA_POLICIES["full"],
    )
    return config.evolve(**changes) if changes else config


@pytest.mark.parametrize("policy_name", ["fifo", "tailguard"])
def test_specialized_timer_lanes_match_generic_loop(policy_name):
    """The mitigated fast loop's replica wiring (adaptive hedge timers
    promoted from the pre-sorted deque lane to the main heap) replays
    the generic loop exactly.  Timeline sampling forces the generic
    loop without perturbing any event, so the two runs must agree
    bit-for-bit."""
    config = workload_config(policy=policy_name)
    fast = simulate(config)
    generic = simulate(config.evolve(timeline_interval_ms=1e6))
    np.testing.assert_array_equal(fast.latency, generic.latency)
    np.testing.assert_array_equal(fast.failed, generic.failed)
    assert fast.tasks_hedged == generic.tasks_hedged
    assert fast.tasks_retried == generic.tasks_retried
    assert fast.hedges_suppressed == generic.hedges_suppressed
    assert controller_fingerprint(fast.replicas) == controller_fingerprint(
        generic.replicas)
    assert fast.replicas.hedges_launched > 0
    assert len(fast.replicas.delay_trace) > 1


@pytest.mark.parametrize("policy_name", ["fifo", "t-edf", "tailguard"])
def test_replica_only_run_takes_mitigated_loop(policy_name, kernel_loops,
                                               assert_same_run):
    """A replica policy with no fault plan (scored placement, no retry or
    hedge) runs the mitigated loop and matches the generic loop."""
    config = workload_config(
        policy=policy_name, faults=None,
        replicas=ReplicaPolicy(scorer=ReplicaScorer(
            tail_weight=0.5, tail_alpha=0.2, scored_fanout=True)))
    fast = simulate(config)
    assert kernel_loops == ["_fault_loop_mitigated"]
    generic = simulate(config.evolve(timeline_interval_ms=1e6))
    assert kernel_loops == ["_fault_loop_mitigated"]
    assert_same_run(fast, generic)
    assert controller_fingerprint(fast.replicas) == controller_fingerprint(
        generic.replicas)
    # Scored placement moved work: the run differs from a plain one.
    plain = simulate(config.evolve(replicas=None))
    assert not np.array_equal(fast.latency, plain.latency)
