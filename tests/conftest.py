"""Shared fixtures for the TailGuard reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.cluster.faultsim as faultsim
import repro.cluster.simulation as simulation
from repro.cluster import ClusterConfig
from repro.types import ServiceClass
from repro.workloads import (
    PoissonArrivals,
    Workload,
    generate_queries,
    get_workload,
    inverse_proportional_fanout,
    single_class_mix,
    uniform_class_mix,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def masstree():
    return get_workload("masstree")


@pytest.fixture
def single_class() -> ServiceClass:
    return ServiceClass("single", slo_ms=1.0)


@pytest.fixture
def small_workload(masstree, single_class) -> Workload:
    """A small paper-style workload (fanouts {1, 10, 100}, one class)."""
    return Workload(
        name="small",
        arrivals=PoissonArrivals(1.0),
        fanout=inverse_proportional_fanout([1, 10, 100]),
        class_mix=single_class_mix(single_class),
        service_time=masstree.service_time,
    )


@pytest.fixture
def small_config(small_workload) -> ClusterConfig:
    return ClusterConfig(
        n_servers=100,
        policy="tailguard",
        workload=small_workload,
        n_queries=3_000,
        seed=7,
    ).at_load(0.30)


@pytest.fixture
def kernel_loops(monkeypatch):
    """Names of the specialized calendar loops run so far, in call order.

    Spies on the static no-fault loop and the fault calendar's mitigated
    loop; a ``simulate`` call that appends nothing ran a generic loop.
    """
    ran = []
    for module, name in ((simulation, "_static_loop"),
                         (faultsim, "_fault_loop_mitigated")):
        def spy(*args, _loop=getattr(module, name), _name=name, **kwargs):
            ran.append(_name)
            return _loop(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return ran


@pytest.fixture
def assert_same_run():
    """Assert two runs agree bit for bit: per-query arrays and counters."""
    def check(a, b) -> None:
        for name in ("latency", "arrival", "fanout", "class_index",
                     "rejected", "measured", "failed"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            if x is not None:
                assert np.array_equal(x, y, equal_nan=True), name
        for name in ("tasks_total", "tasks_missed_deadline",
                     "busy_time_total", "duration", "tasks_failed",
                     "tasks_retried", "tasks_hedged", "tasks_cancelled",
                     "server_failures", "offered_load", "mean_service_ms"):
            assert getattr(a, name) == getattr(b, name), name

    return check


@pytest.fixture
def contended_config(masstree):
    """Factory for a small, contended two-class cluster (16 servers,
    load 0.85) on which FIFO, T-EDFQ and TF-EDFQ order work differently.

    ``unplaced_specs=True`` hands the same kind of stream in as
    ``specs=`` with no pre-placed servers, the way a federation shard
    receives it.  Call the factory once per run: admission controllers
    are stateful.
    """
    workload = Workload(
        name="contended",
        arrivals=PoissonArrivals(1.0),
        fanout=inverse_proportional_fanout([1, 4, 16]),
        class_mix=uniform_class_mix([
            ServiceClass("class-I", slo_ms=0.9, priority=0),
            ServiceClass("class-II", slo_ms=1.4, priority=1),
        ]),
        service_time=masstree.service_time,
    ).at_load(0.85, 16)

    def build(policy: str, *, unplaced_specs: bool = False,
              **changes) -> ClusterConfig:
        config = ClusterConfig(n_servers=16, policy=policy,
                               workload=workload, n_queries=1500, seed=42)
        if unplaced_specs:
            specs = generate_queries(workload, config.n_queries,
                                     np.random.default_rng(17))
            config = ClusterConfig(
                n_servers=16, policy=policy, specs=specs, seed=42,
                server_cdfs=config.resolve_server_cdfs())
        return config.evolve(**changes) if changes else config

    return build
