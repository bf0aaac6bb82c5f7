"""The optimized event-calendar simulation of the TailGuard model.

Semantics are identical to composing :class:`repro.core.handler.QueryHandler`
with :class:`repro.core.server.TaskServer` on the DES kernel (an
integration test asserts equal latencies on a shared trace), but the
implementation is a flat two-stream merge — sorted arrivals against a
completion heap — which runs large parameter sweeps in minutes.

Model recap (paper Fig. 2):

* a query arrives, passes admission control, fans out ``k_f`` tasks to
  distinct servers, all stamped with one queuing deadline ``t_D``
  (Eq. 6);
* each server serves one task at a time from a policy-ordered queue;
* deadline misses are observed at dequeue time (central queuing);
* a query completes when its slowest task does.

Two loops run it.  :func:`_static_loop` takes the common benchmarking
shape — every config :func:`_specializable` accepts — with each
per-event guard but admission compiled out; the generic loop below
:func:`simulate`'s preamble takes the rest (tracing, placement hooks,
pre-placed specs, PRIQ/WRR/custom policies, heterogeneous or online
CDFs, perturbations, timeline sampling).  Faulted, overload and replica
runs go to :mod:`repro.cluster.faultsim`.  All loops share
:func:`_finalize`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.results import SimulationResult, Timeline
from repro.core.deadline import DeadlineEstimator
from repro.core.policies import FIFOPolicy, TEDFPolicy, TFEDFPolicy
from repro.distributions import SampleStream
from repro.errors import ConfigurationError
from repro.obs.events import (
    CDF_UPDATE,
    DEADLINE_MISS,
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_REJECTED,
    SERVER_BUSY,
    SERVER_IDLE,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
)
from repro.types import ServiceClass
from repro.workloads.generator import generate_queries, generate_query_arrays


def _prepare_specs(config: ClusterConfig, spec_rng: np.random.Generator):
    """Materialize the spec list and its per-query arrays.

    Shared by the no-fault hot loop below and the fault-aware loop in
    :mod:`repro.cluster.faultsim` so both paths see byte-identical
    traces for a given config.
    """
    if config.specs is not None:
        specs = sorted(config.specs, key=lambda s: s.arrival_time)
    else:
        specs = generate_queries(config.workload, config.n_queries, spec_rng)
    if not specs:
        raise ConfigurationError("no queries to simulate")

    n = config.n_servers
    m = len(specs)
    classes: List[ServiceClass] = []
    class_of: Dict[str, int] = {}
    class_index = np.empty(m, dtype=np.int32)
    fanout = np.empty(m, dtype=np.int32)
    arrival = np.empty(m, dtype=np.float64)
    for i, spec in enumerate(specs):
        cls = spec.service_class
        idx = class_of.get(cls.name)
        if idx is None:
            idx = len(classes)
            class_of[cls.name] = idx
            classes.append(cls)
        elif classes[idx] != cls:
            raise ConfigurationError(f"two different classes named {cls.name!r}")
        class_index[i] = idx
        fanout[i] = spec.fanout
        arrival[i] = spec.arrival_time
        if spec.fanout > n:
            raise ConfigurationError(
                f"query {spec.query_id}: fanout {spec.fanout} > {n} servers"
            )
    return specs, classes, class_index, fanout, arrival


def _prepare_query_arrays(config: ClusterConfig,
                          spec_rng: np.random.Generator):
    """Array-form twin of :func:`_prepare_specs` for generated workloads.

    Consumes the exact same RNG variates as the spec path (``generate_queries``
    is itself built on :func:`generate_query_arrays`) but never
    materializes :class:`~repro.types.QuerySpec` objects — the dominant
    setup cost of large generated runs.  The class table is deduplicated
    in first-appearance order, matching the spec loop, so ``class_index``
    values and the ``classes`` tuple come out bit-identical.
    """
    times, fanouts, class_indices = generate_query_arrays(
        config.workload, config.n_queries, spec_rng)
    m = times.shape[0]
    if m == 0:
        raise ConfigurationError("no queries to simulate")
    n = config.n_servers
    if int(fanouts.max()) > n:
        bad = int(np.argmax(fanouts > n))
        raise ConfigurationError(
            f"query {bad}: fanout {int(fanouts[bad])} > {n} servers"
        )
    mix_classes = config.workload.class_mix.classes
    uniq, first_pos, inverse = np.unique(
        class_indices, return_index=True, return_inverse=True)
    order = np.argsort(first_pos)
    remap = np.empty(uniq.shape[0], dtype=np.int32)
    remap[order] = np.arange(uniq.shape[0], dtype=np.int32)
    class_index = remap[inverse]
    classes = [mix_classes[int(uniq[i])] for i in order]
    return classes, class_index, fanouts.astype(np.int32), times


def _prepare(config: ClusterConfig, spec_rng: np.random.Generator):
    """The run's per-query arrays, plus its specs where a loop needs them.

    Returns ``(specs, servers_list, classes, class_index, fanout,
    arrival)``.  A generated workload with no placement hook takes the
    array twin and gets ``None`` for ``specs`` and ``servers_list`` (no
    query is pre-placed); otherwise ``servers_list`` holds each spec's
    pre-placed servers, or ``None`` where the simulator places it.
    """
    if config.specs is None and config.placement is None:
        classes, class_index, fanout, arrival = _prepare_query_arrays(
            config, spec_rng)
        return None, None, classes, class_index, fanout, arrival
    specs, classes, class_index, fanout, arrival = _prepare_specs(
        config, spec_rng)
    return (specs, [spec.servers for spec in specs], classes, class_index,
            fanout, arrival)


def _budget_array(estimator: DeadlineEstimator, classes,
                  class_index: np.ndarray, fanout: np.ndarray,
                  n: int, servers_list=None) -> List[float]:
    """Hoisted deadline budgets for the static homogeneous fast path.

    Budgets depend only on the (class, fanout) pair, so evaluate the
    whole table once — one ``budget_table()`` call per class over the
    distinct fanouts, gathered into a per-query array.  Stamping ``t_D``
    then costs an indexed add instead of an estimator call per query.
    ``servers_list`` holds each query's pre-placed servers (or ``None``
    when the simulator places it); omit it when every query is free.
    Returns ``[]`` when no query is eligible (all pre-placed).
    """
    m = len(class_index)
    if servers_list is None:
        free = np.ones(m, dtype=bool)
    else:
        free = np.fromiter((servers is None for servers in servers_list),
                           dtype=bool, count=m)
    if not free.any():
        return []
    codes = class_index.astype(np.int64) * (np.int64(n) + 1) + fanout
    uniq_codes, inverse = np.unique(codes[free], return_inverse=True)
    fanouts_by_class: Dict[int, List[int]] = {}
    for code in uniq_codes:
        ci, k = divmod(int(code), n + 1)
        fanouts_by_class.setdefault(ci, []).append(k)
    budget_by_code: Dict[int, float] = {}
    for ci, ks in fanouts_by_class.items():
        for k, value in estimator.budget_table(classes[ci], ks).items():
            budget_by_code[ci * (n + 1) + k] = value
    table = np.array([budget_by_code[int(code)] for code in uniq_codes])
    budgets = np.full(m, np.nan)
    budgets[free] = table[inverse]
    return budgets.tolist()


def _server_streams(config: ClusterConfig, server_cdfs,
                    service_rng: np.random.Generator) -> List[SampleStream]:
    """One block sampler per distinct service-time distribution object."""
    streams: Dict[int, SampleStream] = {}
    server_stream: List[SampleStream] = []
    for sid in range(config.n_servers):
        dist = server_cdfs[sid]
        stream = streams.get(id(dist))
        if stream is None:
            stream = SampleStream(dist, service_rng.spawn(1)[0])
            streams[id(dist)] = stream
        server_stream.append(stream)
    return server_stream


def _specializable(config: ClusterConfig, policy, tracing: bool,
                   servers_list, query_budget, server_stream) -> bool:
    """Whether a specialized calendar loop may run ``config``.

    The one eligibility rule of both calendars (the fault calendar adds
    only its own clauses on top): untraced, default placement, no
    pre-placed query, a precomputed budget array, one shared
    service-time stream, no timeline sampling, no perturbations, and a
    policy whose queue the loops inline (FIFO, T-EDFQ, TF-EDFQ).
    Everything else runs a generic loop.
    """
    return (not tracing and config.placement is None
            and type(policy) in (FIFOPolicy, TEDFPolicy, TFEDFPolicy)
            and bool(query_budget)
            and (servers_list is None
                 or all(servers is None for servers in servers_list))
            and len({id(stream) for stream in server_stream}) == 1
            and config.timeline_interval_ms is None
            and not config.perturbations)


def _deadline_columns(policy, classes, class_index: np.ndarray,
                      arrival: np.ndarray, query_budget):
    """Per-query stamped deadlines and queue keys for the specialized loops.

    Elementwise float64 adds, bit-identical to the scalar
    ``now + budget`` stamps of the generic loops.  T-EDFQ orders its
    queues by ``arrival + SLO``; TF-EDFQ by the stamped deadline
    itself, and FIFO ignores keys.
    """
    deadline_l = (arrival + np.asarray(query_budget)).tolist()
    if type(policy) is not TEDFPolicy:
        return deadline_l, deadline_l
    slo = np.asarray([cls.slo_ms for cls in classes])
    return deadline_l, (arrival + slo[class_index]).tolist()


def _static_loop(is_fifo: bool, n: int, m: int, arrival_l, fanout_l,
                 deadline_l, key_l, stream0, placement_rng, admission):
    """The no-fault calendar, specialized for :func:`_specializable` configs.

    Those preconditions let every per-event guard but admission
    disappear: the completion calendar shrinks to ``(finish, sid,
    qidx)`` triples, a FIFO queue holds bare query indices and an EDF
    queue ``(key, seq, qidx)`` entries, a task's deadline is read from
    ``deadline_l``, and the shared service-time sampler's block buffer
    is indexed inline.  Event order, RNG consumption — placement draws
    interleaved with block refills — and all arithmetic are exactly the
    generic loop's (the golden-master corpus pins this bit-for-bit).
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    infinity = float("inf")
    admit = admission.admit if admission is not None else None
    record_task = admission.record_task if admission is not None else None

    queues = ([deque() for _ in range(n)] if is_fifo
              else [[] for _ in range(n)])
    busy = [False] * n
    all_servers = tuple(range(n))
    pr_integers = placement_rng.integers
    pr_choice = placement_rng.choice
    drain = stream0.drain_block
    sbuf: List[float] = []
    sidx = 0
    slen = 0

    nan = float("nan")
    heap: List[Tuple[float, int, int]] = []
    latency_l = [nan] * m
    remaining = list(fanout_l)
    rejected_idx: List[int] = []
    seq = 0
    qi = 0
    now = 0.0
    busy_total = 0.0
    tasks_total = 0
    tasks_missed = 0

    while True:
        next_arrival = arrival_l[qi] if qi < m else infinity
        # Run down every completion at or before the next arrival.
        while heap:
            head = heap[0]
            now = head[0]
            if now > next_arrival:
                break
            heappop(heap)
            sid = head[1]
            qidx = head[2]
            left = remaining[qidx] - 1
            remaining[qidx] = left
            if not left:
                latency_l[qidx] = now - arrival_l[qidx]
            queue = queues[sid]
            if queue:
                task_qidx = queue.popleft() if is_fifo else heappop(queue)[2]
                tasks_total += 1
                if now > deadline_l[task_qidx]:
                    tasks_missed += 1
                    if record_task is not None:
                        record_task(True, now)
                elif record_task is not None:
                    record_task(False, now)
                if sidx == slen:
                    sbuf = drain()
                    slen = len(sbuf)
                    sidx = 0
                duration = sbuf[sidx]
                sidx += 1
                busy_total += duration
                heappush(heap, (now + duration, sid, task_qidx))
            else:
                busy[sid] = False
        if qi >= m:
            break  # calendar drained, no arrivals left

        # ----- query arrival -------------------------------------------
        now = next_arrival
        qidx = qi
        qi += 1
        if admit is not None and not admit(now):
            rejected_idx.append(qidx)
            continue
        k = fanout_l[qidx]
        if k == n:
            servers = all_servers
        elif k == 1:
            servers = (int(pr_integers(n)),)
        else:
            servers = pr_choice(n, size=k, replace=False).tolist()
        deadline = deadline_l[qidx]
        keyval = key_l[qidx]
        for sid in servers:
            if busy[sid]:
                if is_fifo:
                    queues[sid].append(qidx)
                else:
                    heappush(queues[sid], (keyval, seq, qidx))
                    seq += 1
                continue
            busy[sid] = True
            tasks_total += 1
            if now > deadline:
                tasks_missed += 1
                if record_task is not None:
                    record_task(True, now)
            elif record_task is not None:
                record_task(False, now)
            if sidx == slen:
                sbuf = drain()
                slen = len(sbuf)
                sidx = 0
            duration = sbuf[sidx]
            sidx += 1
            busy_total += duration
            heappush(heap, (now + duration, sid, qidx))

    latency = np.asarray(latency_l, dtype=np.float64)
    rejected = np.zeros(m, dtype=bool)
    if rejected_idx:
        rejected[rejected_idx] = True
    return latency, rejected, busy_total, tasks_total, tasks_missed, now


def _finalize(config: ClusterConfig, policy, n: int, server_cdfs, classes,
              class_index, fanout, arrival, latency, rejected,
              busy_total: float, tasks_total: int, tasks_missed: int,
              now: float, rec, tracing: bool, samples=None, ctrl=None,
              rc=None, **fault_fields) -> SimulationResult:
    """Shared wrap-up of every calendar loop: warmup mask, timeline, load,
    result assembly.

    ``samples`` holds the timeline's ``(times, queued, busy)`` lists when
    sampling ran; ``ctrl`` and ``rc`` are the run's overload and replica
    controllers; ``fault_fields`` are the fault loops' ``failed``,
    ``coverage`` and ``degraded`` arrays and fault counters, passed
    through to the result.
    """
    m = len(class_index)
    warmup_count = int(m * config.warmup_fraction)
    measured = np.zeros(m, dtype=bool)
    measured[warmup_count:] = True

    timeline = None
    if config.timeline_interval_ms is not None:
        sample_times, sample_queued, sample_busy = samples
        timeline = Timeline(
            time=np.asarray(sample_times),
            queued_tasks=np.asarray(sample_queued, dtype=np.int64),
            busy_servers=np.asarray(sample_busy, dtype=np.int64),
        )

    mean_service = float(
        np.mean([server_cdfs[sid].mean() for sid in range(n)])
    )
    if config.workload is not None:
        offered = config.workload.load(n)
    else:
        span = float(arrival.max() - arrival.min())
        offered = (
            float(fanout.sum()) * mean_service / (n * span) if span > 0 else 0.0
        )

    if tracing:
        rec.set_gauge("utilization",
                      busy_total / (n * now) if now > 0 else 0.0)
        rec.set_gauge("deadline_miss_ratio",
                      tasks_missed / tasks_total if tasks_total else 0.0)
        rec.set_gauge("duration_ms", now)

    if ctrl is not None:
        fault_fields.update(
            degraded_queries=ctrl.degraded_queries,
            shed_tasks=ctrl.shed_tasks,
            breaker_trips=ctrl.breaker_trips,
            cdf_rebootstraps=ctrl.cdf_rebootstraps,
        )
    if rc is not None:
        fault_fields["hedges_suppressed"] = rc.hedges_suppressed

    return SimulationResult(
        policy_name=policy.name,
        n_servers=n,
        seed=config.seed,
        offered_load=offered,
        classes=tuple(classes),
        class_index=class_index,
        fanout=fanout,
        arrival=arrival,
        latency=latency,
        rejected=rejected,
        measured=measured,
        tasks_total=tasks_total,
        tasks_missed_deadline=tasks_missed,
        busy_time_total=busy_total,
        duration=now,
        mean_service_ms=mean_service,
        timeline=timeline,
        obs=rec if tracing else None,
        overload=ctrl,
        replicas=rc,
        **fault_fields,
    )


def simulate(config: ClusterConfig) -> SimulationResult:
    """Run one simulation and collect per-query statistics.

    Fault-free configs run the optimized two-stream merge below;
    configs with an active :class:`~repro.faults.FaultPlan`, an active
    :class:`~repro.overload.OverloadPolicy`, or an active
    :class:`~repro.replicas.ReplicaPolicy` route through the
    fault-aware event calendar in :mod:`repro.cluster.faultsim` (same
    semantics contract, plus crash/recovery, retries, hedging,
    overload protection, and adaptive redundancy).
    """
    if ((config.faults is not None and config.faults.active)
            or (config.overload is not None and config.overload.active)
            or (config.replicas is not None and config.replicas.active)):
        from repro.cluster.faultsim import simulate_with_faults

        return simulate_with_faults(config)

    policy = config.resolve_policy()
    root_rng = np.random.default_rng(config.seed)
    spec_rng, placement_rng, service_rng = root_rng.spawn(3)

    n = config.n_servers
    server_cdfs = config.resolve_server_cdfs()
    server_stream = _server_streams(config, server_cdfs, service_rng)

    estimator = config.estimator
    if estimator is None:
        estimator = DeadlineEstimator(dict(server_cdfs))

    rec = config.recorder
    tracing = rec is not None and rec.enabled
    admission = config.admission
    placement = config.placement

    specs, servers_list, classes, class_index, fanout, arrival = _prepare(
        config, spec_rng)
    m = len(class_index)

    online = estimator.online_enabled
    query_budget: List[float] = []
    if estimator.homogeneous and not online and placement is None:
        query_budget = _budget_array(estimator, classes, class_index,
                                     fanout, n, servers_list)
    use_budget_array = bool(query_budget)

    if _specializable(config, policy, tracing, servers_list, query_budget,
                      server_stream):
        deadline_l, key_l = _deadline_columns(policy, classes, class_index,
                                              arrival, query_budget)
        (latency, rejected, busy_total, tasks_total, tasks_missed,
         now) = _static_loop(
            type(policy) is FIFOPolicy, n, m, arrival.tolist(),
            fanout.tolist(), deadline_l, key_l, server_stream[0],
            placement_rng, admission)
        return _finalize(config, policy, n, server_cdfs, classes,
                         class_index, fanout, arrival, latency, rejected,
                         busy_total, tasks_total, tasks_missed, now,
                         rec, tracing)

    perturbations = tuple(config.perturbations)
    perturbed_servers = (
        frozenset().union(*(p.server_ids for p in perturbations))
        if perturbations else frozenset()
    )

    remaining = fanout.astype(np.int64).copy()
    latency = np.full(m, np.nan)
    rejected = np.zeros(m, dtype=bool)

    # ------------------------------------------------------------------
    # Server state.
    # ------------------------------------------------------------------
    queues = [policy.create_queue() for _ in range(n)]
    busy = [False] * n
    all_servers = tuple(range(n))

    heap: List[Tuple[float, int, int, float]] = []  # (finish, sid, qidx, duration)
    push, pop = heapq.heappush, heapq.heappop

    placement_wants_depths = bool(
        placement is not None and getattr(placement, "needs_queue_depths",
                                          False)
    )

    def perturbed_duration(sid: int, start: float, duration: float) -> float:
        for perturbation in perturbations:
            if perturbation.applies(sid, start):
                duration *= perturbation.factor
        return duration

    busy_total = 0.0
    tasks_total = 0
    tasks_missed = 0
    now = 0.0
    qi = 0
    infinity = float("inf")

    # Optional timeline sampling: state *between* events is constant, so
    # emit samples for every interval boundary the clock steps over.
    sample_interval = config.timeline_interval_ms
    next_sample = sample_interval if sample_interval is not None else infinity
    sample_times: List[float] = []
    sample_queued: List[int] = []
    sample_busy: List[int] = []
    queued_tasks = 0
    busy_servers = 0

    # ------------------------------------------------------------------
    # Observability.  ``tracing`` is a local bool, so a run without a
    # recorder pays one boolean check per instrumented site and nothing
    # else — no event objects, no per-server accounting.
    # ------------------------------------------------------------------
    obs_interval = rec.sample_interval_ms if tracing else None
    next_obs = obs_interval if obs_interval is not None else infinity
    if tracing:
        server_tasks = [0] * n       # dequeued tasks per server
        server_misses = [0] * n      # deadline misses per server
        server_busy_ms = [0.0] * n   # completed service time per server
        server_busy_since = [0.0] * n  # start of the in-flight task

    while qi < m or heap:
        next_arrival = arrival[qi] if qi < m else infinity
        if sample_interval is not None or obs_interval is not None:
            next_event = min(next_arrival, heap[0][0] if heap else infinity)
            if sample_interval is not None:
                while next_sample <= next_event:
                    sample_times.append(next_sample)
                    sample_queued.append(queued_tasks)
                    sample_busy.append(busy_servers)
                    next_sample += sample_interval
            if obs_interval is not None:
                while next_obs <= next_event:
                    t = next_obs
                    rec.sample_servers(
                        t,
                        [len(queue) for queue in queues],
                        [1 if flag else 0 for flag in busy],
                        [min(1.0, (server_busy_ms[sid]
                                   + (t - server_busy_since[sid]
                                      if busy[sid] else 0.0)) / t)
                         for sid in range(n)],
                        [server_misses[sid] / server_tasks[sid]
                         if server_tasks[sid] else 0.0 for sid in range(n)],
                    )
                    next_obs += obs_interval
        if heap and heap[0][0] <= next_arrival:
            # ----- task completion -------------------------------------
            finish, sid, qidx, duration = pop(heap)
            now = finish
            if online:
                estimator.record(sid, duration)
            if tracing:
                server_busy_ms[sid] += duration
                rec.emit(TASK_COMPLETE, now, server_id=sid, query_id=qidx,
                         class_name=classes[class_index[qidx]].name,
                         extra={"duration": duration})
                if online:
                    rec.emit(CDF_UPDATE, now, server_id=sid,
                             extra={"observation": duration})
            remaining[qidx] -= 1
            if remaining[qidx] == 0:
                latency[qidx] = now - arrival[qidx]
                if tracing:
                    rec.observe_latency(latency[qidx])
                    rec.inc("queries_completed")
                    rec.emit(QUERY_COMPLETE, now, query_id=qidx,
                             class_name=classes[class_index[qidx]].name,
                             fanout=int(fanout[qidx]),
                             extra={"latency": latency[qidx]})
            queue = queues[sid]
            if len(queue) > 0:
                task_qidx, task_deadline = queue.pop()
                queued_tasks -= 1
                tasks_total += 1
                missed = now > task_deadline
                if missed:
                    tasks_missed += 1
                if admission is not None:
                    admission.record_task(missed, now)
                if tracing:
                    server_tasks[sid] += 1
                    server_busy_since[sid] = now
                    rec.inc("tasks_dequeued")
                    rec.emit(TASK_DEQUEUE, now, server_id=sid,
                             query_id=task_qidx,
                             class_name=classes[class_index[task_qidx]].name,
                             fanout=int(fanout[task_qidx]),
                             deadline=task_deadline,
                             slack=task_deadline - now,
                             extra={"queue_len": len(queue)})
                    if missed:
                        server_misses[sid] += 1
                        rec.inc("deadline_misses")
                        rec.emit(DEADLINE_MISS, now, server_id=sid,
                                 query_id=task_qidx,
                                 deadline=task_deadline,
                                 slack=task_deadline - now)
                next_duration = server_stream[sid].next()
                if sid in perturbed_servers:
                    next_duration = perturbed_duration(sid, now, next_duration)
                busy_total += next_duration
                push(heap, (now + next_duration, sid, task_qidx, next_duration))
            else:
                busy[sid] = False
                busy_servers -= 1
                if tracing:
                    rec.emit(SERVER_IDLE, now, server_id=sid)
            continue

        # ----- query arrival -------------------------------------------
        now = next_arrival
        qidx = qi
        qi += 1
        if tracing:
            rec.inc("queries_arrived")
            rec.emit(QUERY_ARRIVE, now, query_id=qidx,
                     class_name=classes[class_index[qidx]].name,
                     fanout=int(fanout[qidx]))
        if admission is not None and not admission.admit(now):
            rejected[qidx] = True
            if tracing:
                rec.inc("queries_rejected")
                rec.emit(QUERY_REJECTED, now, query_id=qidx,
                         class_name=classes[class_index[qidx]].name,
                         fanout=int(fanout[qidx]),
                         extra={"miss_ratio": admission.miss_ratio()})
            continue

        k = int(fanout[qidx])
        cls = classes[class_index[qidx]]
        pre = servers_list[qidx] if servers_list is not None else None

        if pre is not None:
            servers = pre
        elif placement is not None:
            spec = specs[qidx]
            if placement_wants_depths:
                depths = tuple(
                    len(queues[sid]) + (1 if busy[sid] else 0)
                    for sid in range(n)
                )
                servers = placement(spec, placement_rng, depths)
            else:
                servers = placement(spec, placement_rng)
            if len(servers) != k:
                raise ConfigurationError(
                    f"placement returned {len(servers)} servers for fanout {k}"
                )
            for sid in servers:
                if not 0 <= sid < n:
                    raise ConfigurationError(
                        f"placement returned server {sid} outside "
                        f"[0, {n}) for query {qidx}; shard maps must "
                        f"cover exactly the cluster's servers"
                    )
        elif k == n:
            servers = all_servers
        elif k == 1:
            servers = (int(placement_rng.integers(n)),)
        else:
            servers = tuple(
                int(s) for s in placement_rng.choice(n, size=k, replace=False)
            )

        if use_budget_array and pre is None:
            deadline = now + query_budget[qidx]
        elif estimator.homogeneous:
            deadline = estimator.deadline(now, cls, fanout=k)
        else:
            deadline = estimator.deadline(now, cls, servers=servers)

        key = policy.queue_key(now, cls, deadline)
        for sid in servers:
            if busy[sid]:
                if tracing:
                    depth = queues[sid].reorder_depth(key)
                    queues[sid].push((qidx, deadline), key)
                    queued_tasks += 1
                    rec.emit(TASK_ENQUEUE, now, server_id=sid, query_id=qidx,
                             class_name=cls.name, fanout=k, deadline=deadline,
                             slack=deadline - now,
                             extra={"queue_len": len(queues[sid]),
                                    "reorder_depth": depth})
                else:
                    queues[sid].push((qidx, deadline), key)
                    queued_tasks += 1
            else:
                busy[sid] = True
                busy_servers += 1
                tasks_total += 1
                missed = now > deadline
                if missed:
                    tasks_missed += 1
                    if admission is not None:
                        admission.record_task(True, now)
                elif admission is not None:
                    admission.record_task(False, now)
                if tracing:
                    server_tasks[sid] += 1
                    server_busy_since[sid] = now
                    rec.inc("tasks_dequeued")
                    rec.emit(SERVER_BUSY, now, server_id=sid)
                    rec.emit(TASK_DEQUEUE, now, server_id=sid, query_id=qidx,
                             class_name=cls.name, fanout=k, deadline=deadline,
                             slack=deadline - now, extra={"queue_len": 0})
                    if missed:
                        server_misses[sid] += 1
                        rec.inc("deadline_misses")
                        rec.emit(DEADLINE_MISS, now, server_id=sid,
                                 query_id=qidx, deadline=deadline,
                                 slack=deadline - now)
                duration = server_stream[sid].next()
                if sid in perturbed_servers:
                    duration = perturbed_duration(sid, now, duration)
                busy_total += duration
                push(heap, (now + duration, sid, qidx, duration))

    return _finalize(config, policy, n, server_cdfs, classes, class_index,
                     fanout, arrival, latency, rejected, busy_total,
                     tasks_total, tasks_missed, now, rec, tracing,
                     samples=(sample_times, sample_queued, sample_busy))
