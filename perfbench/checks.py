"""Output checks: stored digests, invariants, and cross-path equalities.

A simulation's *key* digests its inputs (policy, cluster size, seed, the
fault, overload and replica policies, and the generated per-query
``class_index``, ``fanout`` and ``arrival`` arrays) and its *value*
digests its outputs (per-query ``latency``, ``rejected`` and ``failed``
arrays plus every counter).  The reference
files under ``reference/`` map key to value for a range of workload
seeds; they were recorded from the same code the benchmark measures and
are regenerated with ``run.py --record-reference``.  For a seed with a
stored reference, every simulation's key must be present and its value
equal.  For other seeds only the invariants and cross-path checks run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench.layers import duplicate_base

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_COUNTERS = ("tasks_total", "tasks_missed_deadline", "tasks_failed",
             "tasks_retried", "tasks_hedged", "tasks_cancelled",
             "server_failures", "degraded_queries", "shed_tasks",
             "breaker_trips", "cdf_rebootstraps", "hedges_suppressed")


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def input_key(config, result) -> str:
    return digest([result.policy_name, result.n_servers, result.seed,
                   repr(config.faults), repr(config.overload),
                   repr(config.replicas),
                   result.class_index, result.fanout, result.arrival])


def output_digest(result) -> str:
    failed = result.failed if result.failed is not None else np.zeros(0, bool)
    return digest([result.latency, result.rejected, failed]
                  + [int(getattr(result, name)) for name in _COUNTERS])


def array_digest(values: np.ndarray) -> str:
    return digest([np.asarray(values)])


def invariants(config, result) -> List[str]:
    """Properties every correct run has, whatever its seed."""
    problems = []
    failed = (result.failed if result.failed is not None
              else np.zeros(result.latency.size, dtype=bool))
    completed = ~result.rejected & ~failed
    latency = result.latency[completed]
    if not np.all(np.isfinite(latency)) or np.any(latency < 0):
        problems.append("a completed query has a non-finite or negative "
                        "latency")
    admitted = ~result.rejected
    fanout = result.fanout[admitted].astype(np.float64)
    if result.coverage is not None:
        # A degraded query serves only its covered share of the fanout.
        fanout = np.rint(result.coverage[admitted] * fanout)
    if result.tasks_total < int(fanout.sum()):
        problems.append(f"tasks_total {result.tasks_total} < fanout "
                        f"{int(fanout.sum())} of the admitted queries")
    if result.utilization() > 1.0 + 1e-9:
        problems.append(f"utilisation {result.utilization()} > 1")
    replicas = getattr(config, "replicas", None)
    adaptive = getattr(replicas, "adaptive", None)
    budget = getattr(adaptive, "max_duplicate_fraction", None)
    if budget is not None:
        fraction = result.tasks_hedged / max(1, duplicate_base(result))
        if fraction > budget:
            problems.append(f"duplicate fraction {fraction:.4f} > budget "
                            f"{budget}")
    return problems


class Reference:
    """Stored digests of one workload at one seed, or a recorder of them."""

    def __init__(self, workload: str, seed: int,
                 record_dir: Optional[Path] = None):
        self.workload = workload
        self.seed = seed
        self.record_dir = record_dir
        path = REFERENCE_DIR / f"{workload}.json"
        stored = {}
        if path.exists():
            stored = json.loads(path.read_text(encoding="utf-8"))
        self.entries: Optional[Dict[str, str]] = stored.get(str(seed))

    @property
    def available(self) -> bool:
        return self.entries is not None

    def compare(self, key: str, value: str, what: str) -> List[str]:
        if self.record_dir is not None:
            # One file per process: pool workers record their own runs.
            self.record_dir.mkdir(parents=True, exist_ok=True)
            with open(self.record_dir / f"{os.getpid()}.txt", "a",
                      encoding="utf-8") as handle:
                handle.write(f"{key} {value}\n")
            return []
        if self.entries is None:
            return []
        expected = self.entries.get(key)
        if expected is None:
            return [f"{what}: no stored reference for input {key}"]
        if expected != value:
            return [f"{what}: output digest {value} != reference {expected}"]
        return []

    def check_result(self, config, result) -> List[str]:
        what = f"{result.policy_name} seed={result.seed}"
        return (invariants(config, result)
                + self.compare(input_key(config, result),
                               output_digest(result),
                               what))


def store(workload: str, seed: int, record_dir: Path) -> int:
    """Merge the digests recorded under ``record_dir`` into the
    workload's reference file as seed ``seed``; returns their number."""
    entries: Dict[str, str] = {}
    for part in sorted(record_dir.glob("*.txt")):
        for line in part.read_text(encoding="utf-8").splitlines():
            key, value = line.split()
            if entries.setdefault(key, value) != value:
                raise RuntimeError(f"input {key} gave two outputs")
    path = REFERENCE_DIR / f"{workload}.json"
    stored = {}
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
    stored[str(seed)] = dict(sorted(entries.items()))
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(sorted(stored.items(),
                                           key=lambda kv: int(kv[0]))),
                               indent=0) + "\n",
                    encoding="utf-8")
    return len(entries)
