"""Benchmark workloads: minimal workload types and seeded generators.

``Engine.load`` reads ``placement.ranks``, ``placement.endpoint_of``,
``schedule.phases[*].messages``, ``schedule.barrier``, ``schedule.window``
and ``schedule.traffic_class``; the types below carry exactly those fields.
Every generator is a pure function of its seed and size arguments, so the
same seed always yields the same inputs, and the simulator sees only the
generated objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from slingsim.qos import BEST_EFFORT
from slingsim.topology import TopologySpec, aurora_spec

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class Placement:
    ranks: int
    endpoint_of: tuple[int, ...]


@dataclass(frozen=True)
class Phase:
    messages: tuple[tuple[int, int, int, bool], ...]  # src, dst, bytes, ordered


@dataclass(frozen=True)
class Schedule:
    phases: tuple[Phase, ...]
    barrier: str = "none"
    window: int = 0  # 0 -> SimConfig.default_window
    traffic_class: int = BEST_EFFORT


@dataclass(frozen=True)
class Workload:
    placement: Placement
    schedule: Schedule

    @property
    def message_count(self) -> int:
        return sum(len(p.messages) for p in self.schedule.phases)


def bench_spec() -> TopologySpec:
    """8 compute groups x 4 switches, 2 nodes x 2 NICs per switch (128
    endpoints), 2 global links per group pair: the throughput fabric of the
    acceptance tests."""
    return TopologySpec(
        compute_groups=8, storage_groups=0, service_groups=0,
        switches_per_group=4, nodes_per_switch=2, nics_per_node=2,
        local_links_per_switch_pair=1, global_links_per_compute_pair=2,
        global_links_compute_to_noncompute=2, global_links_per_storage_pair=2,
    )


def compute_endpoint_count(spec: TopologySpec) -> int:
    # compute groups come first, so endpoints 0..n-1 are the compute ones
    return (spec.compute_groups * spec.switches_per_group
            * spec.endpoints_per_switch)


def derangement(n: int, rng: random.Random) -> list[int]:
    """Uniform permutation of range(n) with no fixed point (n >= 2)."""
    if n < 2:
        raise ValueError("a derangement needs at least 2 elements")
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if all(i != p for i, p in enumerate(perm)):
            return perm


def permutation(spec: TopologySpec, ranks: int, size: int, seed: int,
                sparse: bool = False) -> Workload:
    """Every rank sends one unordered ``size``-byte message along a seeded
    derangement.  Ranks sit on the first ``ranks`` endpoints, or on a seeded
    sample of the compute endpoints when ``sparse``."""
    rng = random.Random(seed)
    n_eps = compute_endpoint_count(spec)
    if not 2 <= ranks <= n_eps:
        raise ValueError(f"ranks must be in 2..{n_eps}, got {ranks}")
    eps = rng.sample(range(n_eps), ranks) if sparse else list(range(ranks))
    perm = derangement(ranks, rng)
    msgs = tuple((r, perm[r], size, False) for r in range(ranks))
    return Workload(Placement(ranks, tuple(eps)), Schedule((Phase(msgs),)))


def incast_with_background(spec: TopologySpec, size: int,
                           seed: int) -> Workload:
    """Half the endpoints send ordered ``size``-byte messages to two hot
    endpoints; the other half run an unordered derangement among
    themselves.  The hot endpoints belong to the incast half and send
    nothing."""
    rng = random.Random(seed)
    n = compute_endpoint_count(spec)
    if n < 8:
        raise ValueError("incast needs at least 8 endpoints")
    order = list(range(n))
    rng.shuffle(order)
    incast, background = order[: n // 2], order[n // 2:]
    hot = incast[:2]
    msgs = [(src, hot[i % 2], size, True) for i, src in enumerate(incast[2:])]
    perm = derangement(len(background), rng)
    msgs += [(src, background[perm[i]], size, False)
             for i, src in enumerate(background)]
    return Workload(Placement(n, tuple(range(n))), Schedule((Phase(tuple(msgs)),)))


@dataclass(frozen=True)
class WorkloadDef:
    """One named benchmark workload: fabric, engine settings and inputs."""

    spec: TopologySpec
    cc_enabled: bool
    budget_s: float  # host seconds Engine.run may take before it is stopped
    make: Callable[[TopologySpec, int], Workload]  # (spec, seed) -> inputs


WORKLOADS = {
    # per-chunk hot path with warm route tables and negligible setup
    "perm_1m": WorkloadDef(
        bench_spec(), False, 45.0,
        lambda spec, seed: permutation(spec, 128, 1 * MIB, seed)),
    # Aurora-scale topology build, cold route tables and port allocation
    "aurora_sparse": WorkloadDef(
        aurora_spec(), False, 45.0,
        lambda spec, seed: permutation(spec, 1024, 64 * KIB, seed, sparse=True)),
    # congestion detection, injector throttling, flow pinning, backpressure
    "incast_cc": WorkloadDef(
        bench_spec(), True, 5.0,
        lambda spec, seed: incast_with_background(spec, 64 * KIB, seed)),
}
