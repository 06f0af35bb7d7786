"""Shared fixtures: small dragonfly configurations reused across suites,
and the memory probes of the memory guards."""

import gc
import tracemalloc

import pytest

from slingsim.topology import TopologySpec, build_topology


def make_spec(**kw) -> TopologySpec:
    base = dict(
        compute_groups=4, storage_groups=0, service_groups=0,
        switches_per_group=4, nodes_per_switch=1, nics_per_node=2,
        local_links_per_switch_pair=1, global_links_per_compute_pair=1,
        global_links_compute_to_noncompute=1, global_links_per_storage_pair=2,
    )
    base.update(kw)
    return TopologySpec(**base)


# the fabric used by the throughput-style acceptance runs: 8 groups of
# 4 switches, 2 nodes x 2 NICs per switch (128 endpoints), 2 global links
# per group pair
def bench_spec(**kw) -> TopologySpec:
    base = dict(
        compute_groups=8, storage_groups=0, service_groups=0,
        switches_per_group=4, nodes_per_switch=2, nics_per_node=2,
        local_links_per_switch_pair=1, global_links_per_compute_pair=2,
        global_links_compute_to_noncompute=2, global_links_per_storage_pair=2,
    )
    base.update(kw)
    return TopologySpec(**base)


@pytest.fixture(scope="session")
def small_topo():
    return build_topology(make_spec())


@pytest.fixture(scope="session")
def bench_topo():
    return build_topology(bench_spec())


def retained_bytes(f):
    """Call ``f()`` under tracemalloc; return its result and the bytes
    allocated during the call that are still held when it returns.  It
    collects first, as ``peak_bytes`` does, for the same reason."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = f()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, held


def peak_bytes(f):
    """Call ``f()`` under tracemalloc; return its result and the most bytes
    allocated during the call that were held at once.  A full collection
    first empties CPython's free lists, whose objects tracemalloc would not
    see reused, so the figure does not depend on what ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = f()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak
