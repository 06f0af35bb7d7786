"""The full Aurora fabric: the size of its topology, and a sparse
permutation on it.

In the permutation, every chunk of a 16 KiB message is routed before the
first congestion tick (2 us), so every decision sees the idle view.  There
the minimal route reaches the detour floor, so route selection must never
enumerate a detour set: 256 ranks draw thousands of them without the floor.
The permutation also bounds the memory a run keeps per port it touched.
"""

import random

from slingsim import routing
from slingsim.engine import Engine, SimConfig
from slingsim.qos import default_profile
from slingsim.routing import Router, RoutingPolicy
from slingsim.topology import StateOverlay, aurora_spec, build_topology

from conftest import retained_bytes
from test_engine_digest import KIB, Phase, Placement, Schedule, derangement, \
    run_loaded

RANKS = 256

# bytes the built Aurora topology may hold: edge and local links are
# computed from their ids, so this covers the ~31k stored global links and
# their per-group-pair index (about 8 MB); every link stored would be ~47 MB
TOPOLOGY_BYTES = 12e6

# bytes the sparse permutation may keep per port it made, all the run's
# other state (messages, routes, report) included: a port with one lane,
# one VC queue and its credit pools takes about 1.28 KB in this CC-off run
# (1.34 KB while the port and its arbitration state were two objects); a
# waiter dict on every port and congestion state on every edge-in port
# would add about 0.17 KB
PORT_BYTES = 1400


def test_aurora_topology_stores_only_global_links():
    topo, held = retained_bytes(lambda: build_topology(aurora_spec()))
    assert held <= TOPOLOGY_BYTES
    assert len(topo.links) == 207_450


def sparse_permutation(spec, ranks: int, size: int, seed: int):
    """Ranks on a seeded sample of the compute endpoints (compute groups
    come first), each sending ``size`` bytes along a seeded derangement."""
    rng = random.Random(seed)
    compute = (spec.compute_groups * spec.switches_per_group
               * spec.endpoints_per_switch)
    endpoints = rng.sample(range(compute), ranks)
    perm = derangement(ranks, rng)
    msgs = tuple((r, perm[r], size, False) for r in range(ranks))
    return Placement(ranks, tuple(endpoints)), Schedule((Phase(msgs),))


def sparse_run():
    """A CC-off engine on the full Aurora fabric, and the 16 KiB sparse
    permutation of ``RANKS`` ranks for it."""
    spec = aurora_spec()
    topo = build_topology(spec)
    overlay = StateOverlay(topo)
    router = Router(topo, overlay, RoutingPolicy(), seed=1)
    engine = Engine(topo, overlay, router, default_profile(),
                    SimConfig(seed=1, cc_enabled=False))
    return engine, sparse_permutation(spec, RANKS, 16 * KIB, 1)


def test_idle_sparse_permutation_enumerates_no_detour(monkeypatch):
    enumerated = 0
    real = routing.enumerate_nonminimal_routes

    def counted(*args):
        nonlocal enumerated
        enumerated += 1
        return real(*args)

    monkeypatch.setattr(routing, "enumerate_nonminimal_routes", counted)
    engine, workload = sparse_run()
    report = run_loaded(engine, workload)
    assert report.incomplete_messages == 0 and report.failed_bytes == 0
    assert report.delivered_bytes == RANKS * 16 * KIB
    assert enumerated == 0


def test_sparse_run_port_bytes():
    engine, workload = sparse_run()
    report, held = retained_bytes(lambda: run_loaded(engine, workload))
    assert report.delivered_bytes == RANKS * 16 * KIB
    assert held / len(engine.ports) <= PORT_BYTES, held / len(engine.ports)
