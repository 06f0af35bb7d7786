"""The full Aurora fabric: the size of its topology, its global links
against the eager reference builder, and a sparse permutation on it.

In the permutation, every chunk of a 16 KiB message is routed before the
first congestion tick (2 us), so every decision sees the idle view.  There
the minimal route reaches the detour floor, so route selection must never
enumerate a detour set: 256 ranks draw thousands of them without the floor.
The permutation also bounds the memory a run keeps per port it touched, and
the most it holds at once per rank.
"""

import dataclasses
import random

from slingsim import routing, topology
from slingsim.engine import Engine, SimConfig
from slingsim.qos import default_profile
from slingsim.routing import Router, RoutingPolicy
from slingsim.topology import Link, StateOverlay, aurora_spec, build_topology

from conftest import peak_bytes, retained_bytes
from topology_reference import build_reference
from test_engine_digest import KIB, Phase, Placement, Schedule, derangement, \
    run_loaded

RANKS = 256

# bytes the built Aurora topology may hold: every link is computed from
# its id, so this covers a few integers per group and per switch pair
# (about 48 KB); the ~31k global links as four int columns and the
# per-group-pair index of their ids took about 6.3 MB, as Link objects
# about 8.2 MB, and every link stored would be ~47 MB
TOPOLOGY_BYTES = 64e3

# bytes the sparse permutation may keep per port it made, all the run's
# other state (messages, routes, report) included, measured after a full
# collection: a port with one lane, one VC queue and its credit pools takes
# about 1.15 KB in this CC-off run.  It took 1.21 KB while every port had
# slots for congestion state, and a waiter dict on every port would add
# 64 B more
PORT_BYTES = 1200

# the most bytes the sparse 64 KiB permutation may hold at once, per rank:
# at the peak a rank has made about 4.8 ports (about 3.5 KB with their
# queues and port ids) and has nearly all 16 chunks of its message in
# flight, each an 80 B chunk and a heap event of about 110 B (about 3 KB);
# with its message, the route tables and the rest, the run peaks at about
# 9.1 KB per rank.  A path tuple per chunk, with its two edge port ids,
# took about 2.1 KB more (11.2 KB per rank)
PEAK_BYTES_PER_RANK = 10_000


def test_aurora_topology_stores_no_link():
    topo, held = retained_bytes(lambda: build_topology(aurora_spec()))
    assert held <= TOPOLOGY_BYTES
    assert len(topo.links) == 207_450


def test_aurora_build_constructs_no_link(monkeypatch):
    built = 0

    class CountedLink(Link):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            nonlocal built
            built += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(topology, "Link", CountedLink)
    topo = build_topology(aurora_spec())
    assert built == 0
    topo.links[-1]  # a global link, built on demand: the count sees it
    assert built == 1


def test_aurora_global_links_match_reference():
    spec = aurora_spec()
    topo = build_topology(spec)
    ref = build_reference(spec)
    links = topo.links
    assert len(links) == len(ref.links)
    names = [f.name for f in dataclasses.fields(Link)]
    first_global = min(ids[0] for ids in ref.global_links.values())
    assert first_global == topo.total_endpoints + 175 * 32 * 31 // 2
    # the round robin fills switches up to 62 of their 64 ports
    assert max(max(l.port_a, l.port_b) for l in ref.links[first_global:]) \
        == 62
    for lid in range(first_global, len(ref.links)):
        got, want = links[lid], ref.links[lid]
        assert [getattr(got, f) for f in names] \
            == [getattr(want, f) for f in names], lid
        assert links.switches(lid) == (want.switch_a, want.switch_b), lid
    assert topo.global_links == ref.global_links


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


def sparse_run(size: int = 16 * KIB):
    """A CC-off engine on the full Aurora fabric, and the sparse permutation
    of ``RANKS`` ranks sending ``size`` bytes each for it."""
    spec = aurora_spec()
    topo = build_topology(spec)
    overlay = StateOverlay(topo)
    router = Router(topo, overlay, RoutingPolicy(), seed=1)
    engine = Engine(topo, overlay, router, default_profile(),
                    SimConfig(seed=1, cc_enabled=False))
    return engine, sparse_permutation(spec, RANKS, size, 1)


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


def test_sparse_run_peak_bytes_per_rank():
    engine, workload = sparse_run(64 * KIB)
    report, peak = peak_bytes(lambda: run_loaded(engine, workload))
    assert report.delivered_bytes == RANKS * 64 * KIB
    assert peak / RANKS <= PEAK_BYTES_PER_RANK, peak / RANKS
