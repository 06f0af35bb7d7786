"""Route enumeration and adaptive selection tests.

The enumeration oracle works straight off the raw link list: it rebuilds
switch adjacency itself, runs plain BFS for graph distances, and exhaustively
searches the minimal path family (at most one global link, at most one local
hop on each side, <= 3 hops).  It never touches the builder's pair indexes,
so indexing bugs in either side cannot cancel out.
"""

import itertools
import random
from collections import deque

import pytest

from conftest import make_spec, bench_spec
from slingsim.routing import (
    CongestionView,
    NoRouteError,
    Route,
    Router,
    RoutingError,
    RoutingPolicy,
    enumerate_minimal_routes,
    enumerate_nonminimal_routes,
    routing_sweep,
)
from slingsim.topology import EDGE, StateOverlay, build_topology


# -- independent oracles -------------------------------------------------------

def raw_adjacency(topo, view):
    adj = {s: [] for s in range(topo.switch_count)}
    for l in topo.links:
        if l.kind == EDGE or not view.link_usable(l.id):
            continue
        adj[l.switch_a].append((l.switch_b, l.id))
        adj[l.switch_b].append((l.switch_a, l.id))
    return adj


def bfs_distance(adj, src, dst):
    if src == dst:
        return 0
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v, _ in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                if v == dst:
                    return dist[v]
                q.append(v)
    return None


def minimal_family_paths(topo, view, src, dst):
    """Exhaustive search of paths shaped [local?] global [local?] (inter-group)
    or single-local (intra-group), as link-id tuples."""
    if src == dst:
        return {()}
    ga, gb = topo.group_of_switch(src), topo.group_of_switch(dst)
    usable = [l for l in topo.links if l.kind != EDGE and view.link_usable(l.id)]
    local = [l for l in usable if l.kind == "local"]
    glob = [l for l in usable if l.kind == "global"]
    paths = set()
    if ga == gb:
        for l in local:
            if {l.switch_a, l.switch_b} == {src, dst}:
                paths.add((l.id,))
        return paths
    for g in glob:
        a, b = g.switch_a, g.switch_b
        if topo.group_of_switch(a) != ga:
            a, b = b, a
        if topo.group_of_switch(a) != ga or topo.group_of_switch(b) != gb:
            continue
        heads = [()] if a == src else [
            (l.id,) for l in local if {l.switch_a, l.switch_b} == {src, a}]
        tails = [()] if b == dst else [
            (l.id,) for l in local if {l.switch_a, l.switch_b} == {b, dst}]
        for h in heads:
            for t in tails:
                paths.add(h + (g.id,) + t)
    return paths


MATRIX = [
    # (spec, wrap) -- wrap means a group hosts several global links on one
    # switch, which can create non-family ties; graph-distance equality is
    # only asserted on unwrapped members
    (make_spec(), False),                                    # 16 switches
    (make_spec(compute_groups=5, switches_per_group=8), False),  # 40 switches
    (make_spec(compute_groups=3, switches_per_group=16,
               global_links_per_compute_pair=2), False),     # 48 switches
    (bench_spec(), True),                                    # 32 switches
    (make_spec(compute_groups=6, storage_groups=2, service_groups=1,
               switches_per_group=4, global_links_per_compute_pair=2), True),
]


@pytest.mark.parametrize("spec,wrapped", MATRIX)
def test_minimal_routes_match_brute_force(spec, wrapped):
    topo = build_topology(spec)
    assert topo.switch_count <= 200
    view = StateOverlay(topo)
    adj = raw_adjacency(topo, view)
    for src, dst in itertools.combinations(range(topo.switch_count), 2):
        want = minimal_family_paths(topo, view, src, dst)
        if not want:
            # group pairs without direct global links (storage<->service)
            with pytest.raises(NoRouteError):
                enumerate_minimal_routes(topo, view, src, dst)
            continue
        routes = enumerate_minimal_routes(topo, view, src, dst)
        got = {r.hops for r in routes}
        assert got == want, (src, dst)
        assert all(r.hop_count <= 3 for r in routes)
        d = bfs_distance(adj, src, dst)
        assert d is not None and d <= min(r.hop_count for r in routes)
        if not wrapped:
            assert d == min(r.hop_count for r in routes), (src, dst)


def test_minimal_same_switch(small_topo):
    view = StateOverlay(small_topo)
    routes = enumerate_minimal_routes(small_topo, view, 2, 2)
    assert len(routes) == 1 and routes[0].hops == ()


def test_minimal_intra_group_single_link(small_topo):
    view = StateOverlay(small_topo)
    routes = enumerate_minimal_routes(small_topo, view, 0, 3)
    assert len(routes) == 1
    assert routes[0].hop_count == 1


def test_minimal_down_links_raise(small_topo):
    view = StateOverlay(small_topo)
    for lid in small_topo.global_links[(0, 1)]:
        view.set_link_state(lid, status="down")
    # pick switches whose only inter-group option is the (0,1) links
    src = 0
    dst = next(iter(small_topo.switches_of_group(1)))
    with pytest.raises(NoRouteError):
        enumerate_minimal_routes(small_topo, view, src, dst)


def test_nonminimal_structure(small_topo):
    view = StateOverlay(small_topo)
    src = 0
    dst = next(iter(small_topo.switches_of_group(1)))
    for ig in (2, 3):
        routes = enumerate_nonminimal_routes(small_topo, view, src, dst, ig)
        for r in routes:
            assert r.kind == "nonminimal"
            assert r.intermediate_group == ig
            assert r.hop_count <= 5
            groups = {small_topo.group_of_switch(s) for s in r.switches}
            assert groups == {0, 1, ig}
            # consecutive hops share a switch by construction; verify ends
            assert r.switches[0] == src and r.switches[-1] == dst


def test_nonminimal_exhaustive_hop_count():
    # with one link per pair and distinct host switches, every detour route
    # on the 4x4 fabric is 4 or 5 hops unless an end switch hosts the port
    topo = build_topology(make_spec())
    view = StateOverlay(topo)
    seen = set()
    for src in topo.switches_of_group(0):
        for dst in topo.switches_of_group(1):
            for r in enumerate_nonminimal_routes(topo, view, src, dst, 2):
                seen.add(r.hop_count)
                # src-side local hop present iff src does not host the port
                gl = topo.links[[h for h in r.hops
                                 if topo.links[h].kind == "global"][0]]
                host = gl.switch_a if topo.group_of_switch(gl.switch_a) == 0 \
                    else gl.switch_b
                assert (r.switches[1] != src) == (host != src) or src == host
    assert seen <= {2, 3, 4, 5}
    assert {4, 5} & seen


def test_nonminimal_precondition(small_topo):
    view = StateOverlay(small_topo)
    with pytest.raises(RoutingError):
        enumerate_nonminimal_routes(small_topo, view, 0, 4, 0)


def test_nonminimal_unreachable(small_topo):
    view = StateOverlay(small_topo)
    for lid in small_topo.global_links[(0, 2)]:
        view.set_link_state(lid, status="down")
    dst = next(iter(small_topo.switches_of_group(1)))
    with pytest.raises(NoRouteError):
        enumerate_nonminimal_routes(small_topo, view, 0, dst, 2)


# -- sweeps ----------------------------------------------------------------------

def test_sweep_excludes_and_restores(small_topo):
    ov = StateOverlay(small_topo)
    tables = routing_sweep(small_topo, ov)
    dst = next(iter(small_topo.switches_of_group(1)))
    before = tables.minimal_routes(0, dst)
    lid = before[0].hops[-1]

    ov.set_link_state(lid, status="down")
    # stale until swept
    assert tables.link_usable(lid)
    tables2 = routing_sweep(small_topo, ov, tables)
    assert not tables2.link_usable(lid)
    after = tables2.minimal_routes(0, dst) if len(before) > 1 else None
    if after is not None:
        assert {r.hops for r in before} - {r.hops for r in after} \
            == {r.hops for r in before if lid in r.hops}

    ov.set_link_state(lid, status="up")
    assert not tables2.link_usable(lid)  # still stale
    tables3 = routing_sweep(small_topo, ov, tables2)
    assert tables3.link_usable(lid)


def test_sweep_idempotent(small_topo):
    ov = StateOverlay(small_topo)
    t1 = routing_sweep(small_topo, ov)
    t2 = routing_sweep(small_topo, ov, t1)
    assert t2 is t1


# -- selection ---------------------------------------------------------------------

def ep_on_switch(topo, switch, idx=0):
    return list(topo.endpoints_of_switch(switch))[idx]


def test_zero_occupancy_prefers_minimal(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=1)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, next(iter(small_topo.switches_of_group(1))))
    r = router.select_route(src, dst, 0, ordered=False)
    assert r.kind == "minimal"


def test_minimal_only_and_adaptive_agree_idle(small_topo):
    src = ep_on_switch(small_topo, 1)
    dst = ep_on_switch(small_topo, 14)
    a = Router(small_topo, StateOverlay(small_topo),
               RoutingPolicy(mode="adaptive"), seed=3)
    m = Router(small_topo, StateOverlay(small_topo),
               RoutingPolicy(mode="minimal"), seed=3)
    assert a.select_route(src, dst, 0, False) == m.select_route(src, dst, 0, False)


def test_saturated_minimal_detours(small_topo):
    router = Router(small_topo, StateOverlay(small_topo),
                    RoutingPolicy(intermediate_samples=2), seed=5)
    src = ep_on_switch(small_topo, 0)
    dst_sw = next(iter(small_topo.switches_of_group(1)))
    dst = ep_on_switch(small_topo, dst_sw)
    # saturate every minimal candidate in its travel direction
    occ = {}
    src_sw = small_topo.switch_of_endpoint(src)
    for r in router.tables.minimal_routes(src_sw, dst_sw):
        for link, d in zip(r.hops, r.dirs):
            occ[(link, d)] = 10_000_000.0
    view = CongestionView(0.0, occ)
    r = router.select_route(src, dst, 0, ordered=False, view=view)
    assert r.kind == "nonminimal"


def test_group_load_prefers_lightly_loaded(small_topo):
    policy = RoutingPolicy(group_load_enabled=True, intermediate_samples=2)
    router = Router(small_topo, StateOverlay(small_topo), policy, seed=5)
    src = ep_on_switch(small_topo, 0)
    dst_sw = next(iter(small_topo.switches_of_group(1)))
    dst = ep_on_switch(small_topo, dst_sw)
    occ = {}
    src_sw = small_topo.switch_of_endpoint(src)
    for r in router.tables.minimal_routes(src_sw, dst_sw):
        for link, d in zip(r.hops, r.dirs):
            occ[(link, d)] = 10_000_000.0
    # sampling pool is groups {2, 3}; load group 2 heavily
    view = CongestionView(0.0, occ, group_load={2: 5e6, 3: 1.0})
    for _ in range(8):
        r = router.select_route(src, dst, 0, ordered=False, view=view)
        assert r.kind == "nonminimal"
        assert r.intermediate_group == 3


def test_ordered_flow_pinning(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    key = (src, dst, 0)
    r1 = router.select_route(src, dst, 0, ordered=True)
    router.flow_table.add_pending(key)
    # second message while the first is pending: identical object
    r2 = router.select_route(src, dst, 0, ordered=True)
    assert r2 is r1
    router.flow_table.add_pending(key)
    router.flow_table.release(key)
    r3 = router.select_route(src, dst, 0, ordered=True)
    assert r3 is r1  # one message still pending
    router.flow_table.release(key)
    assert router.flow_table.pinned(key) is None  # pin dropped at zero


def test_ordered_unordered_do_not_share_pins(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    router.select_route(src, dst, 0, ordered=True)
    assert len(router.flow_table) == 1
    router.select_route(src, dst, 1, ordered=True)
    assert len(router.flow_table) == 2  # per (src, dst, class)


def test_repin_keeps_pending_count(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    key = (src, dst, 0)
    router.select_route(src, dst, 0, ordered=True)
    router.flow_table.add_pending(key)
    router.flow_table.add_pending(key)
    route = router.repin(src, dst, 0)
    assert router.flow_table.pinned(key) is route
    router.flow_table.release(key)
    assert router.flow_table.pinned(key) is route  # one still pending
    router.flow_table.release(key)
    assert router.flow_table.pinned(key) is None


def test_failed_repin_leaves_flow_unpinned(small_topo):
    table = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(),
                   seed=2).flow_table
    key = (0, 9, 0)
    table.pin(key, Route((), (), (0,), "minimal"))
    table.add_pending(key)

    def no_route():
        raise NoRouteError("all links down")

    with pytest.raises(NoRouteError):
        table.repin(key, no_route)
    assert table.pinned(key) is None and len(table) == 0


def test_argmin_scale_invariance(small_topo):
    """Multiplying all occupancies by a positive constant never changes the
    selected route."""
    router = Router(small_topo, StateOverlay(small_topo),
                    RoutingPolicy(intermediate_samples=2), seed=11)
    rng = random.Random(99)
    eps = small_topo.total_endpoints
    for trial in range(100):
        src = rng.randrange(eps)
        dst = rng.randrange(eps)
        if small_topo.switch_of_endpoint(src) == small_topo.switch_of_endpoint(dst):
            continue
        occ = {}
        for l in small_topo.fabric_link_ids():
            if rng.random() < 0.4:
                occ[(l, rng.randrange(2))] = float(rng.randrange(0, 50_000))
        view = CongestionView(0.0, occ)
        state = router.rng.getstate()
        pick = router.select_route(src, dst, 0, False, view=view)
        for factor in (0.5, 3.0, 1000.0):
            router.rng.setstate(state)
            again = router.select_route(src, dst, 0, False, view=view.scaled(factor))
            assert again == pick, (trial, factor)


def test_select_deterministic_tiebreak(small_topo):
    r1 = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=7)
    r2 = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=7)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 12)
    for _ in range(20):
        assert r1.select_route(src, dst, 0, False) == r2.select_route(src, dst, 0, False)


def test_routes_only_use_up_links(small_topo):
    ov = StateOverlay(small_topo)
    down = set()
    for lid in small_topo.global_links[(0, 2)]:
        ov.set_link_state(lid, status="maintenance")
        down.add(lid)
    router = Router(small_topo, ov, RoutingPolicy(intermediate_samples=2), seed=13)
    src = ep_on_switch(small_topo, 0)
    rng = random.Random(5)
    for _ in range(200):
        dst = rng.randrange(small_topo.total_endpoints)
        if small_topo.switch_of_endpoint(dst) == small_topo.switch_of_endpoint(src):
            continue
        r = router.select_route(src, dst, 0, False)
        assert not (set(r.hops) & down)


def test_aurora_hop_bound():
    from slingsim.topology import aurora_spec
    topo = build_topology(aurora_spec())
    view = StateOverlay(topo)
    rng = random.Random(0)
    for _ in range(2000):
        src = rng.randrange(topo.switch_count)
        dst = rng.randrange(topo.switch_count)
        routes = enumerate_minimal_routes(topo, view, src, dst)
        assert all(r.hop_count <= 3 for r in routes)
