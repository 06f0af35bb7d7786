"""Route enumeration and adaptive selection tests.

The enumeration oracle works straight off the raw link list: it rebuilds
switch adjacency itself, runs plain BFS for graph distances, and exhaustively
searches the minimal path family (at most one global link, at most one local
hop on each side, <= 3 hops).  It never touches the builder's pair indexes,
so indexing bugs in either side cannot cancel out.
"""

import itertools
import math
import random
from collections import deque

import pytest

import routing_reference
from conftest import make_spec, bench_spec
from slingsim import routing
from slingsim.routing import (
    CongestionView,
    NoRouteError,
    Router,
    RoutingError,
    RoutingPolicy,
    enumerate_minimal_routes,
    enumerate_nonminimal_routes,
    routing_sweep,
)
from slingsim.topology import EDGE, GLOBAL, StateOverlay, build_topology, \
    port_id, port_key


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


def walk(topo, route, src, dst):
    """(links, switches) of ``route`` read off the raw link list, checking
    that each port leaves the switch the previous port reached, from switch
    ``src`` to switch ``dst``."""
    links, switches = [], [src]
    for port in route:
        link_id, d = port_key(port)
        link = topo.links[link_id]
        here, there = (link.switch_a, link.switch_b) if d == 0 \
            else (link.switch_b, link.switch_a)
        assert link.kind != EDGE and here == switches[-1], (route, switches)
        links.append(link_id)
        switches.append(there)
    assert switches[-1] == dst, (route, switches)
    return tuple(links), tuple(switches)


def detour_group(topo, route):
    """The group ``route``'s first global hop reaches: a detour's
    intermediate group, read off the raw link list."""
    for port in route:
        link_id, d = port_key(port)
        link = topo.links[link_id]
        if link.kind == GLOBAL:
            return topo.group_of_switch(link.switch_b if d == 0
                                        else link.switch_a)
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
        got = {walk(topo, r, src, dst)[0] for r in routes}
        assert got == want, (src, dst)
        assert all(len(r) <= 3 for r in routes)
        d = bfs_distance(adj, src, dst)
        assert d is not None and d <= min(len(r) for r in routes)
        if not wrapped:
            assert d == min(len(r) for r in routes), (src, dst)


def test_minimal_same_switch(small_topo):
    view = StateOverlay(small_topo)
    routes = enumerate_minimal_routes(small_topo, view, 2, 2)
    assert routes == ((),)


def test_minimal_intra_group_single_link(small_topo):
    view = StateOverlay(small_topo)
    routes = enumerate_minimal_routes(small_topo, view, 0, 3)
    assert len(routes) == 1
    assert len(walk(small_topo, routes[0], 0, 3)[0]) == 1


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
            assert detour_group(small_topo, r) == ig
            assert len(r) <= 5
            _, switches = walk(small_topo, r, src, dst)
            groups = {small_topo.group_of_switch(s) for s in switches}
            assert groups == {0, 1, ig}


def test_nonminimal_exhaustive_hop_count():
    # with one link per pair and distinct host switches, every detour route
    # on the 4x4 fabric is 4 or 5 hops unless an end switch hosts the port
    topo = build_topology(make_spec())
    view = StateOverlay(topo)
    seen = set()
    for src in topo.switches_of_group(0):
        for dst in topo.switches_of_group(1):
            for r in enumerate_nonminimal_routes(topo, view, src, dst, 2):
                seen.add(len(r))
                links, switches = walk(topo, r, src, dst)
                # src-side local hop present iff src does not host the port
                gl = topo.links[[h for h in links
                                 if topo.links[h].kind == "global"][0]]
                host = gl.switch_a if topo.group_of_switch(gl.switch_a) == 0 \
                    else gl.switch_b
                assert (switches[1] != src) == (host != src) or src == host
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


def list_draw(rng, groups, samples, ga, gb):
    """The candidate draw as it stood: a list of every group, less ``ga``
    and ``gb``, sampled from directly."""
    pool = list(range(groups))
    del pool[max(ga, gb)]
    if ga != gb:
        del pool[min(ga, gb)]
    k = min(samples, len(pool))
    if k == len(pool):
        return pool
    return rng.sample(pool, k)


@pytest.mark.parametrize("samples", [1, 4, 6, 8, 16])
def test_sample_intermediates_match_list_draw(samples):
    rng = random.Random(samples)
    for groups in range(2, 201):
        topo = build_topology(make_spec(compute_groups=groups,
                                        switches_per_group=1,
                                        global_links_per_compute_pair=0))
        router = Router(topo, StateOverlay(topo),
                        RoutingPolicy(intermediate_samples=samples),
                        seed=groups)
        reference = random.Random(groups)
        ends = {0, groups - 1, groups // 2}
        pairs = [(ga, gb) for ga in ends for gb in ends] \
            + [(rng.randrange(groups), rng.randrange(groups))
               for _ in range(8)]
        for ga, gb in pairs:
            assert router._sample_intermediates(ga, gb) \
                == list_draw(reference, groups, samples, ga, gb), \
                (groups, ga, gb)
        assert router.rng.getstate() == reference.getstate()


def outcome(enumerate_routes, topo, *args):
    """The routes ``enumerate_routes(topo, *args)`` returns, each as its
    ports and its detour group (None for a minimal route), or the message
    of the ``NoRouteError`` it raises.  A reference route carries both; the
    group of a route of ``slingsim.routing`` is derived from its ports."""
    try:
        routes = enumerate_routes(topo, *args)
    except NoRouteError as e:
        return f"NoRouteError: {e}"
    if enumerate_routes in (routing_reference.enumerate_minimal_routes,
                            routing_reference.enumerate_nonminimal_routes):
        return tuple((r.ports, r.intermediate_group) for r in routes)
    detour = enumerate_routes is enumerate_nonminimal_routes
    return tuple((r, detour_group(topo, r) if detour else None)
                 for r in routes)


@pytest.mark.parametrize("degraded", [False, True])
@pytest.mark.parametrize("spec", [spec for spec, _ in MATRIX] + [
    make_spec(local_links_per_switch_pair=2, global_links_per_compute_pair=2)])
def test_enumeration_matches_reference(spec, degraded):
    """Both enumerators give the frozen reference's routes, in its order,
    for every ordered switch pair and every intermediate group of the
    pair, on an intact fabric and with a seeded ~10% of the local and
    global links down.  The last fabric has two local links per switch
    pair, so a local hop has a choice to make when one is down."""
    topo = build_topology(spec)
    intact, view = StateOverlay(topo), StateOverlay(topo)
    if degraded:
        rng = random.Random(2008)
        for lid in topo.fabric_link_ids():
            if rng.random() < 0.1:
                view.set_link_state(lid, status="down")
    changed = 0  # outcomes the down links changed
    for src, dst in itertools.product(range(topo.switch_count), repeat=2):
        ends = {topo.group_of_switch(src), topo.group_of_switch(dst)}
        cases = [(enumerate_minimal_routes,
                  routing_reference.enumerate_minimal_routes, ())]
        cases += [(enumerate_nonminimal_routes,
                   routing_reference.enumerate_nonminimal_routes, (g,))
                  for g in range(len(topo.group_kinds)) if g not in ends]
        for enumerate_routes, reference, group in cases:
            want = outcome(reference, topo, view, src, dst, *group)
            assert outcome(enumerate_routes, topo, view, src, dst, *group) \
                == want, (src, dst, *group)
            changed += want != outcome(reference, topo, intact, src, dst,
                                       *group)
    assert bool(changed) == degraded


# -- sweeps ----------------------------------------------------------------------

def test_sweep_excludes_and_restores(small_topo):
    ov = StateOverlay(small_topo)
    tables = routing_sweep(small_topo, ov)
    dst = next(iter(small_topo.switches_of_group(1)))
    before = tables.minimal_routes(0, dst)
    before_links = [walk(small_topo, r, 0, dst)[0] for r in before]
    lid = before_links[0][-1]

    ov.set_link_state(lid, status="down")
    # stale until swept
    assert tables.link_usable(lid)
    tables2 = routing_sweep(small_topo, ov, tables)
    assert not tables2.link_usable(lid)
    after = tables2.minimal_routes(0, dst) if len(before) > 1 else None
    if after is not None:
        after_links = {walk(small_topo, r, 0, dst)[0] for r in after}
        assert set(before_links) - after_links \
            == {links for links in before_links if lid in links}

    ov.set_link_state(lid, status="up")
    assert not tables2.link_usable(lid)  # still stale
    tables3 = routing_sweep(small_topo, ov, tables2)
    assert tables3.link_usable(lid)


def test_sweep_idempotent(small_topo):
    ov = StateOverlay(small_topo)
    t1 = routing_sweep(small_topo, ov)
    t2 = routing_sweep(small_topo, ov, t1)
    assert t2 is t1


def test_dead_link_routable_until_sweep(bench_topo):
    """Route choice reads the last sweep, as a fabric manager's view does,
    not the live overlay: a global link set down between sweeps is still
    usable, and still chosen, until ``router.sweep()`` drops it."""
    topo = bench_topo
    overlay = StateOverlay(topo)
    router = Router(topo, overlay, RoutingPolicy(mode="minimal"), seed=1)
    src = ep_on_switch(topo, 0)
    dst = ep_on_switch(topo, next(iter(topo.switches_of_group(1))))

    def globals_of(route):
        return {port_key(p)[0] for p in route
                if topo.links[port_key(p)[0]].kind == GLOBAL}

    minimal = router.tables.minimal_routes(0, topo.switch_of_endpoint(dst))
    dead = min(globals_of(minimal[0]))
    over = [r for r in minimal if dead in globals_of(r)]
    around = [r for r in minimal if dead not in globals_of(r)]
    assert over and around
    # load every route around the dead link, so a route over it is cheapest
    over_ports = {p for r in over for p in r}
    busy = {p: 1e6 for r in around for p in r if p not in over_ports}
    assert all(set(r) & set(busy) for r in around)
    views = (CongestionView(busy), CongestionView())

    overlay.set_link_state(dead, status="down")
    assert router.tables.link_usable(dead)
    assert dead in globals_of(router.select_route(src, dst, 0, False, views[0]))
    router.sweep()
    assert not router.tables.link_usable(dead)
    for view in views:
        assert dead not in globals_of(
            router.select_route(src, dst, 0, False, view))


# -- selection ---------------------------------------------------------------------

def ep_on_switch(topo, switch, idx=0):
    return switch * topo.spec.endpoints_per_switch + idx


def test_zero_occupancy_prefers_minimal(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=1)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, next(iter(small_topo.switches_of_group(1))))
    r = router.select_route(src, dst, 0, ordered=False)
    assert r in router.tables.minimal_routes(
        small_topo.switch_of_endpoint(src), small_topo.switch_of_endpoint(dst))


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
        for port in r:
            occ[port] = 10_000_000.0
    view = CongestionView(occ)
    r = router.select_route(src, dst, 0, ordered=False, view=view)
    assert r not in router.tables.minimal_routes(src_sw, dst_sw)


def test_ordered_flow_pinning(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    key = (src, dst, 0)
    router.open_flow(src, dst, 0)
    r1 = router.flows[key][0]
    assert r1 is not None
    # a chunk of the open flow: identical object
    assert router.select_route(src, dst, 0, ordered=True) is r1
    router.open_flow(src, dst, 0)  # second message while the first is pending
    assert router.flows[key] == [r1, 2]
    router.close_flow(src, dst, 0)
    r3 = router.select_route(src, dst, 0, ordered=True)
    assert r3 is r1  # one message still pending
    router.close_flow(src, dst, 0)
    assert router.flows == {}  # pin dropped at zero


def test_ordered_unordered_do_not_share_pins(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    router.open_flow(src, dst, 0)
    router.select_route(src, dst, 0, ordered=False)
    assert list(router.flows) == [(src, dst, 0)]
    router.open_flow(src, dst, 1)
    # per (src, dst, class)
    assert list(router.flows) == [(src, dst, 0), (src, dst, 1)]


def test_ordered_decision_of_a_closed_flow_pins_nothing(small_topo):
    """Only an open flow keeps a pin: an ordered decision for a flow with
    no pending message is made afresh each time and recorded nowhere."""
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    router.select_route(src, dst, 0, ordered=True)
    assert router.flows == {}
    router.open_flow(src, dst, 0)
    router.close_flow(src, dst, 0)
    router.select_route(src, dst, 0, ordered=True)
    assert router.flows == {}


def test_repin_keeps_pending_count(small_topo):
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    key = (src, dst, 0)
    router.open_flow(src, dst, 0)
    router.open_flow(src, dst, 0)
    route = router.repin(src, dst, 0)
    assert router.flows[key] == [route, 2]
    assert router.select_route(src, dst, 0, ordered=True) is route
    router.close_flow(src, dst, 0)
    assert router.flows[key] == [route, 1]  # one still pending
    router.close_flow(src, dst, 0)
    assert router.flows == {}


def test_failed_repin_leaves_flow_unpinned(small_topo):
    """With every fabric link down after a sweep, a re-pin finds no route:
    the flow keeps its pending count without a pin, and once the links are
    back after a sweep, its next ordered decision pins again."""
    overlay = StateOverlay(small_topo)
    router = Router(small_topo, overlay, RoutingPolicy(), seed=2)
    src = ep_on_switch(small_topo, 0)
    dst = ep_on_switch(small_topo, 9)
    key = (src, dst, 0)
    router.open_flow(src, dst, 0)
    router.open_flow(src, dst, 0)
    assert router.flows[key][0] is not None

    def set_fabric(status):
        for lid in small_topo.fabric_link_ids():
            overlay.set_link_state(lid, status=status)
        router.sweep()

    set_fabric("down")
    with pytest.raises(NoRouteError):
        router.repin(src, dst, 0)
    assert router.flows[key] == [None, 2]
    router.open_flow(src, dst, 0)  # a message opened without a route
    assert router.flows[key] == [None, 3]
    set_fabric("up")
    route = router.select_route(src, dst, 0, ordered=True)
    assert router.flows[key] == [route, 3]
    for _ in range(3):
        router.close_flow(src, dst, 0)
    assert router.flows == {}


def test_argmin_scale_invariance(small_topo):
    """Multiplying all occupancies by a positive constant never changes the
    selected route, and the occupancies do steer some choices away from the
    idle pick, so the views are not silently ignored."""
    router = Router(small_topo, StateOverlay(small_topo),
                    RoutingPolicy(intermediate_samples=2), seed=11)
    rng = random.Random(99)
    eps = small_topo.total_endpoints
    steered = 0
    for trial in range(100):
        src = rng.randrange(eps)
        dst = rng.randrange(eps)
        if small_topo.switch_of_endpoint(src) == small_topo.switch_of_endpoint(dst):
            continue
        occ = {}
        for l in small_topo.fabric_link_ids():
            if rng.random() < 0.4:
                occ[port_id(l, rng.randrange(2))] = float(rng.randrange(0, 50_000))
        view = CongestionView(occ)
        state = router.rng.getstate()
        pick = router.select_route(src, dst, 0, False, view=view)
        for factor in (0.5, 3.0, 1000.0):
            router.rng.setstate(state)
            scaled = CongestionView({p: v * factor for p, v in occ.items()})
            again = router.select_route(src, dst, 0, False, view=scaled)
            assert again == pick, (trial, factor)
        router.rng.setstate(state)
        steered += router.select_route(src, dst, 0, False) != pick
    assert steered > 0


def exhaustive_pick(topo, tables, occ, src, dst, bias):
    """The lexicographic (cost, weight, index) minimum over the minimal
    routes between switches ``src`` and ``dst`` followed by every detour
    set in group order, each enumerated and scored here."""
    ga, gb = topo.group_of_switch(src), topo.group_of_switch(dst)
    candidates = []
    try:
        candidates += [(r, 1.0) for r in
                       enumerate_minimal_routes(topo, tables, src, dst)]
    except NoRouteError:
        pass
    for g in range(len(topo.group_kinds)):
        if g in (ga, gb):
            continue
        try:
            candidates += [(r, bias) for r in enumerate_nonminimal_routes(
                topo, tables, src, dst, g)]
        except NoRouteError:
            pass

    def rank(i):
        route, weight = candidates[i]
        w = weight * (len(route) + 1)
        return w * max((occ.get(p, 0.0) for p in route),
                       default=0.0), w, i

    return candidates[min(range(len(candidates)), key=rank)][0]


def is_minimal(tables, src, dst, route):
    """Whether ``route`` is among the minimal routes between switches
    ``src`` and ``dst`` (there are none when every one is down)."""
    try:
        return route in tables.minimal_routes(src, dst)
    except NoRouteError:
        return False


def consulted_sets(topo, tables, occ, src, dst, bias):
    """The number of route sets a decision between switches ``src`` and
    ``dst`` reads the best score of, sampling every intermediate group: the
    minimal set, unless the pair has none, and then each reachable group's
    detour set in group order, up to the first group reached once the best
    so far is at the detour floor (0, 3 x bias)."""
    def score(routes, weight):
        return min((w * max((occ.get(p, 0.0) for p in r), default=0.0), w)
                   for r in routes for w in [weight * (len(r) + 1)])

    ga, gb = topo.group_of_switch(src), topo.group_of_switch(dst)
    best, n = None, 0
    try:
        best, n = score(enumerate_minimal_routes(topo, tables, src, dst),
                        1.0), 1
    except NoRouteError:
        pass
    for g in range(len(topo.group_kinds)):
        if g in (ga, gb):
            continue
        if best is not None and best <= (0.0, 3 * bias):
            break
        try:
            hit = score(enumerate_nonminimal_routes(topo, tables, src, dst,
                                                    g), bias)
        except NoRouteError:
            continue
        n += 1
        best = hit if best is None else min(best, hit)
    return n


def check_exhaustive_minimum(topo, bias, seed, per_view, monkeypatch):
    """Sampling every intermediate group (no RNG draw), picks equal the
    exhaustive minimum on views where most ports are idle.  Two global
    links are in maintenance, so on the small fabric some pairs have no
    minimal route.  Each view serves ``per_view`` decisions, cycling through
    one endpoint pair, or four when it serves several; returns the number
    of route sets scored (``routing._best`` calls) and the number the
    decisions consulted, counting a set once per decision."""
    rng = random.Random(seed)
    ov = StateOverlay(topo)
    for lid in rng.sample([l.id for l in topo.links if l.kind == "global"], 2):
        ov.set_link_state(lid, status="maintenance")
    router = Router(topo, ov, RoutingPolicy(
        nonminimal_bias=bias, intermediate_samples=len(topo.group_kinds)))
    ports = [port_id(l, d) for l in topo.fabric_link_ids() for d in (0, 1)]
    scored, consulted = [], 0
    best = routing._best
    monkeypatch.setattr(routing, "_best",
                        lambda *args: scored.append(1) or best(*args))
    detours = 0
    for _ in range(300 // per_view):
        pairs = [(rng.randrange(topo.total_endpoints),
                  rng.randrange(topo.total_endpoints))
                 for _ in range(1 if per_view == 1 else 4)]
        busy = rng.choice((0.0, 0.05, 0.3))
        occ = {p: float(rng.choice((4096, 8192, 65536)))
               for p in ports if rng.random() < busy}
        view = CongestionView(occ)
        for k in range(per_view):
            src, dst = pairs[k % len(pairs)]
            src_sw = topo.switch_of_endpoint(src)
            dst_sw = topo.switch_of_endpoint(dst)
            state = router.rng.getstate()
            pick = router.select_route(src, dst, 0, False, view=view)
            assert router.rng.getstate() == state
            assert pick == exhaustive_pick(topo, router.tables, occ, src_sw,
                                           dst_sw, bias)
            detours += not is_minimal(router.tables, src_sw, dst_sw, pick)
            consulted += consulted_sets(topo, router.tables, occ, src_sw,
                                        dst_sw, bias)
    assert detours > 0
    return len(scored), consulted


@pytest.mark.parametrize("bias", [0.25, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("fabric", ["small_topo", "bench_topo"])
def test_select_route_is_exhaustive_minimum(fabric, bias, request,
                                            monkeypatch):
    """One decision per view, so each starts on an empty scorecard and
    scores every route set it consults, once."""
    scored, consulted = check_exhaustive_minimum(
        request.getfixturevalue(fabric), bias,
        len(fabric) * 100 + int(bias * 4), 1, monkeypatch)
    assert scored == consulted


@pytest.mark.parametrize("bias", [0.25, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("fabric", ["small_topo", "bench_topo"])
def test_memo_hits_are_exhaustive_minimum(fabric, bias, request,
                                          monkeypatch):
    """20 decisions among 4 endpoint pairs per view: most route sets the
    decisions consult are answered from a scorecard, not scored again, and
    every pick must still equal the exhaustive minimum."""
    scored, consulted = check_exhaustive_minimum(
        request.getfixturevalue(fabric), bias,
        len(fabric) * 100 + int(bias * 4), 20, monkeypatch)
    assert scored < consulted / 2


def test_idle_fabric_can_prefer_a_detour(small_topo):
    """At bias 0.5 a detour weighs at most 0.5 x 6 = 3 and a three-hop
    minimal route weighs 4, so on an idle fabric the minimum is a detour: a
    floor that stopped at any idle minimal route would pick wrong."""
    router = Router(small_topo, StateOverlay(small_topo), RoutingPolicy(
        nonminimal_bias=0.5, intermediate_samples=4))
    src, dst = next(
        (s, d) for s in small_topo.switches_of_group(0)
        for d in small_topo.switches_of_group(1)
        if all(len(r) == 3 for r in router.tables.minimal_routes(s, d)))
    pick = router.select_route(ep_on_switch(small_topo, src),
                               ep_on_switch(small_topo, dst), 0, False)
    assert not is_minimal(router.tables, src, dst, pick)
    assert pick == exhaustive_pick(small_topo, router.tables, {}, src, dst, 0.5)


@pytest.mark.parametrize("bias", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_policy_rejects_bad_bias(small_topo, bias):
    """The detour floor is 3 x ``nonminimal_bias``: NaN compares false with
    every cost and an infinite floor makes every detour cost the same."""
    with pytest.raises(RoutingError, match="nonminimal_bias"):
        Router(small_topo, StateOverlay(small_topo),
               RoutingPolicy(nonminimal_bias=bias), seed=1)


def test_view_rejects_negative_entries():
    with pytest.raises(RoutingError):
        CongestionView({3: -1.0})
    occ = {3: 4096.0, 5: 0.0}

    def scaled(factor):
        return CongestionView({p: v * factor for p, v in occ.items()})

    with pytest.raises(RoutingError):
        scaled(-1.0)
    assert scaled(0.0).route_max_occupancy((3, 5)) == 0.0


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
        links, _ = walk(small_topo, r, small_topo.switch_of_endpoint(src),
                        small_topo.switch_of_endpoint(dst))
        assert not (set(links) & down)


def test_aurora_hop_bound():
    from slingsim.topology import aurora_spec
    topo = build_topology(aurora_spec())
    view = StateOverlay(topo)
    rng = random.Random(0)
    for _ in range(2000):
        src = rng.randrange(topo.switch_count)
        dst = rng.randrange(topo.switch_count)
        routes = enumerate_minimal_routes(topo, view, src, dst)
        assert all(len(walk(topo, r, src, dst)[0]) <= 3 for r in routes)
