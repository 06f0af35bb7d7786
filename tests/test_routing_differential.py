"""Differential test of route selection against a frozen reference copy.

Hypothesis drives the live ``Router._decide`` and the ``Selector`` of
``routing_reference`` (the id-keyed memo and the ``random.sample`` draw) on
the same seed through one stream of decisions, and requires the same pick,
or the same ``NoRouteError`` message, and the same ``rng.getstate()`` after
every decision.  The cases cover the small and the bench fabric with up to
10 % of links and whole group pairs cut, views that repeat across decisions
and views that change, tables that change, biases from 0.25 to 4, every
``intermediate_samples`` from 1 to all groups, and both modes.  Each side
gets its own ``RoutingTables`` of the same cut, so neither reads route sets
the other enumerated.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import routing_reference
from conftest import bench_spec, make_spec
from route_replay import outcome
from slingsim.routing import CongestionView, Router, RoutingPolicy, \
    RoutingTables
from slingsim.topology import StateOverlay, build_topology, port_id

FABRICS = [build_topology(make_spec()), build_topology(bench_spec())]


@st.composite
def cases(draw):
    topo = draw(st.sampled_from(FABRICS))
    links = list(topo.fabric_link_ids())
    group_pairs = sorted(topo.global_links)
    # each of one or two cuts: up to 10 % of the links, plus whole group
    # pairs now and then
    cuts = []
    for _ in range(draw(st.integers(1, 2))):
        cut = set(draw(st.lists(st.sampled_from(links),
                                max_size=len(links) // 10)))
        for pair in draw(st.lists(st.sampled_from(group_pairs),
                                  max_size=2)):
            cut.update(topo.global_links[pair])
        cuts.append(frozenset(cut))
    ports = [port_id(l, d) for l in links for d in (0, 1)]
    occupancy = st.sampled_from((4096.0, 8192.0, 65536.0))
    views = draw(st.lists(
        st.dictionaries(st.sampled_from(ports), occupancy, max_size=40),
        min_size=1, max_size=3))
    policy = RoutingPolicy(
        mode=draw(st.sampled_from(("adaptive", "minimal"))),
        nonminimal_bias=draw(st.one_of(
            st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
            st.floats(0.25, 4.0))),
        intermediate_samples=draw(st.integers(1, len(topo.group_kinds))))
    # a few endpoint pairs, so most decisions repeat a pair under a view
    # and tables an earlier one saw
    endpoint = st.integers(0, topo.total_endpoints - 1)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), min_size=1,
                          max_size=6))
    decisions = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(0, len(views) - 1),
                  st.integers(0, len(cuts) - 1)),
        min_size=1, max_size=40))
    return topo, cuts, views, policy, draw(st.integers(0, 2**32)), decisions


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases())
def test_routing_differential(case):
    topo, cuts, occs, policy, seed, decisions = case
    live = Router(topo, StateOverlay(topo), policy, seed)
    ref = routing_reference.Selector(topo, policy, seed)
    tables = [(RoutingTables(topo, cut), RoutingTables(topo, cut))
              for cut in cuts]
    views = [CongestionView(occ) for occ in occs]
    for (src, dst), v, t in decisions:
        live.tables, ref.tables = tables[t]
        got = outcome(live._decide, src, dst, views[v])
        want = outcome(ref._decide, src, dst, views[v])
        assert got == want, (src, dst, v, t)
        assert live.rng.getstate() == ref.rng.getstate(), (src, dst, v, t)
