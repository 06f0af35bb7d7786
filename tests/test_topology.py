"""Topology construction, addressing, overlay and metrics tests.

The structural audit uses an independent brute-force constructor that walks
every pair of switches/groups with itertools and counts expected links from
first principles, never consulting the builder's bookkeeping.
"""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from slingsim.topology import (
    EDGE,
    GLOBAL,
    KIND_COMPUTE,
    KIND_SERVICE,
    KIND_STORAGE,
    LOCAL,
    SWITCH_RADIX,
    StateOverlay,
    TopologyError,
    TopologySpec,
    aurora_spec,
    build_topology,
    endpoint_address,
    endpoint_at_address,
    port_id,
    port_key,
    topology_metrics,
)

from conftest import bench_spec, retained_bytes
from test_aurora_scale import TOPOLOGY_BYTES
from topology_reference import build_reference


def small_spec(**kw) -> TopologySpec:
    base = dict(
        compute_groups=4, storage_groups=0, service_groups=0,
        switches_per_group=4, nodes_per_switch=1, nics_per_node=2,
        local_links_per_switch_pair=1, global_links_per_compute_pair=1,
        global_links_compute_to_noncompute=1, global_links_per_storage_pair=2,
    )
    base.update(kw)
    return TopologySpec(**base)


# -- brute-force structural oracle -------------------------------------------

def brute_force_counts(spec: TopologySpec):
    """Expected link counts per category, enumerated pair by pair."""
    kinds = ([KIND_COMPUTE] * spec.compute_groups
             + [KIND_STORAGE] * spec.storage_groups
             + [KIND_SERVICE] * spec.service_groups)
    S = spec.switches_per_group
    local = 0
    for _ in kinds:
        local += len(list(itertools.combinations(range(S), 2))) \
            * spec.local_links_per_switch_pair
    global_per_pair = {}
    for ga, gb in itertools.combinations(range(len(kinds)), 2):
        ka, kb = kinds[ga], kinds[gb]
        if ka == KIND_COMPUTE and kb == KIND_COMPUTE:
            m = spec.global_links_per_compute_pair
        elif KIND_COMPUTE in (ka, kb):
            m = spec.global_links_compute_to_noncompute
        elif ka == KIND_STORAGE and kb == KIND_STORAGE:
            m = spec.global_links_per_storage_pair
        else:
            m = 0
        global_per_pair[(ga, gb)] = m
    endpoints = len(kinds) * S * spec.nodes_per_switch * spec.nics_per_node
    return local, global_per_pair, endpoints


@pytest.mark.parametrize("spec", [
    small_spec(),
    small_spec(compute_groups=3, storage_groups=2, service_groups=1,
               nodes_per_switch=2, global_links_per_compute_pair=2),
    small_spec(switches_per_group=5, global_links_per_compute_pair=3),
])
def test_structural_audit_matches_brute_force(spec):
    topo = build_topology(spec)
    local, global_per_pair, endpoints = brute_force_counts(spec)

    assert topo.total_endpoints == endpoints
    got_local = sum(1 for l in topo.links if l.kind == LOCAL)
    assert got_local == local

    # exact multiplicity per group pair
    for (ga, gb), m in global_per_pair.items():
        got = topo.global_links.get((ga, gb), ())
        assert len(got) == m, (ga, gb)

    # per-group all-to-all completeness: every switch pair joined exactly
    # local_links_per_switch_pair times
    for g in range(len(topo.group_kinds)):
        sws = list(topo.switches_of_group(g))
        for sa, sb in itertools.combinations(sws, 2):
            assert len(topo.links.local_between(sa, sb)) \
                == spec.local_links_per_switch_pair


def test_aurora_counts():
    topo = build_topology(aurora_spec())
    assert topo.compute_endpoint_count() == 84992
    assert topo.switch_count == 5600
    assert len(topo.group_kinds) == 175
    # 512 endpoints per group, uniformly
    assert topo.spec.endpoints_per_switch * topo.spec.switches_per_group == 512


def test_single_group_spec():
    spec = small_spec(compute_groups=1, switches_per_group=32,
                      nodes_per_switch=2, nics_per_node=8)
    topo = build_topology(spec)
    assert topo.total_endpoints == 512
    assert not any(l.kind == GLOBAL for l in topo.links)


def test_build_determinism():
    a = build_topology(small_spec(storage_groups=1, service_groups=1))
    b = build_topology(small_spec(storage_groups=1, service_groups=1))
    assert a.links == b.links
    assert a.global_links == b.global_links


def test_port_budget_rejected():
    # 63 compute groups with 8 links per pair on 4-switch groups needs
    # 62*8/4 = 124 global ports per switch, and 2 edge and 3 local ports
    # leave 59 free
    spec = small_spec(compute_groups=63, global_links_per_compute_pair=8)
    with pytest.raises(TopologyError,
                       match="group 0 needs 124 global ports per switch, "
                             "more than the 59 ports left free"):
        build_topology(spec)


def test_port_budget_boundary():
    # 1-switch groups with 2 edge ports leave 62 ports for global links: 63
    # groups give each switch 62 peers, which fill it; 64 do not fit
    fits = small_spec(compute_groups=63, switches_per_group=1)
    build_reference(fits)
    assert max(l.port_b for l in build_topology(fits).links) \
        == SWITCH_RADIX - 1
    over = small_spec(compute_groups=64, switches_per_group=1)
    with pytest.raises(TopologyError):
        build_reference(over)
    with pytest.raises(TopologyError,
                       match="group 0 needs 63 global ports per switch, "
                             "more than the 62 ports left free"):
        build_topology(over)


@pytest.mark.parametrize("compute_groups", [1, 2])
def test_edge_and_local_port_budget_rejected(compute_groups):
    # 16 edge ports and 59 local ports on 60-switch groups: 75 > 64, also
    # for one group, which has no global link to fail the radix check
    spec = TopologySpec(compute_groups=compute_groups, storage_groups=0,
                        service_groups=0, switches_per_group=60)
    with pytest.raises(TopologyError, match="75 ports"):
        build_topology(spec)


def test_ports_unique_per_switch():
    topo = build_topology(small_spec(storage_groups=2, service_groups=1))
    seen = {}
    for l in topo.links:
        if l.kind == EDGE:
            seen.setdefault(l.switch_a, set())
            assert l.port_a not in seen[l.switch_a]
            seen[l.switch_a].add(l.port_a)
        else:
            for sw, port in ((l.switch_a, l.port_a), (l.switch_b, l.port_b)):
                seen.setdefault(sw, set())
                assert port not in seen[sw], (l, sw, port)
                seen[sw].add(port)


def test_global_links_round_robin_balanced():
    topo = build_topology(small_spec())
    per_switch = {}
    for l in topo.links:
        if l.kind != GLOBAL:
            continue
        for sw in (l.switch_a, l.switch_b):
            per_switch[sw] = per_switch.get(sw, 0) + 1
    # 4 groups, 1 link/pair -> 3 global links per group over 4 switches
    assert max(per_switch.values()) - min(per_switch.values()) <= 1


# -- link table against the eager reference builder ---------------------------

@pytest.mark.parametrize("spec", [
    bench_spec(),
    small_spec(compute_groups=3, storage_groups=2, service_groups=1,
               nodes_per_switch=2, global_links_per_compute_pair=2),
    small_spec(local_links_per_switch_pair=2),
    small_spec(switches_per_group=1),  # no local links
    small_spec(local_links_per_switch_pair=0),  # no local links
    small_spec(compute_groups=1),  # no global links
], ids=["bench", "storage_service", "two_locals", "one_switch",
        "zero_locals", "one_group"])
def test_link_table_matches_reference(spec):
    topo = build_topology(spec)
    ref = build_reference(spec)
    links, n = topo.links, len(ref.links)
    assert len(links) == n
    names = [f.name for f in dataclasses.fields(ref.links[0])]
    for lid, want in enumerate(ref.links):
        for got in (links[lid], links[lid - n]):
            assert [getattr(got, f) for f in names] \
                == [getattr(want, f) for f in names], lid
        assert links.switches(lid) == (want.switch_a, want.switch_b), lid
    assert tuple(links) == ref.links
    for cut in (slice(None), slice(3, -2, 3), slice(None, None, -1),
                slice(topo.total_endpoints, None), slice(n, n + 5)):
        assert links[cut] == ref.links[cut], cut
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            links[bad]
    for bad in (n, -1):
        with pytest.raises(IndexError):
            links.switches(bad)
    assert links == build_topology(spec).links
    assert topo.global_links == ref.global_links

    # every ordered switch pair: same group, other group and same switch
    switches = range(topo.switch_count)
    for sa, sb in itertools.product(switches, switches):
        want = ref.local_links.get((min(sa, sb), max(sa, sb)), ())
        assert tuple(topo.links.local_between(sa, sb)) == want, (sa, sb)


def test_link_tables_of_different_specs_differ():
    assert build_topology(small_spec()).links \
        != build_topology(small_spec(local_links_per_switch_pair=2)).links
    assert build_topology(small_spec()).links \
        != build_topology(small_spec(global_links_per_compute_pair=2)).links


MULTIPLICITY = st.one_of(st.integers(0, 3), st.integers(10, 40))


@st.composite
def wiring_specs(draw):
    """Small specs mixing the three group kinds, with zero multiplicities,
    1-switch groups, no local links and multiplicities past the port
    budget among them."""
    return small_spec(
        compute_groups=draw(st.integers(0, 5)),
        storage_groups=draw(st.integers(0, 3)),
        service_groups=draw(st.integers(0, 2)),
        switches_per_group=draw(st.integers(1, 4)),
        nodes_per_switch=draw(st.integers(1, 2)),
        nics_per_node=draw(st.integers(1, 2)),
        local_links_per_switch_pair=draw(st.integers(0, 2)),
        global_links_per_compute_pair=draw(MULTIPLICITY),
        global_links_compute_to_noncompute=draw(MULTIPLICITY),
        global_links_per_storage_pair=draw(MULTIPLICITY),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wiring_specs())
def test_closed_form_links_match_reference(spec):
    try:
        ref = build_reference(spec)
    except TopologyError:  # the reference ran out of ports
        with pytest.raises(TopologyError, match="global ports per switch"):
            build_topology(spec)
        return
    topo = build_topology(spec)
    links, n = topo.links, len(ref.links)
    assert len(links) == n
    for lid, want in enumerate(ref.links):
        assert links[lid] == want and links[lid - n] == want, lid
        assert links.switches(lid) == (want.switch_a, want.switch_b), lid
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            links[bad]
    for bad in (n, -1):
        with pytest.raises(IndexError):
            links.switches(bad)

    glinks = topo.global_links
    assert glinks == ref.global_links
    assert list(glinks.items()) == list(ref.global_links.items())
    assert len(glinks) == len(ref.global_links)
    groups = range(-1, len(topo.group_kinds) + 1)
    for pair in itertools.product(groups, groups):
        want = ref.global_links.get(pair)
        assert glinks.get(pair) == want, pair
        assert (pair in glinks) == (want is not None), pair
        if want is None:  # absent, reversed, out of range or no link
            with pytest.raises(KeyError):
                glinks[pair]


def test_group_without_local_links_holds_no_pair_table():
    """Without local links the port budget does not bound the switches per
    group, so a table per switch pair would grow with their square: one
    group of 2,000 switches held 95 MB in two such tables for 4,000 edge
    links."""
    spec = small_spec(compute_groups=1, switches_per_group=2000,
                      local_links_per_switch_pair=0)
    topo, held = retained_bytes(lambda: build_topology(spec))
    assert held <= TOPOLOGY_BYTES
    links = topo.links
    assert len(links) == topo.total_endpoints == 4000
    assert links[-1] == links[3999] and links[-1].kind == EDGE
    assert links.switches(3999) == (1999, 1999)
    assert not links.local_between(0, 1999)


# -- metrics -------------------------------------------------------------------

def test_aurora_metrics_table():
    m = topology_metrics(build_topology(aurora_spec()))
    assert m.endpoint_count == 84992
    assert m.injection_bw == pytest.approx(2.12e15, rel=0.005)
    assert m.global_bw == pytest.approx(1.37e15, rel=0.005)
    assert m.bisection_bw == pytest.approx(0.69e15, rel=0.005)
    assert m.bisection_bw <= m.global_bw


def test_metrics_single_group():
    m = topology_metrics(build_topology(small_spec(compute_groups=1)))
    assert m.global_bw == 0.0
    assert m.injection_bw == m.endpoint_count * 25e9


def test_metrics_brute_force_small():
    spec = small_spec(compute_groups=5, global_links_per_compute_pair=2)
    topo = build_topology(spec)
    m = topology_metrics(topo)
    # independent recount of compute-pair global links
    n_links = 0
    for (ga, gb), ids in topo.global_links.items():
        n_links += len(ids)
    assert m.global_bw == pytest.approx(n_links * 2 * spec.link_bw_per_dir)
    # balanced split of 5 groups: 2x3 crossing pairs, 2 links each, both dirs
    assert m.bisection_bw == pytest.approx(2 * 3 * 2 * 2 * spec.link_bw_per_dir)


# the values the eager builder's walk over every fabric link gave
@pytest.mark.parametrize("spec, global_bw, bisection_bw, fabric_links", [
    (aurora_spec(), 1369500000000000.0, 688900000000000.0, 117850),
    (small_spec(compute_groups=3, storage_groups=2, service_groups=1,
                nodes_per_switch=2, global_links_per_compute_pair=2),
     300000000000.0, 200000000000.0, 53),
    (small_spec(compute_groups=5, global_links_per_compute_pair=2),
     1000000000000.0, 600000000000.0, 50),
], ids=["aurora", "storage_service", "five_groups"])
def test_metrics_pinned(spec, global_bw, bisection_bw, fabric_links):
    m = topology_metrics(build_topology(spec))
    assert m.global_bw == global_bw
    assert m.bisection_bw == bisection_bw
    assert m.fabric_link_count == fabric_links


# -- addressing ----------------------------------------------------------------

def test_address_origin():
    topo = build_topology(small_spec())
    assert endpoint_address(topo, 0) == endpoint_address(topo, 0)
    addr = endpoint_address(topo, 0)
    assert (addr.group, addr.switch, addr.port) == (0, 0, 0)


def test_address_round_trip_exhaustive():
    topo = build_topology(small_spec(storage_groups=1))
    seen = set()
    prev = None
    for e in range(topo.total_endpoints):
        addr = endpoint_address(topo, e)
        key = (addr.group, addr.switch, addr.port)
        assert key not in seen  # bijection
        seen.add(key)
        if prev is not None:
            assert key > prev  # lexicographic order preserved
        prev = key
        assert endpoint_at_address(topo, addr) == e


def test_address_unknown_endpoint():
    topo = build_topology(small_spec())
    with pytest.raises(TopologyError):
        endpoint_address(topo, topo.total_endpoints)


# -- state overlay --------------------------------------------------------------

def test_lane_scaling():
    topo = build_topology(small_spec())
    ov = StateOverlay(topo)
    link = topo.fabric_link_ids()[0]
    ov.set_link_state(link, active_lanes=2)
    assert ov.effective_bandwidth(link) == pytest.approx(12.5e9)
    assert ov.link_usable(link)  # degraded but up


def test_overlay_rejects_bad_lanes():
    topo = build_topology(small_spec())
    ov = StateOverlay(topo)
    with pytest.raises(TopologyError):
        ov.set_link_state(0, active_lanes=0)
    with pytest.raises(TopologyError):
        ov.set_link_state(0, active_lanes=5)


def test_overlay_round_trip_and_exclusion():
    topo = build_topology(small_spec())
    ov = StateOverlay(topo)
    link = topo.fabric_link_ids()[3]
    ov.set_link_state(link, status="maintenance")
    assert not ov.link_usable(link)
    assert link in ov.excluded_links()
    ov.set_link_state(link, status="down")
    assert not ov.link_usable(link)
    ov.set_link_state(link, status="up")
    assert ov.link_usable(link)
    assert ov.excluded_links() == frozenset()


def test_overlay_does_not_mutate_topology():
    topo = build_topology(small_spec())
    ov = StateOverlay(topo)
    before = topo.links
    ov.set_link_state(1, status="down")
    assert topo.links is before


def test_spec_validation():
    with pytest.raises(TopologyError):
        TopologySpec(lanes_per_link=0).validate()
    with pytest.raises(TopologyError):
        TopologySpec(link_bw_per_dir=0).validate()
    with pytest.raises(TopologyError):
        TopologySpec(switches_per_group=0).validate()


@pytest.mark.parametrize("field, value", [
    ("link_bw_per_dir", math.nan), ("link_bw_per_dir", math.inf),
    ("per_hop_latency", math.nan), ("per_hop_latency", math.inf),
    ("endpoint_latency", math.nan), ("endpoint_latency", -1e-9),
], ids=["bw_nan", "bw_inf", "hop_nan", "hop_inf", "endpoint_nan",
        "endpoint_negative"])
def test_spec_rejects_non_finite_or_negative(field, value):
    """Comparisons with NaN are all false, so each bound is checked in the
    form that NaN fails."""
    with pytest.raises(TopologyError, match=field):
        build_topology(small_spec(**{field: value}))


def test_port_ids_are_dense_and_invertible(small_topo):
    ids = [port_id(l.id, d) for l in small_topo.links for d in (0, 1)]
    assert ids == list(range(2 * len(small_topo.links)))
    assert [port_key(p) for p in ids] == \
        [(l.id, d) for l in small_topo.links for d in (0, 1)]
