"""Topology construction, addressing, overlay and metrics tests.

The structural audit uses an independent brute-force constructor that walks
every pair of switches/groups with itertools and counts expected links from
first principles, never consulting the builder's bookkeeping.
"""

import itertools
import math

import pytest

from slingsim.topology import (
    EDGE,
    GLOBAL,
    KIND_COMPUTE,
    KIND_SERVICE,
    KIND_STORAGE,
    LOCAL,
    LinkState,
    StateOverlay,
    TopologyError,
    TopologySpec,
    aurora_spec,
    build_topology,
    endpoint_address,
    endpoint_at_address,
    load_spec,
    parse_spec_text,
    port_id,
    port_key,
    set_link_state,
    topology_metrics,
)


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
            assert len(topo.local_links[(sa, sb)]) == spec.local_links_per_switch_pair


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
    assert a.adjacency == b.adjacency


def test_port_budget_rejected():
    # 63 compute groups with 8 links per pair on 4-switch groups needs
    # 62*8/4 = 124 global ports per switch
    spec = small_spec(compute_groups=63, global_links_per_compute_pair=8)
    with pytest.raises(TopologyError, match="ports"):
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
    set_link_state(ov, link, LinkState(status="maintenance"))
    assert not ov.link_usable(link)
    assert link in ov.excluded_links()
    set_link_state(ov, link, LinkState(status="down"))
    assert not ov.link_usable(link)
    set_link_state(ov, link, LinkState(status="up"))
    assert ov.link_usable(link)
    assert ov.excluded_links() == frozenset()


def test_overlay_does_not_mutate_topology():
    topo = build_topology(small_spec())
    ov = StateOverlay(topo)
    before = topo.links
    ov.set_link_state(1, status="down")
    assert topo.links is before


# -- socket binding ---------------------------------------------------------------

def test_socket_halves():
    topo = build_topology(small_spec(nodes_per_switch=2, nics_per_node=8))
    for e in topo.endpoints_of_node(0):
        nic = topo.nic_of_endpoint(e)
        assert topo.socket_of_endpoint(e) == (0 if nic < 4 else 1)


# -- spec files --------------------------------------------------------------------

def test_spec_text_key_value():
    spec = parse_spec_text("""
# one cabinet
compute_groups = 1
storage_groups = 0
service_groups = 0
""")
    topo = build_topology(spec)
    assert topo.total_endpoints == 512


def test_spec_text_json():
    spec = parse_spec_text('{"compute_groups": 2, "storage_groups": 0, "service_groups": 0, "link_bw_gbytes_per_s": 12.5}')
    assert spec.compute_groups == 2
    assert spec.link_bw_per_dir == pytest.approx(12.5e9)


def test_spec_unknown_key_named():
    with pytest.raises(TopologyError, match="bogus_key"):
        parse_spec_text("bogus_key = 3")


def test_load_spec_aurora_name():
    assert load_spec("aurora") == aurora_spec()


def test_spec_validation():
    with pytest.raises(TopologyError):
        TopologySpec(lanes_per_link=0).validate()
    with pytest.raises(TopologyError):
        TopologySpec(link_bw_per_dir=0).validate()
    with pytest.raises(TopologyError):
        TopologySpec(switches_per_group=0).validate()


def test_port_ids_are_dense_and_invertible(small_topo):
    ids = [port_id(l.id, d) for l in small_topo.links for d in (0, 1)]
    assert ids == list(range(2 * len(small_topo.links)))
    assert [port_key(p) for p in ids] == \
        [(l.id, d) for l in small_topo.links for d in (0, 1)]
