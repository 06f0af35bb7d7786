"""Frozen reference copy of ``build_topology``'s link loops as they stood
while every link was built eagerly: a tuple of all ``Link`` objects, a dict
of local link ids per switch pair and a dict of global link ids per group
pair.  ``test_link_table`` compares the arithmetic ``LinkTable`` against
this copy; do not edit it to follow later changes of
``slingsim.topology``.
"""

from __future__ import annotations

from dataclasses import dataclass

from slingsim.topology import (
    EDGE,
    GLOBAL,
    KIND_COMPUTE,
    KIND_SERVICE,
    KIND_STORAGE,
    LOCAL,
    SWITCH_RADIX,
    Link,
    TopologyError,
    TopologySpec,
)


@dataclass(frozen=True)
class ReferenceLinks:
    links: tuple[Link, ...]
    local_links: dict[tuple[int, int], tuple[int, ...]]  # (sw_a, sw_b) a<b
    global_links: dict[tuple[int, int], tuple[int, ...]]  # (grp_a, grp_b) a<b


def _global_pair_multiplicity(spec: TopologySpec, kind_a: str, kind_b: str) -> int:
    kinds = {kind_a, kind_b}
    if kinds == {KIND_COMPUTE}:
        return spec.global_links_per_compute_pair
    if KIND_COMPUTE in kinds:
        return spec.global_links_compute_to_noncompute
    if kinds == {KIND_STORAGE}:
        return spec.global_links_per_storage_pair
    return 0


def build_reference(spec: TopologySpec) -> ReferenceLinks:
    spec.validate()
    S = spec.switches_per_group
    eps = spec.endpoints_per_switch

    group_kinds = tuple(
        [KIND_COMPUTE] * spec.compute_groups
        + [KIND_STORAGE] * spec.storage_groups
        + [KIND_SERVICE] * spec.service_groups
    )
    n_groups = len(group_kinds)
    n_switches = n_groups * S

    ports_used = [eps + (S - 1) * spec.local_links_per_switch_pair] * n_switches

    links: list[Link] = []

    # edge links: endpoint e attaches to its switch at port e % eps
    for sw in range(n_switches):
        for p in range(eps):
            e = sw * eps + p
            links.append(Link(id=e, kind=EDGE, switch_a=sw, port_a=p,
                              switch_b=sw, port_b=p, endpoint=e))

    # local links: all-to-all within each group, port numbering after edges
    local_links: dict[tuple[int, int], tuple[int, ...]] = {}
    L = spec.local_links_per_switch_pair
    for g in range(n_groups):
        base = g * S
        for i in range(S):
            for j in range(i + 1, S):
                sa, sb = base + i, base + j
                ids = []
                for d in range(L):
                    pa = eps + (j - 1) * L + d
                    pb = eps + i * L + d
                    lid = len(links)
                    links.append(Link(id=lid, kind=LOCAL, switch_a=sa,
                                      port_a=pa, switch_b=sb, port_b=pb))
                    ids.append(lid)
                if ids:
                    local_links[(sa, sb)] = tuple(ids)

    # global links: group pairs lexicographically, round-robin switch cursors
    global_links: dict[tuple[int, int], tuple[int, ...]] = {}
    cursor = [0] * n_groups
    next_port = list(ports_used)
    for ga in range(n_groups):
        for gb in range(ga + 1, n_groups):
            m = _global_pair_multiplicity(spec, group_kinds[ga], group_kinds[gb])
            if m == 0:
                continue
            ids = []
            for _ in range(m):
                sa = ga * S + cursor[ga] % S
                sb = gb * S + cursor[gb] % S
                cursor[ga] += 1
                cursor[gb] += 1
                pa, pb = next_port[sa], next_port[sb]
                if pa >= SWITCH_RADIX or pb >= SWITCH_RADIX:
                    raise TopologyError("port budget exceeded")
                next_port[sa] = pa + 1
                next_port[sb] = pb + 1
                lid = len(links)
                links.append(Link(id=lid, kind=GLOBAL, switch_a=sa,
                                  port_a=pa, switch_b=sb, port_b=pb))
                ids.append(lid)
            global_links[(ga, gb)] = tuple(ids)

    return ReferenceLinks(tuple(links), local_links, global_links)
