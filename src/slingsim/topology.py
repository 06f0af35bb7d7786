"""Parametric dragonfly topologies with deterministic addressing.

A topology is a set of groups, each holding an all-to-all mesh of switches.
Every switch carries a fixed number of nodes, every node a fixed number of
NICs (endpoints).  Groups are pairwise connected by global links; the link
multiplicity depends on the group kinds (compute, storage, service).  The
builder is fully deterministic: the same spec always yields the same link
ids and the same switch port numbering.

Indices are arithmetic throughout:

* switch ``s`` belongs to group ``s // switches_per_group``
* node ``n`` sits on switch ``n // nodes_per_switch``
* endpoint ``e`` belongs to node ``e // nics_per_node`` and its edge link
  has link id equal to ``e``.
* the directed port of link ``l`` travelled in direction ``d`` has port id
  ``2 * l + d`` (see :func:`port_id`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import json

SWITCH_RADIX = 64  # ports per switch; hard limit of the modeled hardware

KIND_COMPUTE = "compute"
KIND_STORAGE = "storage"
KIND_SERVICE = "service"

EDGE = "edge"
LOCAL = "local"
GLOBAL = "global"

STATUS_UP = "up"
STATUS_DOWN = "down"
STATUS_MAINTENANCE = "maintenance"


class TopologyError(ValueError):
    """Raised for invalid specs or impossible wiring requests."""


@dataclass(frozen=True, slots=True)
class TopologySpec:
    """Parametric description of a dragonfly fabric."""

    compute_groups: int = 166
    storage_groups: int = 8
    service_groups: int = 1
    switches_per_group: int = 32
    nodes_per_switch: int = 2
    nics_per_node: int = 8
    local_links_per_switch_pair: int = 1
    global_links_per_compute_pair: int = 2
    global_links_compute_to_noncompute: int = 2
    global_links_per_storage_pair: int = 24
    link_bw_per_dir: float = 25e9  # bytes/second, one direction
    lanes_per_link: int = 4
    per_hop_latency: float = 200e-9  # seconds per switch-to-switch hop
    endpoint_latency: float = 700e-9  # seconds at injection and at delivery

    def validate(self) -> None:
        counts = (
            self.compute_groups, self.storage_groups, self.service_groups,
            self.nodes_per_switch, self.nics_per_node,
            self.local_links_per_switch_pair,
            self.global_links_per_compute_pair,
            self.global_links_compute_to_noncompute,
            self.global_links_per_storage_pair,
        )
        if any(c < 0 for c in counts):
            raise TopologyError("all counts must be >= 0")
        if self.switches_per_group < 1:
            raise TopologyError("switches_per_group must be >= 1")
        if not 1 <= self.lanes_per_link <= 4:
            raise TopologyError("lanes_per_link must be in 1..4")
        if self.link_bw_per_dir <= 0:
            raise TopologyError("link_bw_per_dir must be > 0")
        if self.per_hop_latency < 0 or self.endpoint_latency < 0:
            raise TopologyError("latencies must be >= 0")

    @property
    def endpoints_per_switch(self) -> int:
        return self.nodes_per_switch * self.nics_per_node

    @property
    def group_count(self) -> int:
        return self.compute_groups + self.storage_groups + self.service_groups


def aurora_spec() -> TopologySpec:
    """Spec of the full Aurora fabric: 166 compute, 8 storage and 1 service
    group of 32 switches each, 2 nodes x 8 NICs per switch, 25 GB/s/dir
    4-lane links, 2 global links per compute pair, 2 to each non-compute
    group and 24 between storage pairs."""
    return TopologySpec()


@dataclass(frozen=True, slots=True)
class Link:
    """One cable.  ``kind`` is edge (endpoint<->switch), local (intra-group)
    or global (inter-group).  For edge links ``switch_b``/``port_b`` mirror
    the switch side and ``endpoint`` holds the NIC; direction 0 always means
    a->b travel (for edge links: endpoint->switch)."""

    id: int
    kind: str
    switch_a: int
    port_a: int
    switch_b: int
    port_b: int
    endpoint: int = -1

    def peer(self, switch: int) -> int:
        return self.switch_b if switch == self.switch_a else self.switch_a


def port_id(link: int, direction: int) -> int:
    """Integer id of the directed port that travels ``link`` in
    ``direction`` (0: a->b, 1: b->a)."""
    return 2 * link + direction


def port_key(port: int) -> tuple[int, int]:
    """Inverse of :func:`port_id`: the ``(link, direction)`` of a port id."""
    return port >> 1, port & 1


@dataclass(frozen=True, slots=True)
class FabricAddress:
    """Deterministic address of a switch port: (group, switch-in-group,
    port-on-switch).  Bijective with physical ports."""

    group: int
    switch: int
    port: int


@dataclass(frozen=True)
class Topology:
    """Immutable instantiated fabric.

    ``group_kinds[g]`` gives the kind of group g (compute groups come first,
    then storage, then service).  ``links`` is indexed by link id; edge links
    occupy ids ``0..total_endpoints-1`` in endpoint order.
    """

    spec: TopologySpec
    group_kinds: tuple[str, ...]
    links: tuple[Link, ...]
    local_links: Mapping[tuple[int, int], tuple[int, ...]]  # (sw_a, sw_b) a<b
    global_links: Mapping[tuple[int, int], tuple[int, ...]]  # (grp_a, grp_b) a<b
    adjacency: Mapping[int, tuple[int, ...]]  # switch -> all attached link ids

    # -- arithmetic helpers -------------------------------------------------

    @property
    def switch_count(self) -> int:
        return len(self.group_kinds) * self.spec.switches_per_group

    @property
    def node_count(self) -> int:
        return self.switch_count * self.spec.nodes_per_switch

    @property
    def total_endpoints(self) -> int:
        return self.node_count * self.spec.nics_per_node

    def group_of_switch(self, switch: int) -> int:
        return switch // self.spec.switches_per_group

    def switch_of_node(self, node: int) -> int:
        return node // self.spec.nodes_per_switch

    def node_of_endpoint(self, endpoint: int) -> int:
        return endpoint // self.spec.nics_per_node

    def switch_of_endpoint(self, endpoint: int) -> int:
        return self.switch_of_node(self.node_of_endpoint(endpoint))

    def group_of_endpoint(self, endpoint: int) -> int:
        return self.group_of_switch(self.switch_of_endpoint(endpoint))

    def nic_of_endpoint(self, endpoint: int) -> int:
        return endpoint % self.spec.nics_per_node

    def socket_of_endpoint(self, endpoint: int) -> int:
        # lower half of the NICs hangs off socket 0, upper half off socket 1
        return 0 if self.nic_of_endpoint(endpoint) < (self.spec.nics_per_node + 1) // 2 else 1

    def edge_link_of_endpoint(self, endpoint: int) -> int:
        return endpoint  # edge links are allocated first, id == endpoint id

    def endpoints_of_node(self, node: int) -> range:
        k = self.spec.nics_per_node
        return range(node * k, (node + 1) * k)

    def nodes_of_switch(self, switch: int) -> range:
        k = self.spec.nodes_per_switch
        return range(switch * k, (switch + 1) * k)

    def endpoints_of_switch(self, switch: int) -> range:
        k = self.spec.endpoints_per_switch
        return range(switch * k, (switch + 1) * k)

    def switches_of_group(self, group: int) -> range:
        k = self.spec.switches_per_group
        return range(group * k, (group + 1) * k)

    def compute_groups(self) -> list[int]:
        return [g for g, k in enumerate(self.group_kinds) if k == KIND_COMPUTE]

    def compute_nodes(self) -> list[int]:
        out: list[int] = []
        for g in self.compute_groups():
            for s in self.switches_of_group(g):
                out.extend(self.nodes_of_switch(s))
        return out

    def compute_endpoint_count(self) -> int:
        return (self.spec.compute_groups * self.spec.switches_per_group
                * self.spec.endpoints_per_switch)

    def fabric_link_ids(self) -> range:
        return range(self.total_endpoints, len(self.links))


def _global_pair_multiplicity(spec: TopologySpec, kind_a: str, kind_b: str) -> int:
    """Number of global links between a pair of groups of the given kinds."""
    kinds = {kind_a, kind_b}
    if kinds == {KIND_COMPUTE}:
        return spec.global_links_per_compute_pair
    if KIND_COMPUTE in kinds:
        return spec.global_links_compute_to_noncompute
    if kinds == {KIND_STORAGE}:
        return spec.global_links_per_storage_pair
    # storage<->service and service<->service wiring is not parameterized;
    # those pairs get no direct links and reach each other via compute groups
    return 0


def build_topology(spec: TopologySpec) -> Topology:
    """Instantiate the dragonfly graph described by ``spec``.

    Construction order fixes the numbering: edge links first (id == endpoint
    id), then local links group by group, then global links over group pairs
    in lexicographic order.  Global link endpoints rotate round-robin over
    the switches of each group so no switch runs out of ports before its
    peers.

    Raises:
        TopologyError: if the spec is invalid or any switch would need more
            than SWITCH_RADIX ports.
    """
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

    # precompute the global-link demand per group to fail fast on port budget
    ports_used = [eps + (S - 1) * spec.local_links_per_switch_pair] * n_switches

    links: list[Link] = []
    adjacency: dict[int, list[int]] = {s: [] for s in range(n_switches)}

    # edge links: endpoint e attaches to its switch at port e % eps
    for sw in range(n_switches):
        for p in range(eps):
            e = sw * eps + p
            links.append(Link(id=e, kind=EDGE, switch_a=sw, port_a=p,
                              switch_b=sw, port_b=p, endpoint=e))
            adjacency[sw].append(e)

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
                    # port of the peer within this switch's local block
                    pa = eps + (j - 1) * L + d
                    pb = eps + i * L + d
                    lid = len(links)
                    links.append(Link(id=lid, kind=LOCAL, switch_a=sa,
                                      port_a=pa, switch_b=sb, port_b=pb))
                    adjacency[sa].append(lid)
                    adjacency[sb].append(lid)
                    ids.append(lid)
                if ids:
                    local_links[(sa, sb)] = tuple(ids)

    # global links: iterate group pairs lexicographically; each group hands
    # out switches round-robin from its own rotating cursor
    global_links: dict[tuple[int, int], tuple[int, ...]] = {}
    cursor = [0] * n_groups
    next_port = list(ports_used)  # next free port index per switch
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
                    bad = sa if pa >= SWITCH_RADIX else sb
                    raise TopologyError(
                        f"switch {bad} (group {bad // S}) needs more than "
                        f"{SWITCH_RADIX} ports; reduce global link counts")
                next_port[sa] = pa + 1
                next_port[sb] = pb + 1
                lid = len(links)
                links.append(Link(id=lid, kind=GLOBAL, switch_a=sa,
                                  port_a=pa, switch_b=sb, port_b=pb))
                adjacency[sa].append(lid)
                adjacency[sb].append(lid)
                ids.append(lid)
            global_links[(ga, gb)] = tuple(ids)

    return Topology(
        spec=spec,
        group_kinds=group_kinds,
        links=tuple(links),
        local_links=local_links,
        global_links=global_links,
        adjacency={s: tuple(v) for s, v in adjacency.items()},
    )


# -- fabric addressing ------------------------------------------------------

def endpoint_address(topo: Topology, endpoint: int) -> FabricAddress:
    """Algorithmic address of an endpoint's switch port.

    Raises:
        TopologyError: unknown endpoint.
    """
    if not 0 <= endpoint < topo.total_endpoints:
        raise TopologyError(f"unknown endpoint {endpoint}")
    sw = topo.switch_of_endpoint(endpoint)
    return FabricAddress(
        group=topo.group_of_switch(sw),
        switch=sw % topo.spec.switches_per_group,
        port=endpoint % topo.spec.endpoints_per_switch,
    )


def endpoint_at_address(topo: Topology, addr: FabricAddress) -> int:
    """Inverse of endpoint_address."""
    spec = topo.spec
    if not (0 <= addr.group < len(topo.group_kinds)
            and 0 <= addr.switch < spec.switches_per_group
            and 0 <= addr.port < spec.endpoints_per_switch):
        raise TopologyError(f"address {addr} out of range")
    sw = addr.group * spec.switches_per_group + addr.switch
    return sw * spec.endpoints_per_switch + addr.port


# -- link state overlay -----------------------------------------------------

@dataclass(slots=True)
class LinkState:
    status: str = STATUS_UP
    active_lanes: int = -1  # -1 means all lanes


class StateOverlay:
    """Sparse mutable link-state layer over an immutable Topology.

    Only links that differ from (up, all lanes) are stored.  ``generation``
    increments on every change so consumers can detect staleness.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._states: dict[int, LinkState] = {}
        self.generation = 0

    def state(self, link: int) -> LinkState:
        st = self._states.get(link)
        if st is None:
            return LinkState(STATUS_UP, self.topo.spec.lanes_per_link)
        return st

    def set_link_state(self, link: int, status: str | None = None,
                       active_lanes: int | None = None) -> "StateOverlay":
        if not 0 <= link < len(self.topo.links):
            raise TopologyError(f"unknown link {link}")
        lanes_max = self.topo.spec.lanes_per_link
        cur = self.state(link)
        new_status = cur.status if status is None else status
        new_lanes = cur.active_lanes if active_lanes is None else active_lanes
        if new_status not in (STATUS_UP, STATUS_DOWN, STATUS_MAINTENANCE):
            raise TopologyError(f"invalid link status {new_status!r}")
        if not 1 <= new_lanes <= lanes_max:
            raise TopologyError(
                f"active_lanes must be in 1..{lanes_max}, got {new_lanes}")
        if new_status == STATUS_UP and new_lanes == lanes_max:
            self._states.pop(link, None)
        else:
            self._states[link] = LinkState(new_status, new_lanes)
        self.generation += 1
        return self

    def link_usable(self, link: int) -> bool:
        st = self._states.get(link)
        return st is None or st.status == STATUS_UP

    def effective_bandwidth(self, link: int) -> float:
        st = self._states.get(link)
        bw = self.topo.spec.link_bw_per_dir
        if st is None:
            return bw
        return bw * st.active_lanes / self.topo.spec.lanes_per_link

    def excluded_links(self) -> frozenset[int]:
        """Links currently down or in maintenance."""
        return frozenset(l for l, st in sorted(self._states.items())
                         if st.status != STATUS_UP)


def set_link_state(overlay: StateOverlay, link: int,
                   state: LinkState) -> StateOverlay:
    """Record ``state`` for ``link`` in the overlay and return it."""
    lanes = state.active_lanes
    if lanes == -1:
        lanes = overlay.topo.spec.lanes_per_link
    return overlay.set_link_state(link, status=state.status, active_lanes=lanes)


# -- aggregate metrics -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TopologyMetrics:
    """Aggregate counts and bandwidths.

    ``endpoint_count`` covers compute endpoints only, matching the injection
    bandwidth convention; ``global_bw`` and ``bisection_bw`` count both
    directions of each compute-pair global link.
    """

    endpoint_count: int
    switch_count: int
    fabric_link_count: int
    injection_bw: float
    global_bw: float
    bisection_bw: float


def topology_metrics(topo: Topology) -> TopologyMetrics:
    spec = topo.spec
    computes = topo.compute_groups()
    compute_set = set(computes)
    per_link_both = 2.0 * spec.link_bw_per_dir

    global_bw = 0.0
    fabric_links = 0
    for link in topo.links[topo.total_endpoints:]:
        fabric_links += 1
        if link.kind != GLOBAL:
            continue
        ga = topo.group_of_switch(link.switch_a)
        gb = topo.group_of_switch(link.switch_b)
        if ga in compute_set and gb in compute_set:
            global_bw += per_link_both

    # balanced bipartition of the compute groups; only compute-compute links
    # can cross it, and every split pair contributes the same multiplicity
    n = len(computes)
    crossing_pairs = (n // 2) * (n - n // 2)
    bisection_bw = (crossing_pairs * spec.global_links_per_compute_pair
                    * per_link_both)

    endpoint_count = topo.compute_endpoint_count()
    return TopologyMetrics(
        endpoint_count=endpoint_count,
        switch_count=topo.switch_count,
        fabric_link_count=fabric_links,
        injection_bw=endpoint_count * spec.link_bw_per_dir,
        global_bw=global_bw,
        bisection_bw=bisection_bw,
    )


# -- spec files ---------------------------------------------------------------

SPEC_FILE_KEYS = (
    "compute_groups", "storage_groups", "service_groups",
    "switches_per_group", "nodes_per_switch", "nics_per_node",
    "local_links_per_switch_pair", "global_links_per_compute_pair",
    "global_links_compute_to_noncompute", "global_links_per_storage_pair",
    "link_bw_gbytes_per_s", "lanes_per_link", "per_hop_latency_ns",
    "endpoint_latency_ns",
)

_INT_KEYS = set(SPEC_FILE_KEYS) - {
    "link_bw_gbytes_per_s", "per_hop_latency_ns", "endpoint_latency_ns"}


def spec_from_mapping(data: Mapping[str, object]) -> TopologySpec:
    """Build a TopologySpec from spec-file keys; unlisted keys keep the
    Aurora defaults."""
    fields: dict[str, object] = {}
    for key, raw in data.items():
        if key not in SPEC_FILE_KEYS:
            raise TopologyError(f"unknown topology spec key {key!r}")
        try:
            val = int(raw) if key in _INT_KEYS else float(raw)
        except (TypeError, ValueError):
            raise TopologyError(f"bad value for key {key!r}: {raw!r}") from None
        if key == "link_bw_gbytes_per_s":
            fields["link_bw_per_dir"] = val * 1e9
        elif key == "per_hop_latency_ns":
            fields["per_hop_latency"] = val * 1e-9
        elif key == "endpoint_latency_ns":
            fields["endpoint_latency"] = val * 1e-9
        else:
            fields[key] = val
    spec = replace(aurora_spec(), **fields)  # type: ignore[arg-type]
    spec.validate()
    return spec


def load_spec(source: str) -> TopologySpec:
    """Load a spec by reserved name ('aurora') or from a spec file.

    Files may be a JSON object or plain ``key = value`` / ``key: value``
    lines with ``#`` comments.
    """
    if source == "aurora":
        return aurora_spec()
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_spec_text(text)


def parse_spec_text(text: str) -> TopologySpec:
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"bad JSON topology spec: {exc}") from None
        return spec_from_mapping(data)
    data: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                data[key.strip()] = val.strip()
                break
        else:
            raise TopologyError(f"unparseable spec line {lineno}: {line!r}")
    return spec_from_mapping(data)
