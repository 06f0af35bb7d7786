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
  has link id equal to ``e``; it sits on switch ``e // eps`` at port
  ``e % eps``, where ``eps`` is the endpoints per switch.
* local links follow the edge links, group by group, then switch pair
  ``(i, j)`` with ``i < j`` in lexicographic order, then ``d`` in
  ``0..L-1`` for ``L`` links per switch pair: local link ``d`` between
  switches ``i < j`` of group ``g`` has id
  ``E + (g * P + q) * L + d``, where ``E`` is the endpoint count,
  ``P = S * (S - 1) // 2`` the switch pairs per group of ``S`` switches and
  ``q = i * (2 * S - i - 1) // 2 + j - i - 1`` the pair's rank.  Its port is
  ``eps + (j - 1) * L + d`` on switch ``i`` and ``eps + i * L + d`` on
  switch ``j``.
* the directed port of link ``l`` travelled in direction ``d`` has port id
  ``2 * l + d`` (see :func:`port_id`).

Edge and local links are therefore computed from their ids.  The global
links, whose round-robin wiring has no closed form, are stored as four int
columns (switch and port of each end); every :class:`Link`, a global one
included, is built on demand (see :class:`LinkTable`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import index as as_index
from typing import Mapping

import math

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
        if not 0 < self.link_bw_per_dir < math.inf:
            raise TopologyError("link_bw_per_dir must be finite and > 0")
        for name in ("per_hop_latency", "endpoint_latency"):
            if not 0 <= getattr(self, name) < math.inf:
                raise TopologyError(f"{name} must be finite and >= 0")

    @property
    def endpoints_per_switch(self) -> int:
        return self.nodes_per_switch * self.nics_per_node


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


def port_id(link: int, direction: int) -> int:
    """Integer id of the directed port that travels ``link`` in
    ``direction`` (0: a->b, 1: b->a)."""
    return 2 * link + direction


def port_key(port: int) -> tuple[int, int]:
    """Inverse of :func:`port_id`: the ``(link, direction)`` of a port id."""
    return port >> 1, port & 1


class LinkTable(Sequence[Link]):
    """The links of a fabric, indexed by link id.

    Edge and local links are computed from their ids by the formulas in
    the module docstring.  Global link ``k`` (id ``first_global + k``) is
    stored as entry ``k`` of four int columns: ``switch_a``, ``port_a``,
    ``switch_b`` and ``port_b``.  Every :class:`Link`, global ones included,
    is built fresh on each call.  Supports ``len``, int indexing (negative
    ids as a tuple does; ``IndexError`` outside ``[-len, len)``), slicing
    (to a tuple), iteration and value equality: two tables are equal when
    they have the same geometry and the same global links.
    """

    __slots__ = ("_eps", "_switches_per_group", "_per_pair", "_groups",
                 "_pairs", "_per_group", "_first_local", "_first_global",
                 "_switch_a", "_port_a", "_switch_b", "_port_b")

    def __init__(self, spec: TopologySpec, groups: int,
                 switch_a: Sequence[int] = (), port_a: Sequence[int] = (),
                 switch_b: Sequence[int] = (), port_b: Sequence[int] = ()):
        S = spec.switches_per_group
        self._eps = spec.endpoints_per_switch
        self._switches_per_group = S
        self._per_pair = spec.local_links_per_switch_pair
        self._groups = groups
        self._pairs = tuple((i, j) for i in range(S) for j in range(i + 1, S))
        self._per_group = len(self._pairs) * self._per_pair
        self._first_local = groups * S * self._eps
        self._first_global = self._first_local + groups * self._per_group
        self._switch_a = switch_a
        self._port_a = port_a
        self._switch_b = switch_b
        self._port_b = port_b

    def __len__(self) -> int:
        return self._first_global + len(self._switch_a)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(*key.indices(len(self)))))
        lid = as_index(key)
        n = len(self)
        if lid < 0:
            lid += n
        if not 0 <= lid < n:
            raise IndexError(f"link id {key} out of range")
        if lid >= self._first_global:
            k = lid - self._first_global
            return Link(lid, GLOBAL, self._switch_a[k], self._port_a[k],
                        self._switch_b[k], self._port_b[k])
        eps = self._eps
        if lid < self._first_local:
            sw, port = divmod(lid, eps)
            return Link(lid, EDGE, sw, port, sw, port, lid)
        # _per_group > 0 here: the local id range is empty otherwise
        g, rank = divmod(lid - self._first_local, self._per_group)
        L = self._per_pair
        q, d = divmod(rank, L)
        i, j = self._pairs[q]
        base = g * self._switches_per_group
        return Link(lid, LOCAL, base + i, eps + (j - 1) * L + d,
                    base + j, eps + i * L + d)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def switches(self, lid: int) -> tuple[int, int]:
        """``(switch_a, switch_b)`` of link ``lid`` without building its
        :class:`Link`; an edge link gives its switch twice.  ``IndexError``
        outside ``[0, len)``."""
        if lid < 0:
            raise IndexError(f"link id {lid} out of range")
        if lid >= self._first_global:
            k = lid - self._first_global
            return self._switch_a[k], self._switch_b[k]
        if lid < self._first_local:
            sw = lid // self._eps
            return sw, sw
        g, rank = divmod(lid - self._first_local, self._per_group)
        i, j = self._pairs[rank // self._per_pair]
        base = g * self._switches_per_group
        return base + i, base + j

    def local_between(self, sa: int, sb: int) -> range:
        """Ids of the local links between switches ``sa`` and ``sb``, in
        either order; empty across groups and for the same switch."""
        S = self._switches_per_group
        g, i = divmod(sa, S)
        gb, j = divmod(sb, S)
        if g != gb or i == j:
            return range(0)
        if i > j:
            i, j = j, i
        L = self._per_pair
        start = (self._first_local + g * self._per_group
                 + (i * (2 * S - i - 1) // 2 + j - i - 1) * L)
        return range(start, start + L)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinkTable):
            return NotImplemented
        return (self._eps, self._switches_per_group, self._per_pair,
                self._groups, self._switch_a, self._port_a, self._switch_b,
                self._port_b) \
            == (other._eps, other._switches_per_group, other._per_pair,
                other._groups, other._switch_a, other._port_a,
                other._switch_b, other._port_b)


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
    then storage, then service).  ``links`` is a :class:`LinkTable` indexed
    by link id: edge links occupy ids ``0..total_endpoints-1`` in endpoint
    order, then come the local links, then the global links.  Edge and local
    links are computed from their ids; global links are stored as four int
    columns; every :class:`Link` is built on demand.
    ``global_links`` maps a group pair ``(a, b)``, ``a < b``, to the ids of
    its global links; ``links.local_between`` gives the ids of the local
    links between two switches.
    """

    spec: TopologySpec
    group_kinds: tuple[str, ...]
    links: LinkTable
    global_links: Mapping[tuple[int, int], tuple[int, ...]]  # (grp_a, grp_b) a<b

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

    def endpoints_of_switch(self, switch: int) -> range:
        k = self.spec.endpoints_per_switch
        return range(switch * k, (switch + 1) * k)

    def switches_of_group(self, group: int) -> range:
        k = self.spec.switches_per_group
        return range(group * k, (group + 1) * k)

    def compute_groups(self) -> list[int]:
        return [g for g, k in enumerate(self.group_kinds) if k == KIND_COMPUTE]

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

    # edge and local links are arithmetic (see LinkTable); global ids follow
    first_global = len(LinkTable(spec, n_groups))
    switch_a: list[int] = []
    port_a: list[int] = []
    switch_b: list[int] = []
    port_b: list[int] = []
    kinds = (KIND_COMPUTE, KIND_STORAGE, KIND_SERVICE)
    multiplicity = {(a, b): _global_pair_multiplicity(spec, a, b)
                    for a in kinds for b in kinds}

    # global links: iterate group pairs lexicographically; each group hands
    # out switches round-robin from its own rotating cursor
    global_links: dict[tuple[int, int], tuple[int, ...]] = {}
    cursor = [0] * n_groups
    # next free port index per switch: global ports follow edge and local
    first_free = eps + (S - 1) * spec.local_links_per_switch_pair
    if first_free > SWITCH_RADIX:
        raise TopologyError(
            f"edge and local links need {first_free} ports per switch, more "
            f"than {SWITCH_RADIX}")
    next_port = [first_free] * n_switches
    for ga in range(n_groups):
        for gb in range(ga + 1, n_groups):
            m = multiplicity[group_kinds[ga], group_kinds[gb]]
            if m == 0:
                continue
            start = first_global + len(switch_a)
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
                switch_a.append(sa)
                port_a.append(pa)
                switch_b.append(sb)
                port_b.append(pb)
            global_links[(ga, gb)] = tuple(range(start, start + m))

    return Topology(
        spec=spec,
        group_kinds=group_kinds,
        links=LinkTable(spec, n_groups, switch_a, port_a, switch_b, port_b),
        global_links=global_links,
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
    status: str
    active_lanes: int


class StateOverlay:
    """Sparse mutable link-state layer over an immutable Topology.

    Only links that differ from (up, all lanes) are stored.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._states: dict[int, LinkState] = {}

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

    # group pairs in insertion order are link ids in order, so the sum runs
    # in link-id order
    global_bw = 0.0
    for (ga, gb), ids in topo.global_links.items():
        if ga in compute_set and gb in compute_set:
            for _ in ids:
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
        fabric_link_count=len(topo.links) - topo.total_endpoints,
        injection_bw=endpoint_count * spec.link_bw_per_dir,
        global_bw=global_bw,
        bisection_bw=bisection_bw,
    )

