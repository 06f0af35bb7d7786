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
* global links follow the local links, group pair ``(a, b)`` with
  ``a < b`` in lexicographic order, then ``i`` in ``0..m-1`` for the
  ``m = M(a, b)`` links of the pair, where ``M`` gives the links between
  two groups by their kinds: global link ``i`` of pair ``(a, b)`` has id
  ``R[a] + sum(M(a, y) for a < y < b) + i``, where ``R[a]`` is the id of
  the first link of a pair ``(a, .)``.  Each group hands out its global
  ports round-robin in id order, so the link is global link number
  ``c = sum(M(a, x) for x < b, x != a) + i`` of group ``a`` and number
  ``c = sum(M(b, x) for x < a) + i`` of group ``b``, and global link
  number ``c`` of group ``g`` sits on switch ``g * S + c % S`` at port
  ``F + c // S``, where ``F = eps + (S - 1) * L`` is the first port after
  the edge and local ones.
* the directed port of link ``l`` travelled in direction ``d`` has port id
  ``2 * l + d`` (see :func:`port_id`).

Every link is therefore computed from its id, and every :class:`Link` is
built on demand (see :class:`LinkTable`); a topology stores no link, only
a few integers per group.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import index as as_index

import math
import operator

SWITCH_RADIX = 64  # ports per switch; hard limit of the modeled hardware

KIND_COMPUTE = "compute"
KIND_STORAGE = "storage"
KIND_SERVICE = "service"
_KINDS = (KIND_COMPUTE, KIND_STORAGE, KIND_SERVICE)  # in group order

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

    Every link is computed from its id by the formulas in the module
    docstring, and every :class:`Link` is built fresh on each call.  For
    the global links the table keeps, for each group ``g`` and each kind
    ``k``, the block of ``g``'s row of pairs whose peers are of kind ``k``:
    its first link id, its first peer group, its multiplicity and the
    cursor of the peers before group ``g`` (``sum(M(k, x) for x < g)``).
    A global id finds its block with one bisection over the block starts.
    Supports ``len``, int indexing (negative ids as a tuple does;
    ``IndexError`` outside ``[-len, len)``), slicing (to a tuple),
    iteration and value equality: two tables are equal when they are wired
    from the same parameters.

    Raises:
        TopologyError: a switch would need more than ``SWITCH_RADIX``
            ports, checked once per group.
    """

    __slots__ = ("_eps", "_switches_per_group", "_per_pair", "_groups",
                 "_pair_lo", "_pair_hi", "_per_group", "_first_local",
                 "_first_global", "_first_free", "_len", "_wiring",
                 "_kind_ends", "_block_start", "_block_peer", "_block_mult",
                 "_block_cursor", "_own_cursor")

    def __init__(self, spec: TopologySpec):
        S = spec.switches_per_group
        counts = (spec.compute_groups, spec.storage_groups,
                  spec.service_groups)
        groups = sum(counts)
        self._eps = spec.endpoints_per_switch
        self._switches_per_group = S
        self._per_pair = spec.local_links_per_switch_pair
        self._groups = groups
        # global ports follow the edge and local ones on every switch
        self._first_free = self._eps + (S - 1) * self._per_pair
        if self._first_free > SWITCH_RADIX:
            raise TopologyError(
                f"edge and local links need {self._first_free} ports per "
                f"switch, more than {SWITCH_RADIX}")
        free = SWITCH_RADIX - self._first_free
        self._per_group = S * (S - 1) // 2 * self._per_pair
        # the switches i < j of the switch pair of each rank, as two int
        # tuples, which hold no per-pair object; without local links no id
        # reads them, and nothing bounds S, so they are left empty
        if self._per_pair:
            self._pair_lo = tuple(i for i in range(S) for _ in range(i + 1, S))
            self._pair_hi = tuple(j for i in range(S) for j in range(i + 1, S))
        else:
            self._pair_lo = self._pair_hi = ()
        self._first_local = groups * S * self._eps
        self._first_global = self._first_local + groups * self._per_group
        mult = tuple(tuple(_global_pair_multiplicity(spec, a, b)
                           for b in _KINDS) for a in _KINDS)
        self._wiring = (self._eps, S, self._per_pair, counts, mult)
        # the round robin spreads a group's global links evenly over its
        # switches, so each takes ceil(degree / S) global ports
        need = [-(-(sum(map(operator.mul, counts, row)) - row[k]) // S)
                for k, row in enumerate(mult)]
        # group g is of kind bisect_right(_kind_ends, g)
        ends = self._kind_ends = (counts[0], counts[0] + counts[1], groups)
        # block 3 * g + k holds the pairs (g, y), y > g, with y of kind k;
        # the cursors are int arrays, so they hold no int objects
        self._block_start: list[int] = []
        self._block_peer: list[int] = []
        self._block_mult: list[int] = []
        self._block_cursor = array("q")
        # group g's cursor of its own global link lid is _own_cursor[g] + lid
        self._own_cursor = array("q")
        lower = [0, 0, 0]  # sum(M(k, x) for x < g), for each kind k
        lid = self._first_global
        for g in range(groups):
            kind = bisect_right(ends, g)
            if need[kind] > free:
                raise TopologyError(
                    f"group {g} needs {need[kind]} global ports per switch, "
                    f"more than the {free} ports left free by edge and local "
                    f"links; reduce global link counts")
            row = mult[kind]
            self._own_cursor.append(lower[kind] - lid)
            begin = 0
            for k in range(3):
                peer = max(g + 1, begin)
                self._block_start.append(lid)
                self._block_peer.append(peer)
                self._block_mult.append(row[k])
                self._block_cursor.append(lower[k])
                lid += max(0, ends[k] - peer) * row[k]
                begin = ends[k]
            for k in range(3):
                lower[k] += row[k]
        self._len = lid

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(*key.indices(len(self)))))
        lid = as_index(key)
        n = self._len
        if lid < 0:
            lid += n
        if not 0 <= lid < n:
            raise IndexError(f"link id {key} out of range")
        eps = self._eps
        S = self._switches_per_group
        if lid >= self._first_global:
            ga, ca, gb, cb = self._global_cursors(lid)
            pa, ca = divmod(ca, S)
            pb, cb = divmod(cb, S)
            first = self._first_free
            return Link(lid, GLOBAL, ga * S + ca, first + pa,
                        gb * S + cb, first + pb)
        if lid < self._first_local:
            sw, port = divmod(lid, eps)
            return Link(lid, EDGE, sw, port, sw, port, lid)
        # _per_group > 0 here: the local id range is empty otherwise
        g, rank = divmod(lid - self._first_local, self._per_group)
        L = self._per_pair
        q, d = divmod(rank, L)
        i, j = self._pair_lo[q], self._pair_hi[q]
        base = g * S
        return Link(lid, LOCAL, base + i, eps + (j - 1) * L + d,
                    base + j, eps + i * L + d)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def _global_cursors(self, lid: int) -> tuple[int, int, int, int]:
        """``(group_a, cursor_a, group_b, cursor_b)`` of the global link
        ``lid`` in ``[first_global, len)``: each end's group and the
        number of that group's global links before it."""
        j = bisect_right(self._block_start, lid) - 1
        g = j // 3
        q, i = divmod(lid - self._block_start[j], self._block_mult[j])
        return (g, self._own_cursor[g] + lid,
                self._block_peer[j] + q, self._block_cursor[j] + i)

    def switches(self, lid: int) -> tuple[int, int]:
        """``(switch_a, switch_b)`` of link ``lid`` without building its
        :class:`Link`; an edge link gives its switch twice.  ``IndexError``
        outside ``[0, len)``."""
        if lid < 0:
            raise IndexError(f"link id {lid} out of range")
        if lid >= self._first_global:
            if lid >= self._len:
                raise IndexError(f"link id {lid} out of range")
            ga, ca, gb, cb = self._global_cursors(lid)
            S = self._switches_per_group
            return ga * S + ca % S, gb * S + cb % S
        if lid < self._first_local:
            sw = lid // self._eps
            return sw, sw
        g, rank = divmod(lid - self._first_local, self._per_group)
        q = rank // self._per_pair
        base = g * self._switches_per_group
        return base + self._pair_lo[q], base + self._pair_hi[q]

    def local_between(self, sa: int, sb: int) -> range:
        """Ids of the local links between switches ``sa`` and ``sb``, in
        either order; empty across groups and for the same switch.  Each
        runs from the lower of the two switches (its ``a`` end) to the
        higher one."""
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

    def global_between(self, ga: int, gb: int) -> range:
        """Ids of the global links between groups ``ga`` and ``gb``, in
        either order; empty for the same group, for a group out of range
        and for kinds that get no direct link."""
        if ga > gb:
            ga, gb = gb, ga
        if not 0 <= ga < gb < self._groups:
            return range(0)
        j = 3 * ga + bisect_right(self._kind_ends, gb)
        m = self._block_mult[j]
        start = self._block_start[j] + (gb - self._block_peer[j]) * m
        return range(start, start + m)

    def _global_pairs(self):
        """The group pairs ``(a, b)``, ``a < b``, joined by global links,
        in lexicographic order."""
        ends = self._kind_ends
        for j, (peer, m) in enumerate(zip(self._block_peer,
                                          self._block_mult)):
            if m:
                g = j // 3
                for gb in range(peer, ends[j % 3]):
                    yield g, gb

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinkTable):
            return NotImplemented
        return self._wiring == other._wiring


class GlobalLinks(Mapping[tuple[int, int], tuple[int, ...]]):
    """Read-only map from each group pair ``(a, b)``, ``a < b``, joined by
    global links to the tuple of their ids, in lexicographic pair order.
    Each tuple is computed on lookup (:meth:`LinkTable.global_between`);
    a pair with ``a >= b``, a group out of range or no link is absent."""

    __slots__ = ("_links",)

    def __init__(self, links: LinkTable):
        self._links = links

    def __getitem__(self, key: tuple[int, int]) -> tuple[int, ...]:
        try:
            ga, gb = map(as_index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        ids = self._links.global_between(ga, gb) if ga < gb else ()
        if not ids:
            raise KeyError(key)
        return tuple(ids)

    def __iter__(self):
        return self._links._global_pairs()

    def __len__(self) -> int:
        return sum(1 for _ in self)


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
    order, then come the local links, then the global links.  Every link
    is computed from its id, and every :class:`Link` is built on demand.
    ``global_links`` (a :class:`GlobalLinks`) maps a group pair ``(a, b)``,
    ``a < b``, to the ids of its global links; ``links.local_between`` and
    ``links.global_between`` give the ids of the links between two
    switches or two groups as a range.
    """

    spec: TopologySpec
    group_kinds: tuple[str, ...]
    links: LinkTable
    global_links: GlobalLinks

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

    def edge_link_of_endpoint(self, endpoint: int) -> int:
        return endpoint  # edge links are allocated first, id == endpoint id

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

    The numbering is fixed by the formulas in the module docstring: edge
    links first (id == endpoint id), then local links group by group, then
    global links over group pairs in lexicographic order.  Global link
    endpoints rotate round-robin over the switches of each group so no
    switch runs out of ports before its peers.  Set-up takes time and
    memory in the number of groups, not links.

    Raises:
        TopologyError: if the spec is invalid or any switch would need more
            than SWITCH_RADIX ports.
    """
    spec.validate()
    counts = (spec.compute_groups, spec.storage_groups, spec.service_groups)
    group_kinds = tuple(kind for kind, n in zip(_KINDS, counts)
                        for _ in range(n))
    links = LinkTable(spec)
    return Topology(spec=spec, group_kinds=group_kinds, links=links,
                    global_links=GlobalLinks(links))


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
        return frozenset(l for l, st in self._states.items()
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

    # group pairs in lexicographic order are link ids in order, so the sum
    # runs in link-id order
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

