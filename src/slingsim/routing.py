"""Dragonfly route enumeration and congestion-aware route selection.

Minimal routes take at most three switch-to-switch hops (local, global,
local); non-minimal routes detour through exactly one intermediate group and
take at most five.  Selection compares congestion-weighted costs in the
UGAL style: cost ranks by ``weight x (hops+1) x max queue occupancy`` along
the route, where non-minimal candidates carry a configurable bias weight.
Ties rank by the occupancy-free weight and then by candidate index, so the
choice is deterministic and invariant under uniform scaling of occupancies.

Route sets are recomputed by periodic sweeps: enumeration consults the last
swept snapshot of link states, not the live overlay, so a link that flaps
between sweeps keeps its pre-flap routability until the next sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from slingsim.topology import StateOverlay, Topology, port_id


class RoutingError(ValueError):
    pass


class NoRouteError(RoutingError):
    """All candidate links between the pair are down or in maintenance."""


@dataclass(frozen=True, slots=True)
class Route:
    """An ordered sequence of fabric links between two switches.

    ``dirs[i]`` is 0 when hop i travels from the link's a-side to its b-side.
    ``switches`` lists the visited switches (len(hops) + 1 entries).
    """

    hops: tuple[int, ...]
    dirs: tuple[int, ...]
    switches: tuple[int, ...]
    kind: str  # 'minimal' | 'nonminimal'
    intermediate_group: int | None = None

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def port_ids(self) -> tuple[int, ...]:
        """Directed port id of every hop (see ``topology.port_id``)."""
        return tuple(map(port_id, self.hops, self.dirs))


MINIMAL = "minimal"
NONMINIMAL = "nonminimal"


@dataclass(slots=True)
class RoutingPolicy:
    mode: str = "adaptive"  # 'minimal' | 'adaptive'
    nonminimal_bias: float = 2.0
    group_load_enabled: bool = False
    intermediate_samples: int = 4

    def validate(self) -> None:
        if self.mode not in ("minimal", "adaptive"):
            raise RoutingError(f"unknown routing mode {self.mode!r}")
        if self.nonminimal_bias <= 0:
            raise RoutingError("nonminimal_bias must be > 0")
        if self.intermediate_samples < 1:
            raise RoutingError("intermediate_samples must be >= 1")


_ZEROS = repeat(0.0)  # default occupancy of every port absent from a view


class CongestionView:
    """Read-only snapshot of directed queue occupancies (non-negative bytes,
    keyed by ``(link, direction)``) and group loads."""

    __slots__ = ("time", "_occ", "_group_load")

    def __init__(self, time: float = 0.0,
                 occ: dict[tuple[int, int], float] | None = None,
                 group_load: dict[int, float] | None = None):
        self.time = time
        self._occ = occ or {}
        self._group_load = group_load or {}

    def occupancy(self, link: int, direction: int) -> float:
        return self._occ.get((link, direction), 0.0)

    def group_load(self, group: int) -> float:
        return self._group_load.get(group, 0.0)

    def route_max_occupancy(self, route: Route) -> float:
        return max(map(self._occ.get, zip(route.hops, route.dirs), _ZEROS),
                   default=0.0)

    def scaled(self, factor: float) -> "CongestionView":
        return CongestionView(
            self.time,
            {k: v * factor for k, v in self._occ.items()},
            {k: v * factor for k, v in self._group_load.items()},
        )


class FlowTable:
    """Pinned routes for ordered traffic, keyed by (src, dst, class).

    An entry lives only while its pending-traffic count is positive.
    """

    def __init__(self):
        self._entries: dict[tuple, list] = {}  # key -> [route, pending]

    def pinned(self, key) -> Route | None:
        ent = self._entries.get(key)
        return ent[0] if ent and ent[1] > 0 else None

    def pin(self, key, route: Route) -> None:
        self._entries[key] = [route, 0]

    def repin(self, key, decide: Callable[[], Route]) -> Route:
        """Pin ``decide()`` for ``key`` in place of its current route,
        keeping the pending count.  The old pin is dropped first, so a
        ``decide`` that raises leaves the flow unpinned."""
        ent = self._entries.pop(key, None)
        route = decide()
        self._entries[key] = [route, ent[1] if ent else 0]
        return route

    def add_pending(self, key) -> None:
        ent = self._entries.get(key)
        if ent is None:
            raise RoutingError(f"no pinned route for {key}")
        ent[1] += 1

    def release(self, key) -> None:
        ent = self._entries.get(key)
        if ent is None:
            return
        ent[1] -= 1
        if ent[1] <= 0:
            del self._entries[key]

    def drop(self, key) -> None:
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)


# -- enumeration ---------------------------------------------------------------


def _hop(topo: Topology, link_id: int, from_switch: int) -> tuple[int, int, int]:
    """(link, dir, to_switch) for traveling link_id out of from_switch."""
    link = topo.links[link_id]
    if link.switch_a == from_switch:
        return link_id, 0, link.switch_b
    return link_id, 1, link.switch_a


def _first_usable_local(topo: Topology, view, sa: int, sb: int) -> int | None:
    key = (sa, sb) if sa < sb else (sb, sa)
    for lid in topo.local_links.get(key, ()):
        if view.link_usable(lid):
            return lid
    return None


def _usable_globals(topo: Topology, view, ga: int, gb: int) -> list[int]:
    key = (ga, gb) if ga < gb else (gb, ga)
    return [l for l in topo.global_links.get(key, ()) if view.link_usable(l)]


def enumerate_minimal_routes(topo: Topology, view, src_switch: int,
                             dst_switch: int) -> tuple[Route, ...]:
    """All minimal routes between two switches under the given link-state view.

    Same switch yields one empty route; an intra-group pair yields one route
    per usable direct local link; an inter-group pair yields one route per
    usable global link between the groups (prefixed/suffixed with the direct
    local hop when the global port sits on another switch).

    Raises:
        NoRouteError: every candidate is down or in maintenance.
    """
    if src_switch == dst_switch:
        return (Route((), (), (src_switch,), MINIMAL),)
    ga = topo.group_of_switch(src_switch)
    gb = topo.group_of_switch(dst_switch)
    routes: list[Route] = []
    if ga == gb:
        key = (min(src_switch, dst_switch), max(src_switch, dst_switch))
        for lid in topo.local_links.get(key, ()):
            if not view.link_usable(lid):
                continue
            link, d, _ = _hop(topo, lid, src_switch)
            routes.append(Route((link,), (d,), (src_switch, dst_switch), MINIMAL))
    else:
        for gl in _usable_globals(topo, view, ga, gb):
            link = topo.links[gl]
            a_sw, b_sw = link.switch_a, link.switch_b
            if topo.group_of_switch(a_sw) != ga:
                a_sw, b_sw = b_sw, a_sw
            hops: list[int] = []
            dirs: list[int] = []
            sws: list[int] = [src_switch]
            if a_sw != src_switch:
                lid = _first_usable_local(topo, view, src_switch, a_sw)
                if lid is None:
                    continue
                _, d, _ = _hop(topo, lid, src_switch)
                hops.append(lid)
                dirs.append(d)
                sws.append(a_sw)
            _, d, _ = _hop(topo, gl, a_sw)
            hops.append(gl)
            dirs.append(d)
            sws.append(b_sw)
            if b_sw != dst_switch:
                lid = _first_usable_local(topo, view, b_sw, dst_switch)
                if lid is None:
                    continue
                _, d, _ = _hop(topo, lid, b_sw)
                hops.append(lid)
                dirs.append(d)
                sws.append(dst_switch)
            routes.append(Route(tuple(hops), tuple(dirs), tuple(sws), MINIMAL))
    if not routes:
        raise NoRouteError(
            f"no usable minimal route between switches {src_switch} and {dst_switch}")
    return tuple(routes)


def _travel(topo: Topology, at: int, lids: list[int]):
    """(hops, dirs, switches reached) travelling ``lids`` out of switch ``at``."""
    dirs: list[int] = []
    sws: list[int] = []
    for lid in lids:
        _, d, at = _hop(topo, lid, at)
        dirs.append(d)
        sws.append(at)
    return tuple(lids), tuple(dirs), tuple(sws)


def enumerate_nonminimal_routes(topo: Topology, view, src_switch: int,
                                dst_switch: int,
                                intermediate_group: int) -> tuple[Route, ...]:
    """All detour routes through ``intermediate_group`` (<= 5 hops).

    Raises:
        RoutingError: the intermediate group equals the source or destination
            group (precondition violation).
        NoRouteError: the intermediate group is unreachable on usable links.
    """
    ga = topo.group_of_switch(src_switch)
    gb = topo.group_of_switch(dst_switch)
    if intermediate_group in (ga, gb):
        raise RoutingError(
            f"intermediate group {intermediate_group} must differ from "
            f"source group {ga} and destination group {gb}")
    if not 0 <= intermediate_group < len(topo.group_kinds):
        raise RoutingError(f"unknown group {intermediate_group}")

    # each usable way out of the intermediate group: the switch it leaves
    # from and the legs from there to dst_switch
    exits = []
    for gl_out in _usable_globals(topo, view, intermediate_group, gb):
        link_out = topo.links[gl_out]
        i2 = link_out.switch_a \
            if topo.group_of_switch(link_out.switch_a) == intermediate_group \
            else link_out.switch_b
        b_sw = link_out.peer(i2)
        lids = [gl_out]
        if b_sw != dst_switch:
            lid = _first_usable_local(topo, view, b_sw, dst_switch)
            if lid is None:
                continue
            lids.append(lid)
        exits.append((i2, _travel(topo, i2, lids)))

    routes: list[Route] = []
    for gl_in in _usable_globals(topo, view, ga, intermediate_group):
        link_in = topo.links[gl_in]
        a_sw = link_in.switch_a if topo.group_of_switch(link_in.switch_a) == ga \
            else link_in.switch_b
        i1 = link_in.peer(a_sw)
        lids = []
        if a_sw != src_switch:
            lid = _first_usable_local(topo, view, src_switch, a_sw)
            if lid is None:
                continue
            lids.append(lid)
        lids.append(gl_in)
        hops, dirs, sws = _travel(topo, src_switch, lids)
        sws = (src_switch,) + sws
        for i2, (out_hops, out_dirs, out_sws) in exits:
            if i1 == i2:
                routes.append(Route(hops + out_hops, dirs + out_dirs,
                                    sws + out_sws, NONMINIMAL,
                                    intermediate_group))
                continue
            lid = _first_usable_local(topo, view, i1, i2)
            if lid is None:
                continue
            _, d, _ = _hop(topo, lid, i1)
            routes.append(Route(hops + (lid,) + out_hops,
                                dirs + (d,) + out_dirs,
                                sws + (i2,) + out_sws, NONMINIMAL,
                                intermediate_group))
    if not routes:
        raise NoRouteError(
            f"intermediate group {intermediate_group} unreachable between "
            f"switches {src_switch} and {dst_switch}")
    return tuple(routes)


# -- swept tables -----------------------------------------------------------------


class RoutingTables:
    """Frozen link-usability snapshot plus memoized route sets.

    Produced by :func:`routing_sweep`; route enumeration against the tables
    reflects the fabric state at sweep time.
    """

    def __init__(self, topo: Topology, excluded: frozenset[int], generation: int = 0):
        self.topo = topo
        self.excluded = excluded
        self.generation = generation
        self._minimal: dict[tuple[int, int], tuple[Route, ...]] = {}
        self._nonminimal: dict[tuple[int, int, int], tuple[Route, ...]] = {}

    def link_usable(self, link: int) -> bool:
        return link not in self.excluded

    def minimal_routes(self, src_switch: int, dst_switch: int) -> tuple[Route, ...]:
        key = (src_switch, dst_switch)
        routes = self._minimal.get(key)
        if routes is None:
            routes = enumerate_minimal_routes(self.topo, self, src_switch, dst_switch)
            self._minimal[key] = routes
        return routes

    def nonminimal_routes(self, src_switch: int, dst_switch: int,
                          intermediate_group: int) -> tuple[Route, ...]:
        key = (src_switch, dst_switch, intermediate_group)
        routes = self._nonminimal.get(key)
        if routes is None:
            routes = enumerate_nonminimal_routes(
                self.topo, self, src_switch, dst_switch, intermediate_group)
            self._nonminimal[key] = routes
        return routes


def routing_sweep(topo: Topology, overlay: StateOverlay,
                  previous: RoutingTables | None = None) -> RoutingTables:
    """Recompute routing tables from the current overlay state.

    Returns ``previous`` unchanged when nothing changed since the last sweep,
    so repeated sweeps without fabric events are free and idempotent.
    """
    excluded = overlay.excluded_links()
    if previous is not None and previous.excluded == excluded:
        return previous
    gen = previous.generation + 1 if previous is not None else 0
    return RoutingTables(topo, excluded, gen)


# -- selection ----------------------------------------------------------------------


class Router:
    """Per-simulation route selector: swept tables + flow pinning + sampling RNG."""

    def __init__(self, topo: Topology, overlay: StateOverlay,
                 policy: RoutingPolicy | None = None, seed: int = 0):
        self.topo = topo
        self.overlay = overlay
        self.policy = policy or RoutingPolicy()
        self.policy.validate()
        self.tables = routing_sweep(topo, overlay)
        self.flow_table = FlowTable()
        self.rng = random.Random(seed)
        # best route of each route set of ``tables`` scored against one view,
        # keyed by id(route set); holding ``tables`` keeps the sets, and so
        # their ids, alive.  The memo is exact for that view: a view never
        # changes, and a set is always scored with the same weight.  It keeps
        # the route alone, not its score, to stay small on cold tables.
        self._memo: dict[int, Route] = {}
        self._memo_for: tuple = (None, None)  # (view, tables)

    def sweep(self) -> RoutingTables:
        self.tables = routing_sweep(self.topo, self.overlay, self.tables)
        return self.tables

    # candidate intermediate groups, sampled without replacement
    def _sample_intermediates(self, ga: int, gb: int) -> list[int]:
        pool = list(range(len(self.topo.group_kinds)))
        del pool[max(ga, gb)]
        if ga != gb:
            del pool[min(ga, gb)]
        k = min(self.policy.intermediate_samples, len(pool))
        if k <= 0:
            return []
        if k == len(pool):
            return pool
        return self.rng.sample(pool, k)

    def select_route(self, src_endpoint: int, dst_endpoint: int,
                     traffic_class: int, ordered: bool,
                     view: CongestionView | None = None) -> Route:
        """Pick a route for one chunk (unordered) or one flow (ordered).

        Ordered traffic reuses the pinned route while the flow has pending
        traffic; otherwise the decision is made fresh and pinned.  Adaptive
        decisions rank candidates by congestion-weighted cost; minimal-only
        mode considers minimal candidates exclusively.
        """
        key = (src_endpoint, dst_endpoint, traffic_class)
        if ordered:
            pinned = self.flow_table.pinned(key)
            if pinned is not None:
                return pinned
        view = view or CongestionView()
        route = self._decide(src_endpoint, dst_endpoint, view)
        if ordered:
            self.flow_table.pin(key, route)
        return route

    def repin(self, src_endpoint: int, dst_endpoint: int, traffic_class: int,
              view: CongestionView | None = None) -> Route:
        """Drop a stale pin (e.g. its route lost a link) and decide afresh."""
        return self.flow_table.repin(
            (src_endpoint, dst_endpoint, traffic_class),
            lambda: self._decide(src_endpoint, dst_endpoint,
                                 view or CongestionView()))

    def route_usable(self, route: Route) -> bool:
        return all(self.tables.link_usable(l) for l in route.hops)

    def _decide(self, src_endpoint: int, dst_endpoint: int,
                view: CongestionView) -> Route:
        src_sw = self.topo.switch_of_endpoint(src_endpoint)
        dst_sw = self.topo.switch_of_endpoint(dst_endpoint)
        try:
            minimal = self.tables.minimal_routes(src_sw, dst_sw)
        except NoRouteError:
            if self.policy.mode == "minimal":
                raise
            minimal = ()

        if self.policy.mode == "minimal":
            return self._argmin((minimal,), (), view)

        ga = self.topo.group_of_switch(src_sw)
        gb = self.topo.group_of_switch(dst_sw)
        sampled = self._sample_intermediates(ga, gb)
        if self.policy.group_load_enabled and sampled:
            best = min(sampled, key=lambda g: (view.group_load(g), g))
            sampled = [best]
        nonminimal: list[tuple[Route, ...]] = []
        for g in sampled:
            try:
                nonminimal.append(self.tables.nonminimal_routes(src_sw, dst_sw, g))
            except NoRouteError:
                continue
        if not minimal and not nonminimal:
            raise NoRouteError(
                f"no usable route between endpoints {src_endpoint} and {dst_endpoint}")
        return self._argmin((minimal,), nonminimal, view)

    def _argmin(self, minimal, nonminimal, view: CongestionView) -> Route:
        """Lexicographic minimum of (cost, weight, candidate index) over the
        route sets in ``minimal`` (weight 1) and then ``nonminimal`` (weight
        ``nonminimal_bias``).  Candidate indices grow along the concatenated
        sets, so the minimum is the best of the sets' own bests, the earliest
        set winning a tie."""
        memo = self._memo
        if self._memo_for[0] is not view or self._memo_for[1] is not self.tables:
            memo.clear()
            self._memo_for = (view, self.tables)
        best = None
        for route_sets, weight in ((minimal, 1.0),
                                   (nonminimal, self.policy.nonminimal_bias)):
            for routes in route_sets:
                route = memo.get(id(routes))
                if route is None:
                    if not routes:
                        continue
                    hit = _best(routes, weight, view)
                    memo[id(routes)] = hit[2]
                else:
                    w = weight * (len(route.hops) + 1)
                    hit = w * view.route_max_occupancy(route), w, route
                if best is None or hit[:2] < best[:2]:
                    best = hit
        if best is None:
            raise NoRouteError("no candidate routes")
        return best[2]


def _best(routes: tuple[Route, ...], weight: float, view: CongestionView):
    """``(cost, w, route)`` for the first route of lowest ``(cost, w)`` in
    the non-empty ``routes``, where w = weight x (hops + 1) and cost = w x
    the route's maximum occupancy."""
    score = view.route_max_occupancy
    best = None
    for r in routes:
        w = weight * (len(r.hops) + 1)
        cost = w * score(r)
        if best is None or cost < best_cost or (
                cost == best_cost and w < best_w):
            best, best_cost, best_w = r, cost, w
    return best_cost, best_w, best
