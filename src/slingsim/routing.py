"""Dragonfly route enumeration and congestion-aware route selection.

Every route between groups follows one rule: global links joined by local
hops.  It crosses its global links in order, each from its end in the group
the route is in, and wherever it must change switch inside a group, to
reach the next global link or the destination switch, it takes the first
usable local link.  A minimal route crosses one global link, so it takes at
most three switch-to-switch hops (local, global, local); a non-minimal route
detours through one intermediate group, crossing one global link into it
and one out of it, so it takes at most five.

Selection compares congestion-weighted costs in the UGAL style: cost ranks
by ``weight x (hops+1) x max queue occupancy`` along the route, where
non-minimal candidates carry a configurable bias weight.  Ties rank by the
occupancy-free weight and then by candidate index, so the choice is
deterministic and invariant under uniform scaling of occupancies.  Every
detour crosses two global links, so its (cost, weight) is at least
(0, 3 x bias).  Once a candidate reaches that floor, as an idle minimal
route of weight at most 3 x bias does, the remaining detours are neither
enumerated nor scored, and the choice is the same as scoring them all.
A router scores each route set at most once per congestion view: for each
(source switch, destination switch) it keeps a scorecard of the best route
of the pair's minimal set and of each detour set its decisions have reached,
for one view and one set of swept tables.  The intermediate groups are
drawn with exactly the RNG calls ``random.sample`` makes on the list of
candidate groups, so picks and RNG stream are those of scoring every set
afresh and sampling that list.

A route (``Route``, an alias of ``tuple[int, ...]``) is the tuple of
directed port ids (``topology.port_id``) it travels, each port leaving the
switch the previous one reached, and the congestion view is keyed by the
same ids, so the engine splices a route into a chunk's path as is and
scoring a candidate takes one lookup per hop.

Route sets are recomputed by periodic sweeps: enumeration consults the last
swept snapshot of link states, not the live overlay, so a link that flaps
between sweeps keeps its pre-flap routability until the next sweep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from slingsim.topology import StateOverlay, Topology, port_id, port_key


class RoutingError(ValueError):
    pass


class NoRouteError(RoutingError):
    """All candidate links between the pair are down or in maintenance."""


Route = tuple[int, ...]  # directed port ids, hop by hop
Leg = tuple[int, int, int]  # a global link: (id, switch_a, switch_b)


@dataclass(slots=True)
class RoutingPolicy:
    mode: str = "adaptive"  # 'minimal' | 'adaptive'
    nonminimal_bias: float = 2.0
    intermediate_samples: int = 4

    def validate(self) -> None:
        if self.mode not in ("minimal", "adaptive"):
            raise RoutingError(f"unknown routing mode {self.mode!r}")
        if not 0 < self.nonminimal_bias < math.inf:
            raise RoutingError("nonminimal_bias must be finite and > 0")
        if self.intermediate_samples < 1:
            raise RoutingError("intermediate_samples must be >= 1")


_UNSEEN = object()  # a scorecard's entry for a group no decision has reached


class CongestionView:
    """Read-only snapshot of directed queue occupancies (bytes, keyed by
    port id); a port absent from it is idle.

    Raises:
        RoutingError: an occupancy is negative; route selection's detour
            floor relies on every cost being >= 0.
    """

    __slots__ = ("_occ",)

    def __init__(self, occ: dict[int, float] | None = None):
        self._occ = occ or {}
        if min(self._occ.values(), default=0.0) < 0:
            raise RoutingError("congestion view entries must be non-negative")

    def route_max_occupancy(self, route: Route) -> float:
        # a plain loop: about twice as fast as max() over a map for routes
        # of a few hops
        get = self._occ.get
        top = 0.0
        for port in route:
            occ = get(port, 0.0)
            if occ > top:
                top = occ
        return top


# -- enumeration ---------------------------------------------------------------


def _local_port(lid: int, at: int, to: int) -> int:
    """The port that travels local link ``lid`` from switch ``at`` to
    switch ``to``: a local link runs from its lower switch to its higher
    one (``LinkTable.local_between``)."""
    return port_id(lid, 0 if at < to else 1)


def _usable_globals(topo: Topology, view, ga: int, gb: int) -> list[Leg]:
    """The usable global links between groups ``ga`` and ``gb`` as legs,
    each with its switches read once."""
    links = topo.links
    return [(l, *links.switches(l)) for l in links.global_between(ga, gb)
            if view.link_usable(l)]


def _join(topo: Topology, view, at: int, legs: tuple[Leg, ...],
          dst: int) -> Route | None:
    """The route from switch ``at`` over the global links ``legs``, in
    order, to switch ``dst``, or None when a local hop it needs has no
    usable link.  Each leg leaves from its end in the current group; each
    change of switch inside a group, to reach a leg or ``dst``, takes the
    first usable local link."""
    group = topo.group_of_switch
    links = topo.links
    ports: list[int] = []
    for leg in (*legs, None):
        if leg is None:
            end = dst
        else:
            gl, a, b = leg
            end = a if group(a) == group(at) else b
        if end != at:
            for lid in links.local_between(at, end):
                if view.link_usable(lid):
                    break
            else:
                return None
            ports.append(_local_port(lid, at, end))
        if leg is not None:
            # direction 0 leaves the link's a end
            ports.append(port_id(gl, 0 if end == a else 1))
            end = b if end == a else a
        at = end
    return tuple(ports)


def enumerate_minimal_routes(topo: Topology, view, src_switch: int,
                             dst_switch: int) -> tuple[Route, ...]:
    """All minimal routes between two switches under the given link-state view.

    Same switch yields one empty route; an intra-group pair yields one route
    per usable direct local link; an inter-group pair yields one route per
    usable global link between the groups, joined to both switches.

    Raises:
        NoRouteError: every candidate is down or in maintenance.
    """
    if src_switch == dst_switch:
        return ((),)
    ga = topo.group_of_switch(src_switch)
    gb = topo.group_of_switch(dst_switch)
    routes: list[Route] = []
    if ga == gb:
        for lid in topo.links.local_between(src_switch, dst_switch):
            if view.link_usable(lid):
                routes.append((_local_port(lid, src_switch, dst_switch),))
    else:
        for leg in _usable_globals(topo, view, ga, gb):
            route = _join(topo, view, src_switch, (leg,), dst_switch)
            if route is not None:
                routes.append(route)
    if not routes:
        raise NoRouteError(
            f"no usable minimal route between switches {src_switch} and {dst_switch}")
    return tuple(routes)


def enumerate_nonminimal_routes(topo: Topology, view, src_switch: int,
                                dst_switch: int, group: int) -> tuple[Route, ...]:
    """All detour routes through the intermediate ``group`` (<= 5 hops): one
    per usable global link into the group and, inside that, per usable
    global link out of it toward the destination group.

    Raises:
        RoutingError: the intermediate group equals the source or destination
            group (precondition violation).
        NoRouteError: the intermediate group is unreachable on usable links.
    """
    ga = topo.group_of_switch(src_switch)
    gb = topo.group_of_switch(dst_switch)
    if group in (ga, gb):
        raise RoutingError(
            f"intermediate group {group} must differ from "
            f"source group {ga} and destination group {gb}")
    if not 0 <= group < len(topo.group_kinds):
        raise RoutingError(f"unknown group {group}")
    outs = _usable_globals(topo, view, group, gb)
    routes: list[Route] = []
    for leg_in in _usable_globals(topo, view, ga, group):
        for leg_out in outs:
            route = _join(topo, view, src_switch, (leg_in, leg_out),
                          dst_switch)
            if route is not None:
                routes.append(route)
    if not routes:
        raise NoRouteError(
            f"intermediate group {group} unreachable between "
            f"switches {src_switch} and {dst_switch}")
    return tuple(routes)


# -- swept tables -----------------------------------------------------------------


class RoutingTables:
    """Frozen link-usability snapshot plus memoized route sets.

    Produced by :func:`routing_sweep`; route enumeration against the tables
    reflects the fabric state at sweep time.  A key with no route set keeps
    its ``NoRouteError`` too, and every later lookup of it raises one with
    the same message, since the answer cannot change before the next sweep.
    """

    def __init__(self, topo: Topology, excluded: frozenset[int]):
        self.topo = topo
        self.excluded = excluded
        # route sets by key; a key without one keeps its error's message
        self._minimal: dict[tuple[int, int], tuple[Route, ...] | str] = {}
        self._nonminimal: dict[tuple[int, int, int],
                               tuple[Route, ...] | str] = {}

    def link_usable(self, link: int) -> bool:
        return link not in self.excluded

    def minimal_routes(self, src_switch: int, dst_switch: int) -> tuple[Route, ...]:
        return self._routes(self._minimal, enumerate_minimal_routes,
                            (src_switch, dst_switch))

    def nonminimal_routes(self, src_switch: int, dst_switch: int,
                          group: int) -> tuple[Route, ...]:
        return self._routes(self._nonminimal, enumerate_nonminimal_routes,
                            (src_switch, dst_switch, group))

    def _routes(self, memo: dict, enumerate_routes, key: tuple):
        routes = memo.get(key)
        if routes is None:
            try:
                routes = enumerate_routes(self.topo, self, *key)
            except NoRouteError as e:
                routes = str(e)
            memo[key] = routes
        if type(routes) is str:
            raise NoRouteError(routes)
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
    return RoutingTables(topo, excluded)


# -- selection ----------------------------------------------------------------------


class Router:
    """Per-simulation route selector: swept tables, ordered-flow pins and
    the sampling RNG.

    ``flows`` maps each open ordered flow ``(src, dst, class)`` to
    ``[pinned route or None, pending messages]``; an entry lives while its
    pending count is positive, and its route is None while the flow has no
    usable route.

    Each route set is scored at most once per view.  A decision reads one
    scorecard per (source switch, destination switch), kept for one view
    and one ``tables`` and dropped when either changes: the best
    ``(cost, w, route)`` of the pair's minimal set (None when it has no
    minimal route), and of the detour set of each intermediate group the
    pair's decisions have reached (None when the group is unreachable).  A
    view never changes and a set is always scored with the same weight, so
    a card answers as scoring the set again would.  The intermediate groups
    are drawn with exactly the RNG calls ``random.sample`` makes.
    """

    def __init__(self, topo: Topology, overlay: StateOverlay,
                 policy: RoutingPolicy | None = None, seed: int = 0):
        self.topo = topo
        self.overlay = overlay
        self.policy = policy or RoutingPolicy()
        self.policy.validate()
        self.tables = routing_sweep(topo, overlay)
        self.flows: dict[tuple[int, int, int], list] = {}
        self.seed = seed
        self.rng = random.Random(seed)
        self._eps = topo.spec.endpoints_per_switch
        self._spg = topo.spec.switches_per_group
        self._groups = len(topo.group_kinds)
        self._cards: dict[tuple[int, int], tuple] = {}
        self._cards_view = self._cards_tables = None

    def sweep(self) -> RoutingTables:
        self.tables = routing_sweep(self.topo, self.overlay, self.tables)
        return self.tables

    def _sample_intermediates(self, ga: int, gb: int) -> list[int]:
        """Up to ``intermediate_samples`` groups other than ``ga`` and
        ``gb``, drawn without replacement; all of them, in order and
        without a draw, when there are no more than that.  The draw makes
        the ``getrandbits`` calls ``random.sample`` makes on the ascending
        list of those groups, and picks the same ones: it draws an index
        into that list and steps it past ``ga`` and ``gb``."""
        if ga < gb:
            lo, hi = ga, gb
        else:
            lo, hi = gb, ga
        groups = self._groups
        # index g of the other groups is group g, plus one at or past lo and
        # one more at or past top, hi's index once lo is left out
        if lo == hi:
            m, top = groups - 1, groups
        else:
            m, top = groups - 2, hi - 1
        k = self.policy.intermediate_samples
        if k >= m:  # also when there is no other group
            return [g for g in range(groups) if g != lo and g != hi]
        getrandbits = self.rng.getrandbits
        picks = []
        # random.sample keeps a pool of the indices not yet drawn while
        # that list is smaller than a set of k picks, and redraws an index
        # already drawn otherwise
        if m <= (21 + 4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 21):
            pool = list(range(m))
            n = m
            while n > m - k:
                bits = n.bit_length()
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                n -= 1
                g = pool[j]
                pool[j] = pool[n]
                picks.append(g + (g >= lo) + (g >= top))
        else:
            bits = m.bit_length()
            drawn = set()
            for _ in range(k):
                g = getrandbits(bits)
                while g >= m or g in drawn:
                    g = getrandbits(bits)
                drawn.add(g)
                picks.append(g + (g >= lo) + (g >= top))
        return picks

    def select_route(self, src_endpoint: int, dst_endpoint: int,
                     traffic_class: int, ordered: bool,
                     view: CongestionView | None = None) -> Route:
        """Pick a route for one chunk (unordered) or one flow (ordered).

        Ordered traffic of an open flow reuses the pinned route while the
        last sweep finds it usable; otherwise the decision is made fresh and
        pinned for the whole flow.  An ordered decision for a flow that is
        not open pins nothing.  Adaptive decisions rank candidates by
        congestion-weighted cost; minimal-only mode considers minimal
        candidates exclusively.
        """
        flow = self.flows.get((src_endpoint, dst_endpoint, traffic_class)) \
            if ordered else None
        if flow is not None and flow[0] is not None:
            if self.route_usable(flow[0]):
                return flow[0]
            return self.repin(src_endpoint, dst_endpoint, traffic_class, view)
        route = self._decide(src_endpoint, dst_endpoint,
                             view or CongestionView())
        if flow is not None:
            flow[0] = route
        return route

    def repin(self, src_endpoint: int, dst_endpoint: int, traffic_class: int,
              view: CongestionView | None = None) -> Route:
        """Drop a stale pin (e.g. its route lost a link) and decide afresh,
        keeping the flow's pending count.  The old pin is dropped first, so
        a decision that raises leaves the flow unpinned."""
        flow = self.flows.get((src_endpoint, dst_endpoint, traffic_class))
        if flow is not None:
            flow[0] = None
        route = self._decide(src_endpoint, dst_endpoint,
                             view or CongestionView())
        if flow is not None:
            flow[0] = route
        return route

    def open_flow(self, src_endpoint: int, dst_endpoint: int,
                  traffic_class: int, view: CongestionView | None = None) -> None:
        """Count one more pending message on an ordered flow and pin its
        route; a flow without a usable route stays unpinned and pins at its
        next ordered decision."""
        self.flows.setdefault(
            (src_endpoint, dst_endpoint, traffic_class), [None, 0])[1] += 1
        try:
            self.select_route(src_endpoint, dst_endpoint, traffic_class, True,
                              view)
        except NoRouteError:
            pass

    def close_flow(self, src_endpoint: int, dst_endpoint: int,
                   traffic_class: int) -> None:
        """Count one pending message of an open flow done; the flow and its
        pin go at zero."""
        key = (src_endpoint, dst_endpoint, traffic_class)
        flow = self.flows[key]
        flow[1] -= 1
        if not flow[1]:
            del self.flows[key]

    def route_usable(self, route: Route) -> bool:
        usable = self.tables.link_usable
        return all(usable(port_key(p)[0]) for p in route)

    def _decide(self, src_endpoint: int, dst_endpoint: int,
                view: CongestionView) -> Route:
        """The lexicographic minimum of (cost, weight, candidate index) over
        the routes of the minimal set (weight 1) and then the detours
        through each sampled group in turn (weight ``nonminimal_bias``).
        Candidate indices grow along the concatenated sets, so the minimum
        is the best of the sets' own bests, the earliest set winning a tie.

        Floor: a detour crosses two global links, so its (cost, weight) is
        at least (0, 3 x bias).  Once the best so far is at or below that
        floor, no later detour can beat it (at best it ties, and ties go to
        the earlier candidate), so the remaining groups' detours are neither
        fetched nor scored.  An unreachable group is skipped."""
        src_sw = src_endpoint // self._eps
        dst_sw = dst_endpoint // self._eps
        tables = self.tables
        cards = self._cards
        if self._cards_view is not view or self._cards_tables is not tables:
            cards.clear()
            self._cards_view = view
            self._cards_tables = tables
        card = cards.get((src_sw, dst_sw))
        if card is None:
            card = cards[src_sw, dst_sw] = self._card(src_sw, dst_sw, view)
        best, detours = card
        policy = self.policy
        if policy.mode == "adaptive":
            spg = self._spg
            bias = policy.nonminimal_bias
            floor_w = 3 * bias  # costs are >= 0, so (cost, w) <= (0, floor_w)
            for g in self._sample_intermediates(src_sw // spg, dst_sw // spg):
                if best is not None and best[0] == 0.0 and best[1] <= floor_w:
                    break
                hit = detours.get(g, _UNSEEN)
                if hit is _UNSEEN:
                    try:
                        routes = tables.nonminimal_routes(src_sw, dst_sw, g)
                    except NoRouteError:
                        hit = None
                    else:
                        hit = _best(routes, bias, view)
                    detours[g] = hit
                if hit is not None and (best is None or hit[0] < best[0] or (
                        hit[0] == best[0] and hit[1] < best[1])):
                    best = hit
        if best is None:
            raise NoRouteError(
                f"no usable route between endpoints {src_endpoint} and {dst_endpoint}")
        return best[2]

    def _card(self, src_sw: int, dst_sw: int, view: CongestionView) -> tuple:
        """A fresh scorecard of the pair for ``view``: the best of its
        minimal set, and no detour set reached yet.  In ``"minimal"`` mode a
        pair without a minimal route has no card: its lookup raises, here
        and at every later decision."""
        try:
            minimal = self.tables.minimal_routes(src_sw, dst_sw)
        except NoRouteError:
            if self.policy.mode == "minimal":
                raise
            return None, {}
        return _best(minimal, 1.0, view), {}


def _best(routes: tuple[Route, ...], weight: float, view: CongestionView):
    """``(cost, w, route)`` for the first route of lowest ``(cost, w)`` in
    the non-empty ``routes``, where w = weight x (hops + 1) and cost = w x
    the route's maximum occupancy."""
    score = view.route_max_occupancy
    best = None
    for r in routes:
        w = weight * (len(r) + 1)
        cost = w * score(r)
        if best is None or cost < best_cost or (
                cost == best_cost and w < best_w):
            best, best_cost, best_w = r, cost, w
    return best_cost, best_w, best
