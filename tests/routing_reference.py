"""Frozen reference copies of route enumeration and of route selection;
do not edit either to follow later changes of ``slingsim.routing``.

Enumeration as it stood while minimal routes and each half of a detour were
built by hand: a local hop to the global link's port, the global link, a
local hop on from its far end, and the link ids replayed into port ids by
``_travel``.  ``test_enumeration_matches_reference`` compares
``slingsim.routing``'s enumerators against this copy, route for route and in
order, because route order sets the candidate indices that break selection
ties.  This code is verbatim except for three names ``slingsim`` no longer
has: ``topo.links.local_between`` stands for
``Topology.local_links_between``, which only forwarded to it, ``_peer`` for
``Link.peer``, and ``Route`` below for the ``slingsim.routing.Route``
dataclass of that time, which is now the plain tuple of its ``ports``.

Selection (``Selector``) as it stood while ``Router`` kept the best score of
each route set in a memo keyed by ``id(route set)`` and drew the
intermediate groups with ``random.sample``.  ``test_routing_differential``
and ``test_route_replay`` require the live ``Router`` to give its picks, or
its ``NoRouteError`` messages, and to leave its RNG in the same state after
every decision.  The method bodies are verbatim, less their docstrings and
return annotations.  Only ``__init__`` differs: a ``Selector`` holds no
flows and no overlay, and its caller sets ``tables`` before each
decision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from slingsim.routing import CongestionView, NoRouteError, RoutingError
from slingsim.topology import Topology, port_id


@dataclass(frozen=True, slots=True)
class Route:
    """An ordered sequence of fabric hops between two switches.

    ``ports[i]`` is the directed port id (``topology.port_id``) of hop i;
    each port leaves the switch the previous one reached.
    ``intermediate_group`` is the detour group of a non-minimal route and
    None for a minimal one.
    """

    ports: tuple[int, ...]
    intermediate_group: int | None = None


def _peer(link, switch: int) -> int:
    return link.switch_b if switch == link.switch_a else link.switch_a


def _hop(topo: Topology, link_id: int, from_switch: int) -> tuple[int, int]:
    """(port, to_switch) for traveling link_id out of from_switch."""
    a, b = topo.links.switches(link_id)
    if a == from_switch:
        return port_id(link_id, 0), b
    return port_id(link_id, 1), a


def _first_usable_local(topo: Topology, view, sa: int, sb: int) -> int | None:
    for lid in topo.links.local_between(sa, sb):
        if view.link_usable(lid):
            return lid
    return None


def _usable_globals(topo: Topology, view, ga: int, gb: int) -> list[int]:
    key = (ga, gb) if ga < gb else (gb, ga)
    return [l for l in topo.global_links.get(key, ()) if view.link_usable(l)]


def enumerate_minimal_routes(topo: Topology, view, src_switch: int,
                             dst_switch: int) -> tuple[Route, ...]:
    if src_switch == dst_switch:
        return (Route(()),)
    ga = topo.group_of_switch(src_switch)
    gb = topo.group_of_switch(dst_switch)
    routes: list[Route] = []
    if ga == gb:
        for lid in topo.links.local_between(src_switch, dst_switch):
            if view.link_usable(lid):
                routes.append(Route((_hop(topo, lid, src_switch)[0],)))
    else:
        for gl in _usable_globals(topo, view, ga, gb):
            link = topo.links[gl]
            a_sw, b_sw = link.switch_a, link.switch_b
            if topo.group_of_switch(a_sw) != ga:
                a_sw, b_sw = b_sw, a_sw
            lids: list[int] = []
            if a_sw != src_switch:
                lid = _first_usable_local(topo, view, src_switch, a_sw)
                if lid is None:
                    continue
                lids.append(lid)
            lids.append(gl)
            if b_sw != dst_switch:
                lid = _first_usable_local(topo, view, b_sw, dst_switch)
                if lid is None:
                    continue
                lids.append(lid)
            routes.append(Route(_travel(topo, src_switch, lids)))
    if not routes:
        raise NoRouteError(
            f"no usable minimal route between switches {src_switch} and {dst_switch}")
    return tuple(routes)


def _travel(topo: Topology, at: int, lids: list[int]) -> tuple[int, ...]:
    """Port ids travelling ``lids`` out of switch ``at``."""
    ports: list[int] = []
    for lid in lids:
        port, at = _hop(topo, lid, at)
        ports.append(port)
    return tuple(ports)


def enumerate_nonminimal_routes(topo: Topology, view, src_switch: int,
                                dst_switch: int,
                                intermediate_group: int) -> tuple[Route, ...]:
    ga = topo.group_of_switch(src_switch)
    gb = topo.group_of_switch(dst_switch)
    if intermediate_group in (ga, gb):
        raise RoutingError(
            f"intermediate group {intermediate_group} must differ from "
            f"source group {ga} and destination group {gb}")
    if not 0 <= intermediate_group < len(topo.group_kinds):
        raise RoutingError(f"unknown group {intermediate_group}")

    exits = []
    for gl_out in _usable_globals(topo, view, intermediate_group, gb):
        link_out = topo.links[gl_out]
        i2 = link_out.switch_a \
            if topo.group_of_switch(link_out.switch_a) == intermediate_group \
            else link_out.switch_b
        b_sw = _peer(link_out, i2)
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
        i1 = _peer(link_in, a_sw)
        lids = []
        if a_sw != src_switch:
            lid = _first_usable_local(topo, view, src_switch, a_sw)
            if lid is None:
                continue
            lids.append(lid)
        lids.append(gl_in)
        head = _travel(topo, src_switch, lids)
        for i2, tail in exits:
            if i1 == i2:
                routes.append(Route(head + tail, intermediate_group))
                continue
            lid = _first_usable_local(topo, view, i1, i2)
            if lid is None:
                continue
            routes.append(Route(head + (_hop(topo, lid, i1)[0],) + tail,
                                intermediate_group))
    if not routes:
        raise NoRouteError(
            f"intermediate group {intermediate_group} unreachable between "
            f"switches {src_switch} and {dst_switch}")
    return tuple(routes)


class Selector:
    """``Router._decide`` and the methods it calls, with the id memo."""

    def __init__(self, topo: Topology, policy, seed: int, tables=None):
        self.topo = topo
        self.policy = policy
        self.tables = tables
        self.rng = random.Random(seed)
        groups = len(topo.group_kinds)
        self._indices = {groups - 2: list(range(groups - 2)),
                         groups - 1: list(range(groups - 1))}
        self._memo: dict[int, tuple[float, float, tuple[int, ...]]] = {}
        self._memo_for: tuple = (None, None)  # (view, tables)

    def _sample_intermediates(self, ga: int, gb: int) -> list[int]:
        lo, hi = (ga, gb) if ga < gb else (gb, ga)
        groups = len(self.topo.group_kinds)
        # index g of the other groups is group g, plus one at or past lo and
        # one more at or past top, hi's index once lo is left out
        m, top = (groups - 1, groups) if lo == hi else (groups - 2, hi - 1)
        k = min(self.policy.intermediate_samples, m)
        if k == m:  # also when there is no other group
            return [g for g in range(groups) if g != lo and g != hi]
        picks = self.rng.sample(self._indices[m], k)
        for n in range(k):  # in place: cheaper than a new list for small k
            g = picks[n]
            if g >= lo:
                picks[n] = g + 1 + (g >= top)
        return picks

    def _decide(self, src_endpoint: int, dst_endpoint: int,
                view: CongestionView):
        src_sw = self.topo.switch_of_endpoint(src_endpoint)
        dst_sw = self.topo.switch_of_endpoint(dst_endpoint)
        try:
            minimal = self.tables.minimal_routes(src_sw, dst_sw)
        except NoRouteError:
            if self.policy.mode == "minimal":
                raise
            minimal = ()

        sampled = ()
        if self.policy.mode == "adaptive":
            ga = self.topo.group_of_switch(src_sw)
            gb = self.topo.group_of_switch(dst_sw)
            sampled = self._sample_intermediates(ga, gb)
        route = self._argmin(minimal, src_sw, dst_sw, sampled, view)
        if route is None:
            raise NoRouteError(
                f"no usable route between endpoints {src_endpoint} and {dst_endpoint}")
        return route

    def _argmin(self, minimal, src_sw: int, dst_sw: int, groups,
                view: CongestionView):
        if self._memo_for[0] is not view or self._memo_for[1] is not self.tables:
            self._memo.clear()
            self._memo_for = (view, self.tables)
        best = self._best_of(minimal, 1.0, view) if minimal else None
        bias = self.policy.nonminimal_bias
        floor_w = 3 * bias  # costs are >= 0, so (cost, w) <= (0, floor_w)
        detours = self.tables.nonminimal_routes
        for g in groups:
            if best is not None and best[0] == 0.0 and best[1] <= floor_w:
                break
            try:
                routes = detours(src_sw, dst_sw, g)
            except NoRouteError:
                continue
            hit = self._best_of(routes, bias, view)
            if best is None or hit[0] < best[0] or (
                    hit[0] == best[0] and hit[1] < best[1]):
                best = hit
        return None if best is None else best[2]

    def _best_of(self, routes, weight: float, view: CongestionView):
        hit = self._memo.get(id(routes))
        if hit is None:
            hit = self._memo[id(routes)] = _best(routes, weight, view)
        return hit


def _best(routes, weight: float, view: CongestionView):
    score = view.route_max_occupancy
    best = None
    for r in routes:
        w = weight * (len(r) + 1)
        cost = w * score(r)
        if best is None or cost < best_cost or (
                cost == best_cost and w < best_w):
            best, best_cost, best_w = r, cost, w
    return best_cost, best_w, best
