"""Per-layer counts and self times, taken at the public layer boundaries.

The tracer patches the names the engine calls through (class methods, the
engine module's ``arbitrate``, ``SimReport`` and ``heapq`` references, the
routing module's enumeration functions) for the duration of one
``Engine.run`` and restores them afterwards; nothing inside ``slingsim``
changes.  Timed calls form a span stack, so each span's self time excludes
its nested spans and the self times plus ``engine.self_s`` add up to the
traced run time.  Cheap, very frequent calls (heap operations, candidate
scoring, enqueue) are counted but not timed; their time stays in
``engine.self_s``.
"""

from __future__ import annotations

import heapq
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from slingsim import engine as engine_mod
from slingsim import routing as routing_mod
from slingsim.engine import (K_ARRIVE, K_FAULT, K_RETRY, K_SERIES, K_SWEEP,
                             K_TICK, K_TX, K_WAKEINJ, K_WAKEPORT)
from slingsim.qos import PortState
from slingsim.routing import CongestionView, Router, RoutingTables

EVENT_KINDS = {
    K_TX: "tx", K_ARRIVE: "arrive", K_WAKEPORT: "wakeport",
    K_WAKEINJ: "wakeinj", K_TICK: "tick", K_SERIES: "series",
    K_SWEEP: "sweep", K_FAULT: "fault", K_RETRY: "retry",
}

# span name -> (owner, attribute); owners are classes or modules
TIMED = {
    "routing.select_route": (Router, "select_route"),
    "routing.repin": (Router, "repin"),
    "routing.sweep": (Router, "sweep"),
    "routing.enumerate_minimal": (routing_mod, "enumerate_minimal_routes"),
    "routing.enumerate_nonminimal": (routing_mod, "enumerate_nonminimal_routes"),
    "qos.arbitrate": (engine_mod, "arbitrate"),
    "report.build": (engine_mod, "SimReport"),
}
COUNTED = {
    "routing.lookup_minimal": (RoutingTables, "minimal_routes"),
    "routing.lookup_nonminimal": (RoutingTables, "nonminimal_routes"),
    "routing.candidates_scored": (CongestionView, "route_max_occupancy"),
    "qos.enqueue.calls": (PortState, "enqueue"),
}


def p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


class Tracer:
    """Counts and span self times for one traced ``Engine.run``."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.wrapped_s = 0.0  # summed duration of outermost spans
        self.select_route_us: list[float] = []
        self.picks = 0
        self.pops_by_kind = dict.fromkeys(EVENT_KINDS, 0)
        self.zero_advance = 0
        self._children = [0.0]  # per open span: time spent in nested spans

    def _timed(self, name: str, fn):
        children, calls, self_s = self._children, self.calls, self.self_s
        latencies = self.select_route_us if name == "routing.select_route" else None
        counts_picks = name == "qos.arbitrate"

        def span(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = children.pop()
                children[-1] += dt
                self_s[name] += dt - nested
                calls[name] += 1
                if latencies is not None:
                    latencies.append(dt * 1e6)
            if counts_picks and result[0] is not None:
                self.picks += 1
            return result

        return span

    def _counted(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _heap_shim(self):
        pops, push, pop = self.pops_by_kind, heapq.heappush, heapq.heappop
        last = [None]

        def heappop(heap):
            item = pop(heap)
            if item[0] == last[0]:
                self.zero_advance += 1
            last[0] = item[0]
            pops[item[2]] += 1
            return item

        return types.SimpleNamespace(heappush=push, heappop=heappop)

    @contextmanager
    def installed(self):
        """Patch every traced boundary; restore the originals on exit."""
        patches = [(owner, attr, self._timed(name, getattr(owner, attr)))
                   for name, (owner, attr) in TIMED.items()]
        patches += [(owner, attr, self._counted(name, getattr(owner, attr)))
                    for name, (owner, attr) in COUNTED.items()]
        patches.append((engine_mod, "heapq", self._heap_shim()))
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self.wrapped_s = self._children[0]

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run lasting ``run_s`` seconds."""
        c, s = self.calls, self.self_s
        enumerations = (c["routing.enumerate_minimal"]
                        + c["routing.enumerate_nonminimal"])
        lookups = c["routing.lookup_minimal"] + c["routing.lookup_nonminimal"]
        arbitrations = c["qos.arbitrate"]
        out = {
            "routing.select_route.calls": c["routing.select_route"],
            "routing.select_route.s": s["routing.select_route"],
            "routing.select_route.p99_us": p99(self.select_route_us),
            "routing.candidates_scored": c["routing.candidates_scored"],
            "routing.enumerate.calls": enumerations,
            "routing.enumerate.s": (s["routing.enumerate_minimal"]
                                    + s["routing.enumerate_nonminimal"]),
            "routing.table_hit_ratio": 1 - enumerations / lookups if lookups else 0.0,
            "routing.repin.calls": c["routing.repin"],
            "routing.sweeps": c["routing.sweep"],
            "qos.arbitrate.calls": arbitrations,
            "qos.arbitrate.s": s["qos.arbitrate"],
            "qos.arbitrate.pick_ratio": self.picks / arbitrations if arbitrations else 0.0,
            "qos.enqueue.calls": c["qos.enqueue.calls"],
            "engine.events": sum(self.pops_by_kind.values()),
            "engine.zero_advance_events": self.zero_advance,
            "engine.self_s": run_s - sum(s.values()),
            "report.build_s": s["report.build"],
        }
        for kind, name in EVENT_KINDS.items():
            out[f"engine.events.{name}"] = self.pops_by_kind[kind]
        return out
