"""Deterministic discrete-event engine for chunked message transport.

Messages split into chunks of at most ``chunk_quantum_bytes``.  A chunk's
path is the sequence of directed links from the source NIC edge link over
up to five fabric hops to the destination NIC edge link; its position in
that sequence is its virtual channel.  Every directed port owns one buffer
pool per virtual channel: a sender reserves space in the next pool before
transmitting and releases its own at transmit end, which is credit-based
flow control with monotonically increasing VC index, so buffer wait cycles
cannot form.

Directed ports are identified by the integer port id ``2 * link +
direction`` (``topology.port_id``; direction 0 travels a->b, and on edge
links endpoint->switch).  Chunk paths, ``Engine.ports``, ``active_ports``
and ``monitored`` use these ids; ``Port.key`` keeps the ``(link,
direction)`` pair for traces and congestion views.

Congestion management watches the switch-side queues of NIC delivery links.
A queue that stays above the detection threshold for the dwell time marks
the link congested; the sources seen feeding it during the dwell window are
its contributors and get injection-throttled to an equal split of the link
rate, with hysteresis on release.  Traffic to other destinations is never
throttled.

Link faults flush and invalidate in-flight chunks; each lost chunk retries
from its source after the retry timeout and counts one network timeout.
Route choice consults the last routing sweep, so a failed link keeps
attracting (and bouncing) traffic until the next sweep excludes it.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import count

from slingsim.qos import PortState, arbitrate, default_profile, validate_profile
from slingsim.report import FlapEvent, MessageRecord, SimReport, TimeoutEvent
from slingsim.routing import CongestionView, NoRouteError, Route, Router, \
    RoutingPolicy
from slingsim.topology import EDGE, GLOBAL, StateOverlay, Topology, port_id, \
    port_key


class SimConfigError(ValueError):
    pass


MAX_VC = 8  # edge + up to 5 fabric hops + edge, with margin


@dataclass(slots=True)
class SimConfig:
    seed: int = 0
    duration_s: float = 1.0
    chunk_quantum_bytes: int = 4096
    cc_enabled: bool = True
    cc_theta_bytes: int = 0  # 0 -> 4x chunk quantum
    cc_tau_us: float = 10.0
    retry_timeout_us: float = 100.0
    qos_window_us: float = 100.0
    buffer_bytes: int = 0  # per (port, vc) pool; 0 -> 8x chunk quantum
    tick_interval_us: float = 2.0
    series_interval_us: float = 50.0
    sweep_interval_s: float = 5.0
    max_retries: int = 8
    default_window: int = 16
    small_msg_threshold_bytes: int = 0
    small_msg_step_us: float = 0.0
    trace_ports: bool = False

    def theta(self) -> int:
        return self.cc_theta_bytes or 4 * self.chunk_quantum_bytes

    def buffer(self) -> int:
        return self.buffer_bytes or 8 * self.chunk_quantum_bytes

    def validate(self) -> None:
        if self.chunk_quantum_bytes <= 0:
            raise SimConfigError("chunk_quantum_bytes must be > 0")
        if self.max_retries < 1:
            raise SimConfigError("max_retries must be >= 1")
        for name in ("cc_tau_us", "retry_timeout_us", "qos_window_us",
                     "tick_interval_us", "series_interval_us"):
            if getattr(self, name) <= 0:
                raise SimConfigError(f"{name} must be > 0")


@dataclass(eq=False, slots=True)
class Message:
    id: int
    src: int
    dst: int
    size: int
    traffic_class: int
    ordered: bool
    phase: int
    src_rank: int
    dst_rank: int
    issue_time: float = -1.0
    completion_time: float = -1.0
    released: int = 0
    delivered: int = 0
    fully_released: bool = False
    failed: bool = False
    done: bool = False
    route: Route | None = None  # pinned route for ordered traffic
    stall_retries: int = 0
    stalled_until: float = -1.0


class Chunk:
    __slots__ = ("msg", "offset", "length", "path", "hop", "tx_gen", "retries")

    def __init__(self, msg: Message, offset: int, length: int,
                 path: tuple[int, ...]):
        self.msg = msg
        self.offset = offset
        self.length = length
        self.path = path  # port ids
        self.hop = 0  # index of the port currently being traversed/queued
        self.tx_gen = 0
        self.retries = 0


class Port:
    """Runtime state of one directed link: queues + per-VC credit pools.

    ``rate`` caches the overlay's effective bandwidth of the link, 0.0 while
    the link is unusable, as of overlay generation ``rate_gen``.
    """

    __slots__ = (
        "id", "key", "link", "link_id", "state", "committed", "occ", "busy",
        "waiters", "wake_at", "is_edge_in", "contributors", "detected",
        "above_since", "below_since", "throttled", "delay", "rate",
        "rate_gen",
    )

    def __init__(self, pid: int, link, state: PortState, delay: float):
        self.id = pid
        self.key = port_key(pid)
        self.link = link
        self.link_id = link.id
        self.state = state
        self.committed = [0] * MAX_VC
        self.occ = 0
        self.busy: Chunk | None = None
        self.waiters: dict = {}  # Port or Injector -> None, in wait order
        self.wake_at = float("inf")
        self.is_edge_in = link.kind == EDGE and self.key[1] == 1
        self.delay = delay  # propagation delay of the link
        self.rate = 0.0
        self.rate_gen = -1
        self.contributors: dict[int, float] = {}
        self.detected = False
        self.above_since = -1.0
        self.below_since = -1.0
        self.throttled: set[int] = set()


@dataclass(frozen=True, slots=True)
class CongestionEntry:
    link: int
    detected: bool
    contributors: frozenset[int]
    fair_share_rate: float


@dataclass(frozen=True, slots=True)
class CongestionState:
    time: float
    entries: tuple[CongestionEntry, ...]

    def entry_for(self, link: int) -> CongestionEntry | None:
        for e in self.entries:
            if e.link == link:
                return e
        return None


class Injector:
    """Per-source-endpoint chunk release: message round robin, retry queue
    and per-congested-destination rate limits."""

    __slots__ = ("ep", "edge_link", "out_port", "active", "rr", "retries",
                 "throttles", "registered", "wake_at")

    def __init__(self, ep: int, edge_link: int):
        self.ep = ep
        self.edge_link = edge_link
        self.out_port = port_id(edge_link, 0)
        self.active: list[Message] = []
        self.rr = 0
        self.retries: list[Chunk] = []
        # egress edge link -> [rate, tokens, last_refill]
        self.throttles: dict[int, list[float]] = {}
        self.registered = False
        self.wake_at = float("inf")


# event kinds
K_TX = 0
K_ARRIVE = 1
K_WAKEPORT = 2
K_WAKEINJ = 3
K_TICK = 4
K_SERIES = 5
K_SWEEP = 6
K_FAULT = 7
K_RETRY = 8


class Engine:
    def __init__(self, topo: Topology, overlay: StateOverlay, router: Router,
                 class_configs, config: SimConfig):
        config.validate()
        self.topo = topo
        self.overlay = overlay
        self.router = router
        self.config = config
        self.profile = validate_profile(class_configs)
        self.rng = random.Random(config.seed)

        self.now = 0.0
        self._heap: list = []
        self._seq = count()  # heap tie-break: events at one time fire FIFO
        self._buffer = config.buffer()
        self.ports: dict[int, Port] = {}  # port id -> Port
        self.injectors: dict[int, Injector] = {}
        self.active_ports: dict[int, Port] = {}
        self.monitored: dict[int, Port] = {}
        self.link_gen: dict[int, int] = {}
        self.view = CongestionView()
        self._blocked: list[Port] = []  # ports refusing credit to one kick

        self.messages: list[Message] = []
        self.injected_bytes = 0
        self.delivered_bytes = 0
        self.failed_bytes = 0
        self.timeouts = 0
        self.timeout_events: list[TimeoutEvent] = []
        self.flap_events: list[FlapEvent] = []
        self.per_ep_delivered: dict[int, int] = {}
        self.series: list[tuple[float, float, int, int]] = []
        self._series_last_bytes = 0
        self.port_trace: list[tuple[float, tuple[int, int], int, int]] = []

        self._faults: list[tuple[float, int, float]] = []
        self._pending_faults = 0
        self.unresolved = 0
        self._workload_done = False

        # schedule-runner state, filled by load()
        self._rank_queues: list[list[Message]] = []
        self._rank_next: list[int] = []
        self._outstanding: list[int] = []
        self._window = config.default_window
        self._barrier = "none"
        self._rank_phase: list[int] = []
        self._rank_involved: list[list[int]] = []
        self._rank_done: list[list[int]] = []
        self._phase_total: list[int] = []
        self._phase_done: list[int] = []
        self._global_phase = 0

    # -- setup -----------------------------------------------------------------

    def inject_fault(self, link: int, t_down: float, duration: float | None = None):
        """Schedule a link flap: down at ``t_down`` for ``duration`` seconds
        (drawn uniformly from 3..5 s when omitted)."""
        if not 0 <= link < len(self.topo.links):
            raise SimConfigError(f"unknown link {link}")
        if duration is None:
            duration = self.rng.uniform(3.0, 5.0)
        if duration <= 0:
            raise SimConfigError("fault duration must be > 0")
        self._faults.append((t_down, link, duration))

    def load(self, placement, schedule) -> None:
        """Install a workload: one message per schedule entry, released per
        phase-barrier rules and the per-rank outstanding window."""
        n = placement.ranks
        self._barrier = schedule.barrier
        self._window = schedule.window or self.config.default_window
        self._rank_queues = [[] for _ in range(n)]
        self._outstanding = [0] * n
        self._rank_next = [0] * n
        phases = schedule.phases
        self._rank_involved = [[0] * len(phases) for _ in range(n)]
        self._phase_total = [0] * len(phases)
        self._phase_done = [0] * len(phases)
        for p, phase in enumerate(phases):
            for (src_rank, dst_rank, size, ordered) in phase.messages:
                if not (0 <= src_rank < n and 0 <= dst_rank < n):
                    raise SimConfigError(f"rank out of range in phase {p}")
                tc = schedule.traffic_class
                if tc not in self.profile:
                    raise SimConfigError(f"unknown traffic class {tc}")
                msg = Message(
                    id=len(self.messages),
                    src=placement.endpoint_of[src_rank],
                    dst=placement.endpoint_of[dst_rank],
                    size=size, traffic_class=tc, ordered=ordered, phase=p,
                    src_rank=src_rank, dst_rank=dst_rank)
                self.messages.append(msg)
                self._rank_queues[src_rank].append(msg)
                self._rank_involved[src_rank][p] += 1
                if dst_rank != src_rank:
                    self._rank_involved[dst_rank][p] += 1
                self._phase_total[p] += 1
        self._rank_done = [[0] * len(phases) for _ in range(n)]
        self._rank_phase = [0] * n
        self.unresolved = len(self.messages)
        if self.messages and self.config.duration_s <= 0:
            raise SimConfigError("duration_s must be > 0 for a nonempty workload")

    # -- event plumbing -----------------------------------------------------------

    def _push(self, t: float, kind: int, payload=None) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), kind, payload))

    def _eff_bw(self, link_id: int) -> float:
        return self.overlay.effective_bandwidth(link_id)

    def _port(self, pid: int) -> Port:
        port = self.ports.get(pid)
        if port is None:
            port = self._new_port(pid)
        return port

    def _new_port(self, pid: int) -> Port:
        state = PortState(self.profile.values(),
                          self.config.chunk_quantum_bytes,
                          self.config.qos_window_us * 1e-6)
        link = self.topo.links[port_key(pid)[0]]
        spec = self.topo.spec
        delay = spec.endpoint_latency if link.kind == EDGE \
            else spec.per_hop_latency
        port = self.ports[pid] = Port(pid, link, state, delay)
        if port.is_edge_in:
            self.monitored[pid] = port
        return port

    def _refresh_rate(self, port: Port) -> None:
        """Re-read ``port.rate`` from the overlay; callers skip this while
        ``port.rate_gen`` matches the overlay's generation."""
        overlay = self.overlay
        port.rate_gen = overlay.generation
        port.rate = overlay.effective_bandwidth(port.link_id) \
            if overlay.link_usable(port.link_id) else 0.0

    def _injector(self, ep: int) -> Injector:
        inj = self.injectors.get(ep)
        if inj is None:
            inj = Injector(ep, self.topo.edge_link_of_endpoint(ep))
            self.injectors[ep] = inj
        return inj

    @staticmethod
    def _build_path(src: int, dst: int, route: Route,
                    topo: Topology) -> tuple[int, ...]:
        return (port_id(topo.edge_link_of_endpoint(src), 0), *route.port_ids,
                port_id(topo.edge_link_of_endpoint(dst), 1))

    # -- run loop ----------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.config
        tick = cfg.tick_interval_us * 1e-6
        series = cfg.series_interval_us * 1e-6
        for (t, link, duration) in sorted(self._faults):
            self._push(t, K_FAULT, (link, "down", duration))
            self._push(t + duration, K_FAULT, (link, "up", duration))
            self._pending_faults += 2
        self._push(tick, K_TICK, None)
        self._push(series, K_SERIES, None)
        self._push(cfg.sweep_interval_s, K_SWEEP, None)
        self._release_ready()
        self._check_done()

        heap = self._heap
        pop = heapq.heappop
        end = cfg.duration_s
        on_txdone, on_arrive = self._on_txdone, self._on_arrive
        inf = float("inf")
        while heap:
            t, _seq, kind, payload = pop(heap)
            if t > end:
                self.now = end
                break
            self.now = t
            if kind == K_TX:
                on_txdone(payload)
            elif kind == K_ARRIVE:
                on_arrive(payload)
            elif kind == K_WAKEPORT:
                payload.wake_at = inf
                self._kick_port(payload)
            elif kind == K_WAKEINJ:
                payload.wake_at = inf
                self._run_injector(payload)
            elif kind == K_TICK:
                self._on_tick()
                if not self._workload_done:
                    self._push(t + tick, K_TICK, None)
            elif kind == K_SERIES:
                self._on_series(t, series)
                if not self._workload_done:
                    self._push(t + series, K_SERIES, None)
            elif kind == K_SWEEP:
                self.router.sweep()
                if not self._workload_done:
                    self._push(t + cfg.sweep_interval_s, K_SWEEP, None)
            elif kind == K_FAULT:
                self._on_fault(*payload)
            elif kind == K_RETRY:
                self._on_retry(payload)
            if self._workload_done and self._pending_faults == 0:
                break
        return self._report()

    def _check_done(self) -> None:
        if self.unresolved == 0:
            self._workload_done = True

    # -- schedule release -----------------------------------------------------------

    def _rank_may_issue(self, rank: int, phase: int) -> bool:
        if self._barrier == "none":
            return True
        if self._barrier == "global":
            return phase <= self._global_phase
        return phase <= self._rank_phase[rank]

    def _release_ready(self) -> None:
        for rank in range(len(self._rank_queues)):
            self._release_rank(rank)

    def _release_rank(self, rank: int) -> None:
        queue = self._rank_queues[rank]
        while (self._rank_next[rank] < len(queue)
               and self._outstanding[rank] < self._window):
            msg = queue[self._rank_next[rank]]
            if not self._rank_may_issue(rank, msg.phase):
                break
            self._rank_next[rank] += 1
            self._outstanding[rank] += 1
            self._issue(msg)

    def _issue(self, msg: Message) -> None:
        msg.issue_time = self.now
        if msg.ordered:
            key = (msg.src, msg.dst, msg.traffic_class)
            try:
                msg.route = self.router.select_route(
                    msg.src, msg.dst, msg.traffic_class, True, self.view)
                self.router.flow_table.add_pending(key)
            except NoRouteError:
                msg.route = None  # resolved at release time via stall path
        inj = self._injector(msg.src)
        inj.active.append(msg)
        self._run_injector(inj)

    def _resolve(self, msg: Message) -> None:
        """Common bookkeeping once a message completes or fails."""
        msg.done = True
        self.unresolved -= 1
        if msg.ordered and msg.route is not None:
            self.router.flow_table.release((msg.src, msg.dst, msg.traffic_class))
        rank = msg.src_rank
        self._outstanding[rank] -= 1
        p = msg.phase
        self._rank_done[rank][p] += 1
        unlocked = [rank]
        if msg.dst_rank != rank:
            self._rank_done[msg.dst_rank][p] += 1
            unlocked.append(msg.dst_rank)
        self._phase_done[p] += 1
        if self._barrier == "rank":
            for r in unlocked:
                while (self._rank_phase[r] < len(self._phase_total)
                       and self._rank_done[r][self._rank_phase[r]]
                       >= self._rank_involved[r][self._rank_phase[r]]):
                    self._rank_phase[r] += 1
            for r in unlocked:
                self._release_rank(r)
        elif self._barrier == "global":
            advanced = False
            while (self._global_phase < len(self._phase_total)
                   and self._phase_done[self._global_phase]
                   >= self._phase_total[self._global_phase]):
                self._global_phase += 1
                advanced = True
            if advanced:
                self._release_ready()
            else:
                self._release_rank(rank)
        else:
            self._release_rank(rank)
        self._check_done()

    def _complete(self, msg: Message) -> None:
        msg.completion_time = self.now
        if self.config.small_msg_threshold_bytes and \
                msg.size <= self.config.small_msg_threshold_bytes:
            msg.completion_time += self.config.small_msg_step_us * 1e-6
        self._resolve(msg)

    def _fail(self, msg: Message) -> None:
        msg.failed = True
        inj = self.injectors.get(msg.src)
        if inj and msg in inj.active:
            inj.active.remove(msg)
        self._resolve(msg)

    # -- injection -------------------------------------------------------------------

    def _throttle_ok(self, inj: Injector, msg: Message,
                     length: int) -> tuple[bool, float]:
        egress = self.topo.edge_link_of_endpoint(msg.dst)
        bucket = inj.throttles.get(egress)
        if bucket is None:
            return True, 0.0
        rate, tokens, last = bucket
        tokens = min(float(self.config.chunk_quantum_bytes),
                     tokens + (self.now - last) * rate)
        bucket[1], bucket[2] = tokens, self.now
        if tokens >= length:
            return True, 0.0
        return False, self.now + (length - tokens) / rate

    def _charge_throttle(self, inj: Injector, msg: Message, length: int) -> None:
        egress = self.topo.edge_link_of_endpoint(msg.dst)
        bucket = inj.throttles.get(egress)
        if bucket is not None:
            bucket[1] -= length

    def _run_injector(self, inj: Injector) -> None:
        out = self._port(inj.out_port)
        buffer = self._buffer
        quantum = self.config.chunk_quantum_bytes
        wake: float | None = None

        while True:
            # retry chunks first, in arrival order
            chunk = None
            msg = None
            if inj.retries:
                cand = inj.retries[0]
                if cand.msg.done:
                    inj.retries.pop(0)
                    if cand.msg.failed:
                        self.failed_bytes += cand.length
                    continue
                ok, t = self._throttle_ok(inj, cand.msg, cand.length)
                if ok:
                    if out.committed[0] + cand.length > buffer:
                        self._wait_credit(inj, out)
                        break
                    chunk = inj.retries.pop(0)
                    msg = chunk.msg
                    self._charge_throttle(inj, msg, chunk.length)
                else:
                    wake = t if wake is None else min(wake, t)
            if chunk is None:
                msg = self._next_message(inj, out, buffer, quantum)
                if msg is None:
                    break
                if isinstance(msg, float):  # earliest unblock time
                    wake = msg if wake is None else min(wake, msg)
                    break
                chunk = self._make_chunk(inj, msg, quantum)
                if chunk is None:
                    continue  # message stalled on routing; try others
            # hand the chunk to the edge-out port
            out.committed[0] += chunk.length
            out.occ += chunk.length
            self.active_ports[out.id] = out
            out.state.enqueue(chunk, chunk.msg.traffic_class, 0)
            self._kick_port(out)

        if wake is not None and wake < inj.wake_at:
            inj.wake_at = wake
            self._push(wake, K_WAKEINJ, inj)

    def _next_message(self, inj: Injector, out: Port, buffer: int, quantum: int):
        """Next releasable message in round-robin order, None when idle, or a
        float wake time when everything is throttle/stall-blocked."""
        n = len(inj.active)
        earliest: float | None = None
        for i in range(n):
            msg = inj.active[(inj.rr + i) % n]
            if msg.done or msg.fully_released:
                continue
            if msg.stalled_until > self.now:
                t = msg.stalled_until
                earliest = t if earliest is None else min(earliest, t)
                continue
            length = min(quantum, msg.size - msg.released) if msg.size else 0
            ok, t = self._throttle_ok(inj, msg, length)
            if not ok:
                earliest = t if earliest is None else min(earliest, t)
                continue
            if out.committed[0] + length > buffer:
                self._wait_credit(inj, out)
                return None
            inj.rr = (inj.rr + i) % n
            return msg
        inj.active = [m for m in inj.active if not (m.done or m.fully_released)]
        inj.rr = 0
        return earliest

    def _make_chunk(self, inj: Injector, msg: Message, quantum: int) -> Chunk | None:
        if msg.ordered:
            route = msg.route
            if route is None or not self.router.route_usable(route):
                route = self._reroute_ordered(msg)
                if route is None:
                    return None
        else:
            try:
                route = self.router.select_route(
                    msg.src, msg.dst, msg.traffic_class, False, self.view)
            except NoRouteError:
                self._stall(msg)
                return None
        length = min(quantum, msg.size - msg.released) if msg.size else 0
        chunk = Chunk(msg, msg.released, length,
                      self._build_path(msg.src, msg.dst, route, self.topo))
        msg.released += length
        if msg.released >= msg.size:
            msg.fully_released = True
        self.injected_bytes += length
        self._charge_throttle(inj, msg, length)
        return chunk

    def _reroute_ordered(self, msg: Message) -> Route | None:
        had_pin = msg.route is not None
        try:
            route = self.router.repin(msg.src, msg.dst, msg.traffic_class, self.view)
        except NoRouteError:
            self._stall(msg)
            return None
        if not had_pin:
            self.router.flow_table.add_pending(
                (msg.src, msg.dst, msg.traffic_class))
        msg.route = route
        return route

    def _stall(self, msg: Message) -> None:
        """No usable route right now: count a timeout and retry later."""
        msg.stall_retries += 1
        self._note_timeout(msg, self.topo.edge_link_of_endpoint(msg.src))
        if msg.stall_retries > self.config.max_retries:
            self._fail(msg)
            return
        msg.stalled_until = self.now + self.config.retry_timeout_us * 1e-6
        inj = self._injector(msg.src)
        if msg.stalled_until < inj.wake_at:
            inj.wake_at = msg.stalled_until
            self._push(msg.stalled_until, K_WAKEINJ, inj)

    def _wait_credit(self, inj: Injector, port: Port) -> None:
        if not inj.registered:
            inj.registered = True
            port.waiters[inj] = None

    # -- port service ----------------------------------------------------------------

    def _kick_port(self, port: Port) -> None:
        if port.busy is not None:
            return
        if port.rate_gen != self.overlay.generation:
            self._refresh_rate(port)
        rate = port.rate
        if not rate:
            return
        blocked = self._blocked
        chunk, wake = arbitrate(port.state, self.now, rate, self._can_send)
        if chunk is not None:
            blocked.clear()
            self._start_tx(port, chunk, rate)
            return
        for q in blocked:
            q.waiters[port] = None
        blocked.clear()
        if wake is not None and wake < port.wake_at:
            port.wake_at = wake
            heapq.heappush(self._heap, (wake, next(self._seq), K_WAKEPORT, port))

    def _can_send(self, chunk: Chunk) -> bool:
        """Credit gate of ``arbitrate``: room for ``chunk`` in its next pool.
        A refusing port is remembered in ``_blocked`` for the kick to wait on."""
        nxt = chunk.hop + 1
        path = chunk.path
        if nxt >= len(path):
            return True
        q = self.ports.get(path[nxt])
        if q is None:
            q = self._new_port(path[nxt])
        if q.committed[nxt] + chunk.length <= self._buffer:
            return True
        self._blocked.append(q)
        return False

    def _start_tx(self, port: Port, chunk: Chunk, rate: float) -> None:
        nxt = chunk.hop + 1
        if nxt < len(chunk.path):
            q = self._port(chunk.path[nxt])
            q.committed[nxt] += chunk.length
            q.occ += chunk.length
            self.active_ports[q.id] = q
        chunk.tx_gen = self.link_gen.get(port.link_id, 0)
        port.busy = chunk
        if self.config.trace_ports:
            self.port_trace.append(
                (self.now, port.key, chunk.msg.traffic_class, chunk.length))
        heapq.heappush(self._heap, (self.now + chunk.length / rate,
                                    next(self._seq), K_TX, port))

    def _on_txdone(self, port: Port) -> None:
        chunk = port.busy
        port.busy = None
        link_id = port.link_id
        port.committed[chunk.hop] -= chunk.length
        port.occ -= chunk.length
        if port.occ <= 0 and port.id in self.active_ports:
            if port.state.backlog() == 0:
                del self.active_ports[port.id]
        if port.waiters:
            self._wake_waiters(port)

        if port.rate_gen != self.overlay.generation:
            self._refresh_rate(port)
        if self.link_gen.get(link_id, 0) != chunk.tx_gen or not port.rate:
            self._release_next_reservation(chunk)
            self._lose_chunk(chunk, link_id)
        else:
            heapq.heappush(self._heap, (self.now + port.delay,
                                        next(self._seq), K_ARRIVE, chunk))
        self._kick_port(port)

    def _wake_waiters(self, port: Port) -> None:
        if not port.waiters:
            return
        waiters = list(port.waiters)
        port.waiters.clear()
        heap, seq, now = self._heap, self._seq, self.now
        for w in waiters:
            if isinstance(w, Injector):
                w.registered = False
                heapq.heappush(heap, (now, next(seq), K_WAKEINJ, w))
            else:
                heapq.heappush(heap, (now, next(seq), K_WAKEPORT, w))

    def _release_next_reservation(self, chunk: Chunk) -> None:
        nxt = chunk.hop + 1
        if nxt < len(chunk.path):
            q = self._port(chunk.path[nxt])
            q.committed[nxt] -= chunk.length
            q.occ -= chunk.length
            self._wake_waiters(q)

    def _on_arrive(self, chunk: Chunk) -> None:
        path = chunk.path
        link_id = self.ports[path[chunk.hop]].link_id
        if self.link_gen.get(link_id, 0) != chunk.tx_gen:
            self._release_next_reservation(chunk)
            self._lose_chunk(chunk, link_id)
            return
        hop = chunk.hop = chunk.hop + 1
        chunk.retries = 0
        if hop >= len(path):
            self._deliver(chunk)
            return
        port = self.ports.get(path[hop])
        if port is None:
            port = self._new_port(path[hop])
        if port.rate_gen != self.overlay.generation:
            self._refresh_rate(port)
        if not port.rate:
            # next link died while the chunk was in flight toward it
            port.committed[hop] -= chunk.length
            port.occ -= chunk.length
            self._lose_chunk(chunk, port.link_id)
            return
        port.state.enqueue(chunk, chunk.msg.traffic_class, hop)
        self.active_ports[port.id] = port
        if port.is_edge_in:
            port.contributors[chunk.msg.src] = self.now
        self._kick_port(port)

    def _deliver(self, chunk: Chunk) -> None:
        msg = chunk.msg
        msg.delivered += chunk.length
        self.delivered_bytes += chunk.length
        self.per_ep_delivered[msg.dst] = \
            self.per_ep_delivered.get(msg.dst, 0) + chunk.length
        if not msg.done and not msg.failed and msg.fully_released \
                and msg.delivered >= msg.size:
            self._complete(msg)

    # -- loss, retry, faults ------------------------------------------------------------

    def _note_timeout(self, msg: Message, link_id: int) -> None:
        self.timeouts += 1
        link = self.topo.links[link_id]
        node = self.topo.node_of_endpoint(link.endpoint) if link.kind == EDGE else -1
        self.timeout_events.append(
            TimeoutEvent(self.now, link_id, link.kind, node, msg.id))

    def _lose_chunk(self, chunk: Chunk, link_id: int) -> None:
        self._note_timeout(chunk.msg, link_id)
        if chunk.msg.done:
            if chunk.msg.failed:
                self.failed_bytes += chunk.length
            return
        self._push(self.now + self.config.retry_timeout_us * 1e-6, K_RETRY, chunk)

    def _on_retry(self, chunk: Chunk) -> None:
        msg = chunk.msg
        if msg.done:
            if msg.failed:
                self.failed_bytes += chunk.length
            return
        try:
            if msg.ordered:
                route = msg.route
                if route is None or not self.router.route_usable(route):
                    route = self.router.repin(
                        msg.src, msg.dst, msg.traffic_class, self.view)
                    msg.route = route
            else:
                route = self.router.select_route(
                    msg.src, msg.dst, msg.traffic_class, False, self.view)
        except NoRouteError:
            chunk.retries += 1
            self._note_timeout(msg, self.topo.edge_link_of_endpoint(msg.src))
            if chunk.retries > self.config.max_retries:
                self.failed_bytes += chunk.length
                self._fail(msg)
            else:
                self._push(self.now + self.config.retry_timeout_us * 1e-6,
                           K_RETRY, chunk)
            return
        chunk.path = self._build_path(msg.src, msg.dst, route, self.topo)
        chunk.hop = 0
        inj = self._injector(msg.src)
        inj.retries.append(chunk)
        self._run_injector(inj)

    def _on_fault(self, link_id: int, action: str, duration: float) -> None:
        self._pending_faults -= 1
        link = self.topo.links[link_id]
        if action == "down":
            self.overlay.set_link_state(link_id, status="down")
            self.link_gen[link_id] = self.link_gen.get(link_id, 0) + 1
            node = self.topo.node_of_endpoint(link.endpoint) \
                if link.kind == EDGE else -1
            self.flap_events.append(
                FlapEvent(link_id, link.kind, node, self.now, duration))
            for d in (0, 1):
                port = self.ports.get(port_id(link_id, d))
                if port is not None:
                    self._flush_port(port)
        else:
            self.overlay.set_link_state(link_id, status="up")
            for d in (0, 1):
                port = self.ports.get(port_id(link_id, d))
                if port is not None:
                    self._kick_port(port)
        self._check_done()

    def _flush_port(self, port: Port) -> None:
        state = port.state
        for c, vc in sorted(state.queues):
            q = state.queues[(c, vc)]
            while q:
                chunk = q.popleft()
                state.queued_bytes[c] -= chunk.length
                port.committed[chunk.hop] -= chunk.length
                port.occ -= chunk.length
                self._lose_chunk(chunk, port.link_id)
        for c in state.order:
            if state.queued_bytes[c] == 0:
                state.deficit[c] = 0.0
        self._wake_waiters(port)

    # -- congestion management -------------------------------------------------------

    def _on_tick(self) -> None:
        self._rebuild_view()
        if self.config.cc_enabled:
            self._cc_update()

    def _rebuild_view(self) -> None:
        occ: dict[tuple[int, int], float] = {}
        group_load: dict[int, float] = {}
        for port in self.active_ports.values():
            if port.occ <= 0:
                continue
            occ[port.key] = float(port.occ)
            if port.link.kind == GLOBAL:
                for sw in (port.link.switch_a, port.link.switch_b):
                    g = self.topo.group_of_switch(sw)
                    group_load[g] = group_load.get(g, 0.0) + port.occ
        self.view = CongestionView(self.now, occ, group_load)

    def _cc_update(self) -> None:
        theta = self.config.theta()
        tau = self.config.cc_tau_us * 1e-6
        for key, port in self.monitored.items():
            occ = port.occ
            if not port.detected:
                if occ > theta:
                    if port.above_since < 0:
                        port.above_since = self.now
                    if self.now - port.above_since >= tau:
                        port.detected = True
                        port.below_since = -1.0
                        self._sync_throttles(port)
                else:
                    port.above_since = -1.0
            else:
                self._sync_throttles(port)
                if occ < theta / 2:
                    if port.below_since < 0:
                        port.below_since = self.now
                    if self.now - port.below_since >= tau:
                        port.detected = False
                        port.above_since = -1.0
                        port.below_since = -1.0
                        self._clear_throttles(port)
                else:
                    port.below_since = -1.0

    def _sync_throttles(self, port: Port) -> None:
        tau = self.config.cc_tau_us * 1e-6
        horizon = self.now - tau
        live = {src for src, t in port.contributors.items() if t >= horizon}
        if not live:
            live = set(port.contributors)  # keep last known feeders
        for src in sorted(port.contributors):
            if src not in live:
                del port.contributors[src]
        egress = port.link_id
        fair = self._eff_bw(egress) / max(1, len(live))
        for src in sorted(port.throttled - live):
            inj = self.injectors.get(src)
            if inj:
                inj.throttles.pop(egress, None)
                self._push(self.now, K_WAKEINJ, inj)
            port.throttled.discard(src)
        for src in sorted(live):
            inj = self._injector(src)
            bucket = inj.throttles.get(egress)
            if bucket is None:
                inj.throttles[egress] = [
                    fair, float(self.config.chunk_quantum_bytes), self.now]
                port.throttled.add(src)
            else:
                rate, tokens, last = bucket
                tokens = min(float(self.config.chunk_quantum_bytes),
                             tokens + (self.now - last) * rate)
                bucket[0], bucket[1], bucket[2] = fair, tokens, self.now

    def _clear_throttles(self, port: Port) -> None:
        egress = port.link_id
        for src in sorted(port.throttled):
            inj = self.injectors.get(src)
            if inj:
                inj.throttles.pop(egress, None)
                self._push(self.now, K_WAKEINJ, inj)
        port.throttled.clear()
        port.contributors.clear()

    def congestion_state(self) -> CongestionState:
        entries = []
        for pid in sorted(self.monitored):
            port = self.monitored[pid]
            live = frozenset(port.contributors) if port.detected else frozenset()
            fair = self._eff_bw(port.link_id) / max(1, len(live))
            entries.append(CongestionEntry(port.link_id, port.detected, live, fair))
        return CongestionState(self.now, tuple(entries))

    # -- series & report ------------------------------------------------------------------

    def _on_series(self, t: float, interval: float) -> None:
        delta = self.delivered_bytes - self._series_last_bytes
        self._series_last_bytes = self.delivered_bytes
        inflight = self.injected_bytes - self.delivered_bytes - self.failed_bytes
        self.series.append((t, delta / interval, inflight, self.timeouts))

    def _report(self) -> SimReport:
        records = [
            MessageRecord(
                id=m.id, src=m.src, dst=m.dst, src_rank=m.src_rank,
                dst_rank=m.dst_rank, size=m.size,
                traffic_class=m.traffic_class, ordered=m.ordered,
                issue_time=m.issue_time, completion_time=m.completion_time,
                failed=m.failed)
            for m in self.messages
        ]
        incomplete = sum(1 for m in self.messages
                         if not m.failed and m.completion_time < 0)
        return SimReport(
            seed=self.config.seed,
            duration=self.now,
            messages=records,
            per_endpoint_delivered=dict(sorted(self.per_ep_delivered.items())),
            series=list(self.series),
            timeout_count=self.timeouts,
            timeout_events=list(self.timeout_events),
            flap_events=list(self.flap_events),
            injected_bytes=self.injected_bytes,
            delivered_bytes=self.delivered_bytes,
            failed_bytes=self.failed_bytes,
            incomplete_messages=incomplete,
        )


def run_simulation(topo: Topology, overlay: StateOverlay,
                   policy: RoutingPolicy | None, class_configs,
                   workload, config: SimConfig,
                   faults=()) -> SimReport:
    """Simulate ``workload`` (placement + schedule) on the fabric.

    ``faults`` is an iterable of (link, t_down, duration) flaps; duration
    None draws from the 3..5 s retuning window.  Identical inputs and seed
    produce a byte-identical report digest.
    """
    if class_configs is None:
        class_configs = default_profile()
    policy = policy or RoutingPolicy()
    router = Router(topo, overlay, policy, seed=config.seed + 1000003)
    engine = Engine(topo, overlay, router, class_configs, config)
    for (link, t_down, duration) in faults:
        engine.inject_fault(link, t_down, duration)
    engine.load(workload.placement, workload.schedule)
    return engine.run()
