"""Deterministic discrete-event engine for chunked message transport.

Messages split into chunks of at most ``chunk_quantum_bytes``.  A chunk's
path is the sequence of directed links from the source NIC edge link over
up to five fabric hops to the destination NIC edge link; its position in
that sequence is its virtual channel.  A message keeps the path of the last
route one of its chunks took, and its next chunks on that route share it;
no one mutates a path.  Every directed port owns one buffer pool per virtual
channel: a sender reserves space in the next pool before transmitting and
releases its own at transmit end, which is credit-based flow control with
monotonically increasing VC index, so buffer wait cycles cannot form.  A run
sets the fields of ``SimConfig``; every other setting is a constant of this
module or of ``cc``.

Directed ports are identified by the integer port id of
``topology.port_id`` (direction 0 travels a->b, and on edge links
endpoint->switch).  Routes, chunk paths, the congestion view,
``Engine.ports`` and ``active_ports`` all use these ids.

Congestion management (``cc``), when ``SimConfig.cc_enabled`` is set,
watches the switch-to-NIC ports of edge links and throttles the injection
of the sources feeding a congested one; with it off, ``Engine.cc`` is None.

Link faults flush and invalidate in-flight chunks; each lost chunk retries
from its source after the retry timeout and counts one network timeout.  A
chunk that finds no route, when it is cut or when it retries, counts a
timeout and retries the same way, and its message releases no further
chunks until a chunk of it gets a route again.  A chunk that has retried
``MAX_RETRIES`` times, lost or without a route, fails its message.
Route choice consults the last routing sweep, so a failed link keeps
attracting (and bouncing) traffic until the next sweep excludes it.  Every
chunk of an ordered flow takes the flow's pinned route; a sweep that finds
it unusable makes the flow re-pin once, for all its messages.  The router
owns those pins: the engine opens a flow when it issues an ordered message
and closes it when the message resolves.

A port reads its link's rate from the overlay when it is made, and again
when the link flaps.  The engine is the overlay's only writer during a run
(``_on_fault``), so the rate a port holds is always current.

Pending events are kept by instant: a heap of the distinct pending times,
and for each time a bucket of its ``(t, seq, kind, payload)`` events.  Two
rules hold:

- Events fire in time order, and at one instant in push order, those
  pushed while the instant drains included (``_push`` appends them to the
  bucket being drained).  Simulated time never goes back.
- Every event pop goes through ``heapq.heappop`` on its bucket, a list
  appended in ``seq`` order and therefore a heap, and returns the
  ``(t, seq, kind, payload)`` entry.  The benchmark's tracer
  (``perfbench/tracing.py``) swaps this module's ``heapq`` to read those
  entries; the heap of times uses names imported from ``heapq``, which it
  does not see.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from heapq import heappop as pop_time, heappush as push_time
from itertools import count

from slingsim.cc import CongestionManager, Watch
from slingsim.qos import ClassProfile, PortState, TokenBucket, arbitrate
from slingsim.report import FlapEvent, MessageRecord, SimReport, TimeoutEvent
from slingsim.routing import CongestionView, NoRouteError, Route, Router
from slingsim.topology import EDGE, StateOverlay, Topology, port_id, port_key


class SimConfigError(ValueError):
    pass


MAX_VC = 8  # edge + up to 5 fabric hops + edge, with margin
DEFAULT_WINDOW = 16  # outstanding messages per rank when a schedule sets none
MAX_RETRIES = 8  # timeouts a chunk survives; the next one fails its message
POOL_CHUNKS = 8  # each (port, VC) credit pool holds this many full chunks
# seconds, each the float of its microseconds * 1e-6, which event times sum
RETRY_TIMEOUT_S = 100.0 * 1e-6  # from a loss or a missing route to the retry
QOS_WINDOW_S = 100.0 * 1e-6  # QoS priority-budget window
TICK_INTERVAL_S = 2.0 * 1e-6  # congestion-view rebuild and CC update period
SERIES_INTERVAL_S = 50.0 * 1e-6  # report time-series sample period
INF = float("inf")  # "no wake pending"; one object shared by every port
BARRIERS = ("none", "rank", "global")


@dataclass(slots=True)
class SimConfig:
    """The settings a run varies: ``seed`` (the router's, recorded in the
    report), ``duration_s`` (simulated seconds before the run stops),
    ``chunk_quantum_bytes`` (the largest chunk; a credit pool holds
    ``POOL_CHUNKS`` of them), ``cc_enabled`` (congestion management, ``cc``)
    and ``sweep_interval_s`` (simulated seconds between sweeps).  The
    constants here and in ``cc`` are the settings no run varies."""

    seed: int = 0
    duration_s: float = 1.0
    chunk_quantum_bytes: int = 4096
    cc_enabled: bool = True
    sweep_interval_s: float = 5.0

    def validate(self) -> None:
        if self.chunk_quantum_bytes <= 0:
            raise SimConfigError("chunk_quantum_bytes must be > 0")
        # a zero interval re-fires its sweep at the same instant forever
        if not self.sweep_interval_s > 0:
            raise SimConfigError("sweep_interval_s must be > 0")


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
    failed: bool = False
    done: bool = False
    # the route a chunk of the message last took and the path built for it,
    # which later chunks on that route share; both cleared on resolve
    route: Route | None = None
    path: tuple[int, ...] = ()


class Chunk:
    __slots__ = ("msg", "length", "path", "hop", "tx_gen", "retries")

    def __init__(self, msg: Message, length: int):
        self.msg = msg
        self.length = length
        # port ids from the source edge link to the destination one, set by
        # Engine._route: the message's path for the route, shared with its
        # other chunks on that route and never mutated
        self.path: tuple[int, ...] = ()
        self.hop = 0  # index of the port currently being traversed/queued
        self.tx_gen = 0
        self.retries = 0  # timeouts over the chunk's whole life


class Port(PortState):
    """Runtime state of one directed link.  A port is its own
    ``qos.PortState``, which ``arbitrate`` reads; besides that, it has:

    - ``id``, its port id, and ``link_id``, its link's id;
    - ``committed``, the bytes reserved in each VC's credit pool, and
      ``occ``, their sum;
    - ``busy``, the chunk on the wire, if any;
    - ``waiters``, the ports and injectors refused credit here, in wait
      order (None until the port first refuses credit, and again once they
      are woken), and ``wake_at``, the time of its pending rate-cap wake;
    - ``delay``, the link's propagation delay;
    - ``rate``, the overlay's effective bandwidth of the link (0.0 while
      it is unusable), read when the port is made and when the link flaps,
      the only overlay writes during a run;
    - ``watch``, its ``cc.Watch`` when congestion management watches it,
      else None.
    """

    __slots__ = ("id", "link_id", "committed", "occ", "busy", "waiters",
                 "wake_at", "delay", "rate", "watch")

    def __init__(self, pid: int, profile: ClassProfile, delay: float):
        super().__init__(profile)
        self.id = pid
        self.link_id = port_key(pid)[0]
        self.committed = [0] * MAX_VC
        self.occ = 0
        self.busy: Chunk | None = None
        self.waiters: dict | None = None  # Port or Injector -> None
        self.wake_at = INF
        self.delay = delay
        self.rate = 0.0  # set by Engine._read_rate
        self.watch: Watch | None = None


class Injector:
    """Chunk release of one source endpoint: round robin and retry queue."""

    __slots__ = ("out_port", "active", "rr", "retries", "wake_at")

    def __init__(self, edge_link: int):
        self.out_port = port_id(edge_link, 0)
        self.active: list[Message] = []
        self.rr = 0
        self.retries: list[Chunk] = []
        self.wake_at = INF


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
        if config.seed != router.seed:
            raise SimConfigError(
                f"SimConfig.seed {config.seed} differs from the router's "
                f"seed {router.seed}")
        # faults write the engine's overlay and sweeps read the router's
        for name, mine, its in (("topology", topo, router.topo),
                                ("overlay", overlay, router.overlay)):
            if its is not mine:
                raise SimConfigError(f"the router's {name} is not the engine's")
        self.topo = topo
        self._total_endpoints = topo.total_endpoints
        self.overlay = overlay
        self.router = router
        self.config = config
        self.profile = ClassProfile(class_configs, config.chunk_quantum_bytes,
                                    QOS_WINDOW_S)

        self.now = 0.0
        self._times: list[float] = []  # heap of the distinct pending times
        # pending time -> its bucket: the (t, seq, kind, payload) events due
        # then, in push order, which keeps the list a heap by seq
        self._buckets: dict[float, list] = {}
        self._seq = count()
        self._buffer = POOL_CHUNKS * config.chunk_quantum_bytes
        self.cc = CongestionManager(overlay, config.chunk_quantum_bytes) \
            if config.cc_enabled else None
        self.ports: dict[int, Port] = {}  # port id -> Port
        self.injectors: dict[int, Injector] = {}
        self.active_ports: dict[int, Port] = {}
        self.link_gen: dict[int, int] = {}
        self.view = CongestionView()
        self._blocked: list[Port] = []  # ports refusing credit to one kick

        self.messages: list[Message] = []
        self.injected_bytes = 0
        self.delivered_bytes = 0
        self.failed_bytes = 0
        self.timeout_events: list[TimeoutEvent] = []
        self.flap_events: list[FlapEvent] = []
        self.series: list[tuple[float, float, int, int]] = []
        self._series_last_bytes = 0

        self._faults: list[tuple[float, int, float]] = []
        self._pending_faults = 0
        self.unresolved = 0

        # schedule-runner state, filled by load()
        self._rank_queues: list[list[Message]] = []
        self._rank_next: list[int] = []
        self._outstanding: list[int] = []
        self._window = DEFAULT_WINDOW
        # phase gates (see load): each rank's gate, each gate's phase and
        # its unresolved messages per phase
        self._gate_of: list[int] = []
        self._gate_phase: list[int] = []
        self._gate_left: list[list[int]] = []

    # -- setup -----------------------------------------------------------------

    def inject_fault(self, link: int, t_down: float, duration: float):
        """Schedule a link flap: down at ``t_down`` for ``duration`` seconds.
        Two flaps of one link must not overlap, or the first one's end would
        bring the link back up inside the second."""
        if not 0 <= link < len(self.topo.links):
            raise SimConfigError(f"unknown link {link}")
        if not 0 <= t_down < INF:
            raise SimConfigError(
                f"fault time must be finite and >= 0, got {t_down}")
        if not duration > 0:
            raise SimConfigError("fault duration must be > 0")
        for t, other, d in self._faults:
            if other == link and t < t_down + duration and t_down < t + d:
                raise SimConfigError(
                    f"fault on link {link} down [{t_down}, {t_down + duration})"
                    f" s overlaps its fault down [{t}, {t + d}) s")
        self._faults.append((t_down, link, duration))

    def load(self, placement, schedule) -> None:
        """Install a workload: one message per schedule entry.  A message
        must carry a byte: arbitration never serves a lone chunk of none.
        An engine runs one workload, so it takes one load, and a load that
        raises installs nothing.

        Each rank issues its messages in schedule order, at most ``window``
        outstanding, and a phase-p one once its gate has reached p.  Under
        ``"rank"`` each rank has its own gate, under ``"global"`` all share
        one, and under ``"none"`` all share one open from the start at
        ``len(phases)``.  A gate passes a phase once every message of it
        sent or received by the gate's ranks has resolved.  When a message
        resolves, ranks 0..n-1 issue in turn if the shared gate moved, else
        its source rank and then its destination rank if another."""
        n = placement.ranks
        if self._rank_queues:
            raise SimConfigError("the engine already holds a workload")
        tc = schedule.traffic_class
        if tc not in self.profile.configs:
            raise SimConfigError(f"unknown traffic class {tc}")
        if schedule.barrier not in BARRIERS:
            raise SimConfigError(f"unknown barrier {schedule.barrier!r}")
        if schedule.window < 0:
            raise SimConfigError("window must be >= 0")
        if len(placement.endpoint_of) < n or not all(
                0 <= ep < self._total_endpoints
                for ep in placement.endpoint_of):
            raise SimConfigError("placement needs one fabric endpoint per rank")
        phases = schedule.phases
        messages: list[Message] = []
        queues: list[list[Message]] = [[] for _ in range(n)]
        rank_gates = schedule.barrier == "rank"
        gate_of = list(range(n)) if rank_gates else [0] * n
        gate_left = [[0] * len(phases) for _ in range(n if rank_gates else 1)]
        for p, phase in enumerate(phases):
            for (src_rank, dst_rank, size, ordered) in phase.messages:
                if not (0 <= src_rank < n and 0 <= dst_rank < n):
                    raise SimConfigError(f"rank out of range in phase {p}")
                if not size >= 1:
                    raise SimConfigError(f"message size {size} < 1 in phase {p}")
                msg = Message(
                    id=len(messages),
                    src=placement.endpoint_of[src_rank],
                    dst=placement.endpoint_of[dst_rank],
                    size=size, traffic_class=tc, ordered=ordered, phase=p,
                    src_rank=src_rank, dst_rank=dst_rank)
                messages.append(msg)
                queues[src_rank].append(msg)
                gate_left[gate_of[src_rank]][p] += 1
                if gate_of[dst_rank] != gate_of[src_rank]:
                    gate_left[gate_of[dst_rank]][p] += 1
        if messages and not self.config.duration_s > 0:
            raise SimConfigError("duration_s must be > 0 for a nonempty workload")
        self._window = schedule.window or DEFAULT_WINDOW
        self.messages = messages
        self._rank_queues = queues
        self._outstanding = [0] * n
        self._rank_next = [0] * n
        self._gate_of = gate_of
        self._gate_left = gate_left
        opened = len(phases) if schedule.barrier == "none" else 0
        self._gate_phase = [opened] * len(gate_left)
        for gate in range(len(gate_left)):
            self._advance(gate)  # past phases with nothing to wait for
        self.unresolved = len(messages)

    # -- event plumbing -----------------------------------------------------------

    def _push(self, t: float, kind: int, payload=None) -> None:
        """Schedule an event at ``t``, after every event already due then;
        at the current instant it joins the bucket being drained."""
        bucket = self._buckets.get(t)
        if bucket is None:
            bucket = self._buckets[t] = []
            push_time(self._times, t)
        bucket.append((t, next(self._seq), kind, payload))

    def _port(self, pid: int) -> Port:
        port = self.ports.get(pid)
        if port is None:
            port = self._new_port(pid)
        return port

    def _new_port(self, pid: int) -> Port:
        spec = self.topo.spec
        link_id, direction = port_key(pid)
        edge = link_id < self._total_endpoints
        port = self.ports[pid] = Port(
            pid, self.profile,
            spec.endpoint_latency if edge else spec.per_hop_latency)
        self._read_rate(port)
        if edge and direction == 1 and self.cc is not None:
            port.watch = self.cc.watch(port)
        return port

    def _read_rate(self, port: Port) -> None:
        """Set ``port.rate`` from the overlay: the link's effective
        bandwidth, or 0.0 while it is unusable."""
        overlay = self.overlay
        port.rate = overlay.effective_bandwidth(port.link_id) \
            if overlay.link_usable(port.link_id) else 0.0

    # -- run loop ----------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.config
        for (t, link, duration) in sorted(self._faults):
            self._push(t, K_FAULT, (link, "down", duration))
            self._push(t + duration, K_FAULT, (link, "up", duration))
            self._pending_faults += 2
        self._push(TICK_INTERVAL_S, K_TICK, None)
        self._push(SERIES_INTERVAL_S, K_SERIES, None)
        self._push(cfg.sweep_interval_s, K_SWEEP, None)
        self._release_ready()

        times, buckets = self._times, self._buckets
        pop = heapq.heappop
        end = cfg.duration_s
        on_txdone, on_arrive = self._on_txdone, self._on_arrive
        while times:
            t = pop_time(times)
            if t > end:
                self.now = end
                break
            self.now = t
            bucket = buckets[t]
            while bucket:
                _t, _seq, kind, payload = pop(bucket)
                if kind == K_TX:
                    on_txdone(payload)
                elif kind == K_ARRIVE:
                    on_arrive(payload)
                elif kind == K_WAKEPORT:
                    payload.wake_at = INF
                    if payload.busy is None:
                        self._kick_port(payload)
                elif kind == K_WAKEINJ:
                    payload.wake_at = INF
                    self._run_injector(payload)
                elif kind == K_TICK:
                    self._on_tick()
                    if self.unresolved:
                        self._push(t + TICK_INTERVAL_S, K_TICK, None)
                elif kind == K_SERIES:
                    self._on_series(t, SERIES_INTERVAL_S)
                    if self.unresolved:
                        self._push(t + SERIES_INTERVAL_S, K_SERIES, None)
                elif kind == K_SWEEP:
                    self.router.sweep()
                    if self.unresolved:
                        self._push(t + cfg.sweep_interval_s, K_SWEEP, None)
                elif kind == K_FAULT:
                    self._on_fault(*payload)
                elif kind == K_RETRY:
                    self._on_retry(payload)
                if not self.unresolved and not self._pending_faults:
                    return self._report()
            del buckets[t]
        return self._report()

    # -- schedule release -----------------------------------------------------------

    def _release_ready(self) -> None:
        for rank in range(len(self._rank_queues)):
            self._release_rank(rank)

    def _release_rank(self, rank: int) -> None:
        queue = self._rank_queues[rank]
        gate_phase = self._gate_phase[self._gate_of[rank]]
        while (self._rank_next[rank] < len(queue)
               and self._outstanding[rank] < self._window):
            msg = queue[self._rank_next[rank]]
            if msg.phase > gate_phase:
                break
            self._rank_next[rank] += 1
            self._outstanding[rank] += 1
            self._issue(msg)

    def _issue(self, msg: Message) -> None:
        msg.issue_time = self.now
        if msg.ordered:
            self.router.open_flow(msg.src, msg.dst, msg.traffic_class,
                                  self.view)
        inj = self.injectors.get(msg.src)
        if inj is None:
            inj = self.injectors[msg.src] = Injector(
                self.topo.edge_link_of_endpoint(msg.src))
        inj.active.append(msg)
        self._run_injector(inj)

    def _resolve(self, msg: Message) -> None:
        """Common bookkeeping once a message completes or fails."""
        msg.done = True
        msg.route, msg.path = None, ()
        self.unresolved -= 1
        if msg.ordered:
            self.router.close_flow(msg.src, msg.dst, msg.traffic_class)
        src, dst = msg.src_rank, msg.dst_rank
        self._outstanding[src] -= 1
        gate, dst_gate = self._gate_of[src], self._gate_of[dst]
        self._gate_left[gate][msg.phase] -= 1
        if dst_gate != gate:
            self._gate_left[dst_gate][msg.phase] -= 1
            self._advance(dst_gate)
        if self._advance(gate) and len(self._gate_phase) == 1:
            self._release_ready()  # the shared gate moved
        else:
            self._release_rank(src)
            if dst != src:
                self._release_rank(dst)

    def _advance(self, gate: int) -> bool:
        """Move ``gate`` past every phase its ranks have finished; returns
        whether it moved."""
        left = self._gate_left[gate]
        start = p = self._gate_phase[gate]
        while p < len(left) and left[p] <= 0:
            p += 1
        self._gate_phase[gate] = p
        return p != start

    def _fail(self, msg: Message) -> None:
        msg.failed = True
        inj = self.injectors.get(msg.src)
        if inj and msg in inj.active:
            inj.active.remove(msg)
        self._resolve(msg)

    # -- injection -------------------------------------------------------------------

    def _throttle(self, msg: Message) -> TokenBucket | None:
        """The congestion throttle on ``msg``'s source toward its
        destination's delivery port, if any."""
        cc = self.cc
        return None if cc is None else cc.bucket(
            msg.src, port_id(self.topo.edge_link_of_endpoint(msg.dst), 1))

    def _run_injector(self, inj: Injector) -> None:
        out = self._port(inj.out_port)
        buffer = self._buffer
        quantum = self.config.chunk_quantum_bytes
        wake: float | None = None

        while True:
            # retry chunks first, in arrival order
            chunk = None
            if inj.retries:
                cand = inj.retries[0]
                if self._drop_resolved(cand):
                    inj.retries.pop(0)
                    continue
                bucket = self._throttle(cand.msg)
                t = None if bucket is None \
                    else bucket.wait(self.now, cand.length)
                if t is None:
                    if out.committed[0] + cand.length > buffer:
                        self._wait_on(out, inj)
                        break
                    chunk = inj.retries.pop(0)
                else:
                    wake = t if wake is None else min(wake, t)
            if chunk is None:
                msg, bucket, t = self._next_message(inj, out, buffer, quantum)
                if msg is None:
                    if t is not None:
                        wake = t if wake is None else min(wake, t)
                    break
                chunk = self._make_chunk(msg, quantum)
                if chunk is None:
                    continue  # no route: the chunk retries; try others
            # hand the chunk to the edge-out port, charging the throttle it
            # was checked against
            if bucket is not None:
                bucket.tokens -= chunk.length
            out.committed[0] += chunk.length
            out.occ += chunk.length
            self.active_ports[out.id] = out
            out.enqueue(chunk, chunk.msg.traffic_class, 0)
            if out.busy is None:
                self._kick_port(out)

        if wake is not None and wake < inj.wake_at:
            inj.wake_at = wake
            self._push(wake, K_WAKEINJ, inj)

    def _next_message(self, inj: Injector, out: Port, buffer: int, quantum: int):
        """``(msg, bucket, None)``: the next releasable message in round-robin
        order and the throttle it passed (None without one).  Else
        ``(None, None, wake)``: ``wake`` is the earliest unblock time when
        everything is throttle-blocked, None when idle or waiting for
        credit."""
        n = len(inj.active)
        earliest: float | None = None
        for i in range(n):
            msg = inj.active[(inj.rr + i) % n]
            if msg.done or msg.released >= msg.size:
                continue
            length = min(quantum, msg.size - msg.released)
            bucket = self._throttle(msg)
            t = None if bucket is None else bucket.wait(self.now, length)
            if t is not None:
                earliest = t if earliest is None else min(earliest, t)
                continue
            if out.committed[0] + length > buffer:
                self._wait_on(out, inj)
                return None, None, None
            inj.rr = (inj.rr + i) % n
            return msg, bucket, None
        inj.active = [m for m in inj.active
                      if not (m.done or m.released >= m.size)]
        inj.rr = 0
        return None, None, earliest

    def _make_chunk(self, msg: Message, quantum: int) -> Chunk | None:
        """Cut ``msg``'s next chunk and route it; None when it found no
        route and waits to retry."""
        length = min(quantum, msg.size - msg.released)
        chunk = Chunk(msg, length)
        msg.released += length
        self.injected_bytes += length
        return chunk if self._route(chunk) else None

    def _route(self, chunk: Chunk) -> bool:
        """Give ``chunk`` a fresh path from its source: its message's path,
        built again only when the router picks a route other than the one
        that path was built for.  Without a route, its message stops
        releasing chunks and the chunk retries later, counting a timeout on
        the source edge link."""
        msg = chunk.msg
        try:
            route = self.router.select_route(
                msg.src, msg.dst, msg.traffic_class, msg.ordered, self.view)
        except NoRouteError:
            active = self.injectors[msg.src].active
            if msg in active:
                active.remove(msg)
            self._retry_later(chunk, self.topo.edge_link_of_endpoint(msg.src))
            return False
        if route is not msg.route:
            msg.route = route
            msg.path = (self.injectors[msg.src].out_port, *route,
                        port_id(self.topo.edge_link_of_endpoint(msg.dst), 1))
        chunk.path = msg.path
        chunk.hop = 0
        return True

    # -- port service ----------------------------------------------------------------

    def _kick_port(self, port: Port) -> None:
        if port.busy is not None:
            return
        rate = port.rate
        if not rate:
            return
        blocked = self._blocked
        chunk, wake = arbitrate(port, self.now, rate, self._can_send)
        if chunk is not None:
            blocked.clear()
            self._start_tx(port, chunk, rate)
            return
        for q in blocked:
            self._wait_on(q, port)
        blocked.clear()
        if wake is not None and wake < port.wake_at:
            port.wake_at = wake
            self._push(wake, K_WAKEPORT, port)

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
            q = self.ports[chunk.path[nxt]]  # made by _can_send
            q.committed[nxt] += chunk.length
            q.occ += chunk.length
            self.active_ports[q.id] = q
        if self.link_gen:  # else no link has flapped: every generation is 0
            chunk.tx_gen = self.link_gen.get(port.link_id, 0)
        port.busy = chunk
        self._push(self.now + chunk.length / rate, K_TX, port)

    def _on_txdone(self, port: Port) -> None:
        chunk = port.busy
        port.busy = None
        link_id = port.link_id
        port.committed[chunk.hop] -= chunk.length
        port.occ -= chunk.length
        if port.occ <= 0:  # queued bytes are reserved, so none is queued
            self.active_ports.pop(port.id, None)
        if port.waiters:
            self._wake_waiters(port)

        # the link went down during the transmission (a port of rate 0
        # starts none, and the fault that zeroes it bumps the generation)
        if self.link_gen and self.link_gen.get(link_id, 0) != chunk.tx_gen:
            self._lose_chunk(chunk, chunk.hop + 1, link_id)
        else:
            self._push(self.now + port.delay, K_ARRIVE, chunk)
        self._kick_port(port)

    @staticmethod
    def _wait_on(port: Port, waiter) -> None:
        """Queue ``waiter`` (a Port or an Injector) for ``port``'s credit."""
        if port.waiters is None:
            port.waiters = {}
        port.waiters[waiter] = None

    def _wake_waiters(self, port: Port) -> None:
        waiters = port.waiters
        if not waiters:
            return
        port.waiters = None
        push, now = self._push, self.now
        for w in waiters:
            push(now, K_WAKEINJ if isinstance(w, Injector) else K_WAKEPORT, w)

    def _on_arrive(self, chunk: Chunk) -> None:
        path = chunk.path
        if self.link_gen:
            link_id = self.ports[path[chunk.hop]].link_id
            if self.link_gen.get(link_id, 0) != chunk.tx_gen:
                self._lose_chunk(chunk, chunk.hop + 1, link_id)
                return
        hop = chunk.hop = chunk.hop + 1
        if hop >= len(path):
            self._deliver(chunk)
            return
        port = self.ports[path[hop]]  # the chunk's credit keeps it active
        if not port.rate:
            # next link died while the chunk was in flight toward it
            self._lose_chunk(chunk, hop, port.link_id)
            return
        port.enqueue(chunk, chunk.msg.traffic_class, hop)
        if port.watch is not None:
            port.watch.contributors[chunk.msg.src] = self.now
        if port.busy is None:
            self._kick_port(port)

    def _deliver(self, chunk: Chunk) -> None:
        msg = chunk.msg
        msg.delivered += chunk.length
        self.delivered_bytes += chunk.length
        if not msg.done and msg.delivered >= msg.size:
            msg.completion_time = self.now
            self._resolve(msg)

    # -- loss, retry, faults ------------------------------------------------------------

    def _note_timeout(self, msg: Message, link_id: int) -> None:
        link = self.topo.links[link_id]
        node = self.topo.node_of_endpoint(link.endpoint) if link.kind == EDGE else -1
        self.timeout_events.append(
            TimeoutEvent(self.now, link_id, link.kind, node, msg.id))

    def _lose_chunk(self, chunk: Chunk, vc: int, link_id: int) -> None:
        """``chunk`` was lost on ``link_id``: hand back its reservation in
        pool ``vc`` of the port at ``chunk.path[vc]`` (none when ``vc`` is
        past the path's end), wake that port's waiters and retry the chunk
        or fail its message (``_retry_later``)."""
        path = chunk.path
        if vc < len(path):
            port = self.ports[path[vc]]
            port.committed[vc] -= chunk.length
            port.occ -= chunk.length
            self._wake_waiters(port)
        self._retry_later(chunk, link_id)

    def _retry_later(self, chunk: Chunk, link_id: int) -> None:
        """Count a timeout for ``chunk`` on ``link_id`` and schedule its
        retry, or fail its message once the chunk has retried
        ``MAX_RETRIES`` times."""
        msg = chunk.msg
        self._note_timeout(msg, link_id)
        if self._drop_resolved(chunk):
            return
        chunk.retries += 1
        if chunk.retries > MAX_RETRIES:
            self.failed_bytes += chunk.length
            self._fail(msg)
        else:
            self._push(self.now + RETRY_TIMEOUT_S, K_RETRY, chunk)

    def _drop_resolved(self, chunk: Chunk) -> bool:
        """Whether ``chunk``'s message is already resolved, so the chunk is
        dropped; its bytes count as failed when the message failed."""
        msg = chunk.msg
        if msg.failed:
            self.failed_bytes += chunk.length
        return msg.done

    def _on_retry(self, chunk: Chunk) -> None:
        if self._drop_resolved(chunk) or not self._route(chunk):
            return
        msg = chunk.msg
        inj = self.injectors[msg.src]
        inj.retries.append(chunk)
        if msg.released < msg.size and msg not in inj.active:
            inj.active.append(msg)  # it has a route again
        self._run_injector(inj)

    def _on_fault(self, link_id: int, action: str, duration: float) -> None:
        self._pending_faults -= 1
        self.overlay.set_link_state(link_id, status=action)
        ports = [port for d in (0, 1)
                 if (port := self.ports.get(port_id(link_id, d))) is not None]
        for port in ports:
            self._read_rate(port)
        if action == "down":
            link = self.topo.links[link_id]
            self.link_gen[link_id] = self.link_gen.get(link_id, 0) + 1
            node = self.topo.node_of_endpoint(link.endpoint) \
                if link.kind == EDGE else -1
            self.flap_events.append(
                FlapEvent(link_id, link.kind, node, self.now, duration))
            for port in ports:
                self._flush_port(port)
        else:
            for port in ports:
                self._kick_port(port)

    def _flush_port(self, port: Port) -> None:
        """Lose every chunk ``port`` drains and wake its waiters."""
        for chunk in port.drain():
            self._lose_chunk(chunk, chunk.hop, port.link_id)
        self._wake_waiters(port)

    # -- ticks ------------------------------------------------------------------------

    def _on_tick(self) -> None:
        self.view = CongestionView({
            pid: float(port.occ) for pid, port in self.active_ports.items()
            if port.occ > 0})
        if self.cc is not None:
            for src in self.cc.update(self.now):
                self._push(self.now, K_WAKEINJ, self.injectors[src])

    # -- series & report ------------------------------------------------------------------

    def _on_series(self, t: float, interval: float) -> None:
        delta = self.delivered_bytes - self._series_last_bytes
        self._series_last_bytes = self.delivered_bytes
        inflight = self.injected_bytes - self.delivered_bytes - self.failed_bytes
        self.series.append((t, delta / interval, inflight,
                            len(self.timeout_events)))

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
        per_endpoint: dict[int, int] = {}
        for m in self.messages:
            if m.delivered:
                per_endpoint[m.dst] = per_endpoint.get(m.dst, 0) + m.delivered
        return SimReport(
            seed=self.config.seed,
            duration=self.now,
            messages=records,
            per_endpoint_delivered=dict(sorted(per_endpoint.items())),
            series=list(self.series),
            timeout_events=list(self.timeout_events),
            flap_events=list(self.flap_events),
            injected_bytes=self.injected_bytes,
            delivered_bytes=self.delivered_bytes,
            failed_bytes=self.failed_bytes,
        )

