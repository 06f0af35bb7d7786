"""Traffic classes and per-port arbitration.

Each directed port keeps one lane per traffic class that has queued on it:
the class's deficit, backlog and priority budget, one FIFO per virtual
channel it used, and a rate-cap bucket if the class is capped.  A class
that never queued on a port costs that port nothing.  Arbitration is
deficit round robin weighted by the class minimum-bandwidth fraction, so
backlogged classes converge to their configured shares and idle minimums
are redistributed.  Two refinements sit on top:

* a token bucket per capped class holds service to ``max_bw_fraction`` of
  the port rate with at most one chunk of burst, so no window of length W
  ever carries more than ``max_bw_fraction * rate * W`` plus one quantum;
* classes holding unspent priority budget are expedited ahead of
  strictly-lower-priority classes.  Expedited service is still charged to
  the class deficit, so priorities reorder service within each class's
  entitled share instead of inflating it, and the per-window budget bounds
  how long a class can ride its priority.

``TokenBucket`` is the simulator's one token bucket; the injection throttles
of ``cc`` use it too.  No bucket asks to be woken at the instant it is read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass


class QosError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class TrafficClassConfig:
    class_id: int
    name: str
    min_bw_fraction: float
    max_bw_fraction: float
    priority: int

    def validate(self) -> None:
        if not 0.0 <= self.min_bw_fraction <= self.max_bw_fraction <= 1.0:
            raise QosError(
                f"class {self.name}: need 0 <= min <= max <= 1, got "
                f"{self.min_bw_fraction}/{self.max_bw_fraction}")


LOW_LATENCY = 0
BULK_DATA = 1
BEST_EFFORT = 2
ETHERNET = 3


def default_profile() -> tuple[TrafficClassConfig, ...]:
    """The LlBeBdEt-style default: three HPC classes plus Ethernet.

    Benchmarks use only HPC best effort unless told otherwise; the others
    exist so QoS experiments can be configured without redefining classes.
    """
    return (
        TrafficClassConfig(LOW_LATENCY, "hpc_low_latency", 0.15, 1.0, 2),
        TrafficClassConfig(BULK_DATA, "hpc_bulk_data", 0.30, 1.0, 1),
        TrafficClassConfig(BEST_EFFORT, "hpc_best_effort", 0.50, 1.0, 0),
        TrafficClassConfig(ETHERNET, "ethernet", 0.05, 0.30, 0),
    )


def validate_profile(configs) -> dict[int, TrafficClassConfig]:
    by_id: dict[int, TrafficClassConfig] = {}
    total_min = 0.0
    for cfg in configs:
        cfg.validate()
        if cfg.class_id in by_id:
            raise QosError(f"duplicate class id {cfg.class_id}")
        by_id[cfg.class_id] = cfg
        total_min += cfg.min_bw_fraction
    if total_min > 1.0 + 1e-9:
        raise QosError(f"sum of min_bw_fraction is {total_min}, must be <= 1")
    if not by_id:
        raise QosError("at least one traffic class is required")
    return by_id


class TokenBucket:
    """Tokens accruing at ``rate * scale`` per second, up to ``burst`` (one
    chunk).  A throttle's rate is absolute (scale 1.0); a rate cap's rate is
    its fraction of the port rate, scaled by the port's rate at each call."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = now

    def refill(self, now: float, scale: float = 1.0) -> None:
        dt = now - self.last
        if dt > 0:
            tokens = self.tokens + dt * self.rate * scale
            self.tokens = tokens if tokens < self.burst else self.burst
            self.last = now

    def wait(self, now: float, need: float, scale: float = 1.0) -> float | None:
        """Refill to ``now``; return None when ``need`` tokens are there,
        else the time they will be.  A shortfall too small to move the clock
        counts as paid: waking at ``now`` would find the same tokens and
        wake at ``now`` again, forever."""
        self.refill(now, scale)
        if self.tokens >= need:
            return None
        wake = now + (need - self.tokens) / (self.rate * scale)
        return wake if wake > now else None


_WEIGHT_FLOOR = 0.02  # zero-minimum classes still get leftover bandwidth


class ClassProfile:
    """The class setup every port of one engine shares: the validated
    configs, the rotor order, the DRR quanta, the rate caps, the chunk
    quantum, the QoS window and the rotor walk limit.

    ``capped`` maps each class with a rate cap to its cap fraction.
    """

    __slots__ = ("configs", "order", "quanta", "capped", "chunk_quantum",
                 "window", "walk_limit")

    def __init__(self, class_configs, chunk_quantum: int, window: float):
        self.configs = validate_profile(class_configs)
        self.order = sorted(self.configs)  # class ids, deterministic rotor order
        weights = {c: max(self.configs[c].min_bw_fraction, _WEIGHT_FLOOR)
                   for c in self.order}
        wmin = min(weights.values())
        # smallest weight affords one chunk per rotor round
        self.quanta = {c: weights[c] * chunk_quantum / wmin for c in self.order}
        self.capped = {c: self.configs[c].max_bw_fraction for c in self.order
                       if self.configs[c].max_bw_fraction < 0.999}
        self.chunk_quantum = chunk_quantum
        self.window = window
        # rotor steps after which a walk granting quanta gives up
        self.walk_limit = len(self.order) * int(
            max(self.quanta.values()) / min(self.quanta.values()) + 2)


class Lane:
    """One traffic class's share of a port, made when the class first
    queues there.

    ``deficit`` is its DRR deficit, ``queued`` its backlog in bytes and
    ``budget`` its priority budget left in the QoS window.  ``queues`` holds
    its FIFOs for the VCs in ``vcs``, both tuples in VC order.  A FIFO is a
    plain list: it holds only chunks its credit pool admitted (at most
    eight full chunks), so ``pop(0)`` is cheap, and an empty list takes 56 B
    where an empty deque takes 760 B.
    ``cap`` is its rate-cap ``TokenBucket``, None when the class is
    uncapped.  ``pos`` is the class's place in the rotor, ``profile.order``.
    """

    __slots__ = ("class_id", "pos", "deficit", "queued", "budget", "vcs",
                 "queues", "cap")

    def __init__(self, class_id: int, pos: int, budget: float,
                 cap: TokenBucket | None):
        self.class_id = class_id
        self.pos = pos
        self.deficit = 0.0
        self.queued = 0
        self.budget = budget
        self.vcs: tuple[int, ...] = ()
        self.queues: tuple[list, ...] = ()
        self.cap = cap


class PortState:
    """Arbitration state of one directed port.

    ``lanes`` holds one :class:`Lane` per class that has ever queued on
    this port, in class order: the order arbitration scans heads in.  A
    class without a lane has the state an untouched class would have: no
    backlog, a zero deficit, the budget of the last window roll and, if
    capped, a full cap bucket.  So a lane made in mid-window starts with
    the budget the last roll gave every class (``window_rate`` keeps that
    roll's port rate, 0.0 before the first roll), and a cap bucket made at
    the first enqueue holds the full burst a bucket never drained holds.
    ``solo`` is the lane when it is the only one and has no rate cap, else
    None.  ``rr`` is the rotor position in ``profile.order``, which lists
    every class of the profile.  Everything that is the same for every port
    lives in the shared ``profile``.
    """

    __slots__ = ("profile", "lanes", "solo", "window_end", "window_rate",
                 "rr")

    def __init__(self, profile: ClassProfile):
        self.profile = profile
        self.lanes: tuple[Lane, ...] = ()
        self.solo: Lane | None = None
        self.window_end = profile.window
        self.window_rate = 0.0
        self.rr = 0

    def lane(self, traffic_class: int) -> Lane | None:
        for lane in self.lanes:
            if lane.class_id == traffic_class:
                return lane
        return None

    def _join(self, traffic_class: int) -> Lane:
        profile = self.profile
        config = profile.configs.get(traffic_class)
        if config is None:
            raise QosError(f"unknown traffic class {traffic_class}")
        frac = profile.capped.get(traffic_class)
        lane = Lane(
            traffic_class, profile.order.index(traffic_class),
            config.min_bw_fraction * self.window_rate * profile.window,
            None if frac is None
            else TokenBucket(frac, float(profile.chunk_quantum)))
        self.lanes = tuple(sorted((*self.lanes, lane),
                                  key=lambda lane: lane.pos))
        self.solo = lane if len(self.lanes) == 1 and frac is None else None
        return lane

    def enqueue(self, chunk, traffic_class: int, vc: int) -> None:
        lane = self.lane(traffic_class) or self._join(traffic_class)
        vcs = lane.vcs
        if vc in vcs:
            q = lane.queues[vcs.index(vc)]
        else:
            i = bisect_left(vcs, vc)
            q = []
            lane.vcs = (*vcs[:i], vc, *vcs[i:])
            lane.queues = (*lane.queues[:i], q, *lane.queues[i:])
        if not lane.queued:
            # joining the rotor: grant one quantum so fresh low-latency
            # traffic is entitled immediately
            lane.deficit = self.profile.quanta[traffic_class]
        q.append(chunk)
        lane.queued += chunk.length

    def drain(self):
        """Pop and yield every chunk queued in the lanes of its start, lane
        by lane and VC by VC, then zero the deficit of each empty lane."""
        for lane in self.lanes:
            for q in lane.queues:
                while q:
                    chunk = q.pop(0)
                    lane.queued -= chunk.length
                    yield chunk
        for lane in self.lanes:
            if not lane.queued:
                lane.deficit = 0.0

    def _roll_window(self, now: float, rate: float) -> None:
        if now >= self.window_end:
            profile = self.profile
            window = profile.window
            periods = int((now - self.window_end) / window) + 1
            self.window_end += periods * window
            self.window_rate = rate
            configs = profile.configs
            for lane in self.lanes:
                lane.budget = (configs[lane.class_id].min_bw_fraction
                               * rate * window)


def arbitrate(state: PortState, now: float, rate: float, can_send=None):
    """Pick the next chunk to transmit from ``state``, or idle.

    ``can_send(chunk)`` gates heads on downstream credit; blocked heads are
    skipped without stalling other queues.  Returns ``(chunk, None)`` on a
    pick, or ``(None, wake_time)`` where ``wake_time`` is the earliest
    instant a rate-capped class becomes eligible again (None when arbitration
    is blocked purely on credits or empty queues).

    A port whose only lane is uncapped (``state.solo``) has one candidate at
    most, so an entitled head is served at once with the updates the full
    path would make; a head short of deficit joins the shared rotor walk.
    """
    solo = state.solo
    if solo is None:
        lanes = state.lanes
        for lane in lanes:
            if lane.queued:
                break
        else:
            return None, None
        for lane in lanes:
            if lane.cap is not None:
                lane.cap.refill(now, rate)
    elif not solo.queued:
        return None, None
    profile = state.profile
    if now >= state.window_end:
        state._roll_window(now, rate)

    wake: float | None = None
    if solo is not None:
        for q in solo.queues:
            if q and (can_send is None or can_send(q[0])):
                break
        else:
            return None, None
        length = q[0].length
        if solo.deficit >= length:
            chunk = q.pop(0)
            left = solo.queued = solo.queued - length
            solo.deficit = solo.deficit - length if left else 0.0
            if solo.budget > 0:  # expedited: the only candidate
                solo.budget -= length
            else:
                state.rr = solo.pos
            return chunk, None
        candidates = {solo: q}
    else:
        # per lane with backlog, the lowest-VC head that is within its rate
        # cap and has downstream credit
        candidates = {}
        for lane in lanes:
            if not lane.queued:
                continue
            cap = lane.cap
            for q in lane.queues:
                if not q:
                    continue
                head = q[0]
                t = cap.wait(now, head.length, rate) if cap else None
                if t is not None:
                    if wake is None or t < wake:
                        wake = t
                    continue
                if can_send is not None and not can_send(head):
                    continue
                candidates[lane] = q
                break
        if not candidates:
            return None, wake

    n = len(profile.order)
    entitled = [lane for lane, q in candidates.items()
                if lane.deficit >= q[0].length]
    pick = None
    via_priority = False
    if entitled:
        # priority expedite: the budgeted, entitled class of highest
        # priority (lowest id on ties) goes first when its priority is
        # strictly above every other candidate's
        configs = profile.configs
        top = None
        top_priority = 0
        for lane in entitled:
            priority = configs[lane.class_id].priority
            if lane.budget > 0 and (top is None or priority > top_priority):
                top, top_priority = lane, priority
        if top is not None:
            for other in candidates:
                if other is not top \
                        and configs[other.class_id].priority >= top_priority:
                    break
            else:
                pick, via_priority = top, True
        if pick is None:
            # otherwise the first entitled class in rotor order
            rr = state.rr
            steps = n
            for lane in entitled:
                i = (lane.pos - rr) % n
                if i < steps:
                    steps, pick = i, lane
            state.rr = pick.pos
    else:
        # nobody entitled: walk the rotor granting quanta until someone is
        rr = state.rr
        lanes = state.lanes
        for _ in range(profile.walk_limit):
            rr = (rr + 1) % n
            for lane in lanes:
                if lane.pos == rr:
                    break
            else:
                continue  # a class that never queued here
            if not lane.queued:
                continue
            longest = 0
            for q in lane.queues:
                if q and q[0].length > longest:
                    longest = q[0].length
            quantum = profile.quanta[lane.class_id]
            lane.deficit = min(lane.deficit + quantum, quantum + longest)
            q = candidates.get(lane)
            if q is not None and lane.deficit >= q[0].length:
                pick = lane
                break
        else:
            state.rr = rr
            return None, wake
        state.rr = rr

    # serve the head of the picked lane
    chunk = candidates[pick].pop(0)
    length = chunk.length
    left = pick.queued = pick.queued - length
    pick.deficit = pick.deficit - length if left else 0.0
    if via_priority:
        pick.budget -= length
    if pick.cap is not None:
        pick.cap.tokens -= length
    return chunk, None
