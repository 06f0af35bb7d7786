"""Traffic classes and per-port arbitration.

Each directed port keeps one FIFO per (traffic class, virtual channel).
Arbitration is deficit round robin weighted by the class minimum-bandwidth
fraction, so backlogged classes converge to their configured shares and idle
minimums are redistributed.  Two refinements sit on top:

* a token bucket per class caps long-run service at ``max_bw_fraction`` of
  the port rate with at most one chunk of burst, so no window of length W
  ever carries more than ``max_bw_fraction * rate * W`` plus one quantum;
* classes holding unspent priority budget are expedited ahead of
  strictly-lower-priority classes.  Expedited service is still charged to
  the class deficit, so priorities reorder service within each class's
  entitled share instead of inflating it, and the per-window budget bounds
  how long a class can ride its priority.
"""

from __future__ import annotations

from collections import deque
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


_WEIGHT_FLOOR = 0.02  # zero-minimum classes still get leftover bandwidth


class PortState:
    """Queues, deficits and rate-cap state for one directed port.

    ``vc_queues`` maps each class that has queues, in class order, to its
    queues in VC order: the order arbitration scans heads in.  ``capped``
    lists the classes with a rate cap.
    """

    __slots__ = (
        "configs", "order", "weights", "quanta", "deficit", "queues",
        "vc_queues", "queued_bytes", "cap_rate_frac", "capped",
        "cap_tokens", "cap_last", "budget", "window", "window_end", "rr",
        "chunk_quantum", "walk_limit",
    )

    def __init__(self, class_configs, chunk_quantum: int, window: float):
        self.configs = validate_profile(class_configs)
        self.order = sorted(self.configs)  # class ids, deterministic rotor order
        self.weights = {c: max(self.configs[c].min_bw_fraction, _WEIGHT_FLOOR)
                        for c in self.order}
        wmin = min(self.weights.values())
        # smallest weight affords one chunk per rotor round
        self.quanta = {c: self.weights[c] * chunk_quantum / wmin
                       for c in self.order}
        self.deficit = {c: 0.0 for c in self.order}
        self.queues: dict[tuple[int, int], deque] = {}  # (class, vc) -> chunks
        self.vc_queues: dict[int, list[deque]] = {}
        self.queued_bytes = {c: 0 for c in self.order}
        self.cap_rate_frac = {
            c: (self.configs[c].max_bw_fraction
                if self.configs[c].max_bw_fraction < 0.999 else None)
            for c in self.order}
        self.capped = tuple(c for c in self.order
                            if self.cap_rate_frac[c] is not None)
        self.cap_tokens = {c: float(chunk_quantum) for c in self.order}
        self.cap_last = {c: 0.0 for c in self.order}
        self.budget = {c: 0.0 for c in self.order}
        self.window = window
        self.window_end = window
        self.rr = 0
        self.chunk_quantum = chunk_quantum
        # rotor steps after which a walk granting quanta gives up
        self.walk_limit = len(self.order) * int(
            max(self.quanta.values()) / min(self.quanta.values()) + 2)

    def enqueue(self, chunk, traffic_class: int, vc: int) -> None:
        if traffic_class not in self.configs:
            raise QosError(f"unknown traffic class {traffic_class}")
        key = (traffic_class, vc)
        q = self.queues.get(key)
        if q is None:
            q = self.queues[key] = deque()
            self.vc_queues = {}
            for c, v in sorted(self.queues):
                self.vc_queues.setdefault(c, []).append(self.queues[(c, v)])
        if self.queued_bytes[traffic_class] == 0:
            # joining the rotor: grant one quantum so fresh low-latency
            # traffic is entitled immediately
            self.deficit[traffic_class] = self.quanta[traffic_class]
        q.append(chunk)
        self.queued_bytes[traffic_class] += chunk.length

    def backlog(self) -> int:
        return sum(self.queued_bytes.values())

    def occupancy(self, traffic_class: int) -> int:
        return self.queued_bytes[traffic_class]

    def _roll_window(self, now: float, rate: float) -> None:
        if now >= self.window_end:
            periods = int((now - self.window_end) / self.window) + 1
            self.window_end += periods * self.window
            for c in self.order:
                self.budget[c] = (self.configs[c].min_bw_fraction
                                  * rate * self.window)


def arbitrate(state: PortState, now: float, rate: float, can_send=None):
    """Pick the next chunk to transmit from ``state``, or idle.

    ``can_send(chunk)`` gates heads on downstream credit; blocked heads are
    skipped without stalling other queues.  Returns ``(chunk, None)`` on a
    pick, or ``(None, wake_time)`` where ``wake_time`` is the earliest
    instant a rate-capped class becomes eligible again (None when arbitration
    is blocked purely on credits or empty queues).
    """
    queued = state.queued_bytes
    if not any(queued.values()):
        return None, None
    cap_tokens = state.cap_tokens
    for c in state.capped:  # refill the rate-cap token buckets
        dt = now - state.cap_last[c]
        if dt > 0:
            tokens = cap_tokens[c] + dt * state.cap_rate_frac[c] * rate
            full = float(state.chunk_quantum)
            cap_tokens[c] = tokens if tokens < full else full
            state.cap_last[c] = now
    if now >= state.window_end:
        state._roll_window(now, rate)

    # per class with backlog, the lowest-VC head that is within its rate cap
    # and has downstream credit
    wake: float | None = None
    candidates: dict[int, deque] = {}
    for c, lanes in state.vc_queues.items():
        if not queued[c]:
            continue
        frac = state.cap_rate_frac[c]
        for q in lanes:
            if not q:
                continue
            head = q[0]
            if frac is not None and cap_tokens[c] < head.length:
                t = now + (head.length - cap_tokens[c]) / (frac * rate)
                if wake is None or t < wake:
                    wake = t
                continue
            if can_send is not None and not can_send(head):
                continue
            candidates[c] = q
            break
    if not candidates:
        return None, wake

    deficit = state.deficit
    order = state.order
    n = len(order)
    entitled = []
    for c, q in candidates.items():
        if deficit[c] >= q[0].length:
            entitled.append(c)
    pick = None
    via_priority = False
    if entitled:
        # priority expedite: the budgeted, entitled class of highest
        # priority (lowest id on ties) goes first when its priority is
        # strictly above every other candidate's
        configs, budget = state.configs, state.budget
        top = None
        top_priority = 0
        for c in entitled:
            if budget[c] > 0 and (
                    top is None or configs[c].priority > top_priority):
                top, top_priority = c, configs[c].priority
        if top is not None:
            for d in candidates:
                if d != top and configs[d].priority >= top_priority:
                    break
            else:
                pick, via_priority = top, True
        if pick is None:
            # otherwise rotor order among entitled classes
            rr = state.rr
            for i in range(n):
                c = order[(rr + i) % n]
                if c in entitled:
                    state.rr = (rr + i) % n
                    pick = c
                    break
    else:
        # nobody entitled: walk the rotor granting quanta until someone is
        for _ in range(state.walk_limit):
            state.rr = (state.rr + 1) % n
            c = order[state.rr]
            if not queued[c]:
                continue
            longest = 0
            for q in state.vc_queues[c]:
                if q and q[0].length > longest:
                    longest = q[0].length
            quantum = state.quanta[c]
            deficit[c] = min(deficit[c] + quantum, quantum + longest)
            q = candidates.get(c)
            if q is not None and deficit[c] >= q[0].length:
                pick = c
                break
        else:
            return None, wake

    # serve the head of the picked class
    chunk = candidates[pick].popleft()
    length = chunk.length
    left = queued[pick] = queued[pick] - length
    deficit[pick] = deficit[pick] - length if left else 0.0
    if via_priority:
        state.budget[pick] -= length
    if state.cap_rate_frac[pick] is not None:
        cap_tokens[pick] -= length
    return chunk, None
