"""Frozen reference copy of ``PortState`` and ``arbitrate`` as they stood
before the arbitration hot path was rewritten (closures, per-call sorts of
the VC keys, a refill pass over every class).  ``test_qos_differential``
drives this copy and the live implementation side by side; do not edit it
to follow later changes of ``slingsim.qos``.
"""

from __future__ import annotations

from collections import deque

from slingsim.qos import validate_profile

_WEIGHT_FLOOR = 0.02  # zero-minimum classes still get leftover bandwidth


class PortState:
    """Queues, deficits and rate-cap state for one directed port."""

    __slots__ = (
        "configs", "order", "weights", "quanta", "deficit", "queues",
        "queued_bytes", "cap_rate_frac", "cap_tokens", "cap_last",
        "budget", "window", "window_end", "rr", "chunk_quantum",
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
        self.queued_bytes = {c: 0 for c in self.order}
        self.cap_rate_frac = {
            c: (self.configs[c].max_bw_fraction
                if self.configs[c].max_bw_fraction < 0.999 else None)
            for c in self.order}
        self.cap_tokens = {c: float(chunk_quantum) for c in self.order}
        self.cap_last = {c: 0.0 for c in self.order}
        self.budget = {c: 0.0 for c in self.order}
        self.window = window
        self.window_end = window
        self.rr = 0
        self.chunk_quantum = chunk_quantum

    def enqueue(self, chunk, traffic_class: int, vc: int) -> None:
        if traffic_class not in self.configs:
            raise QosError(f"unknown traffic class {traffic_class}")
        key = (traffic_class, vc)
        q = self.queues.get(key)
        if q is None:
            q = self.queues[key] = deque()
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

    def _refill(self, now: float, rate: float) -> None:
        for c in self.order:
            frac = self.cap_rate_frac[c]
            if frac is None:
                continue
            dt = now - self.cap_last[c]
            if dt > 0:
                self.cap_tokens[c] = min(
                    float(self.chunk_quantum),
                    self.cap_tokens[c] + dt * frac * rate)
                self.cap_last[c] = now

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
    if not any(state.queued_bytes.values()):
        return None, None
    state._refill(now, rate)
    state._roll_window(now, rate)

    wake: float | None = None

    def eligible_head(c: int):
        """Cheapest servable head among c's vc queues, lowest vc first."""
        nonlocal wake
        best_key = None
        for key in sorted(k for k in state.queues if k[0] == c and state.queues[k]):
            head = state.queues[key][0]
            frac = state.cap_rate_frac[c]
            if frac is not None and state.cap_tokens[c] < head.length:
                need = (head.length - state.cap_tokens[c]) / (frac * rate)
                t = now + need
                if wake is None or t < wake:
                    wake = t
                continue
            if can_send is not None and not can_send(head):
                continue
            best_key = key
            break
        return best_key

    candidates: dict[int, tuple[int, int]] = {}
    for c in state.order:
        if state.queued_bytes[c] == 0:
            continue
        key = eligible_head(c)
        if key is not None:
            candidates[c] = key
    if not candidates:
        return None, wake

    def serve(c: int, via_priority: bool):
        key = candidates[c]
        chunk = state.queues[key].popleft()
        state.queued_bytes[c] -= chunk.length
        state.deficit[c] -= chunk.length
        if via_priority:
            state.budget[c] -= chunk.length
        if state.queued_bytes[c] == 0:
            state.deficit[c] = 0.0
        frac = state.cap_rate_frac[c]
        if frac is not None:
            state.cap_tokens[c] -= chunk.length
        return chunk, None

    # priority expedite: a budgeted, entitled class strictly above every
    # other candidate goes first
    entitled = [c for c in candidates
                if state.deficit[c] >= state.queues[candidates[c]][0].length]
    if entitled:
        budgeted = [c for c in entitled if state.budget[c] > 0]
        if budgeted:
            top = max(budgeted, key=lambda c: (state.configs[c].priority, -c))
            if all(state.configs[top].priority > state.configs[d].priority
                   for d in candidates if d != top):
                return serve(top, True)
        # otherwise rotor order among entitled classes
        n = len(state.order)
        for i in range(n):
            c = state.order[(state.rr + i) % n]
            if c in entitled:
                state.rr = (state.rr + i) % n
                return serve(c, False)

    # nobody entitled: walk the rotor granting quanta until someone is
    n = len(state.order)
    cap = n * int(max(state.quanta.values()) / min(state.quanta.values()) + 2)
    for _ in range(cap):
        state.rr = (state.rr + 1) % n
        c = state.order[state.rr]
        if state.queued_bytes[c] == 0:
            continue
        limit = state.quanta[c] + max(
            (state.queues[k][0].length for k in state.queues
             if k[0] == c and state.queues[k]), default=0)
        state.deficit[c] = min(state.deficit[c] + state.quanta[c], limit)
        if c in candidates and \
                state.deficit[c] >= state.queues[candidates[c]][0].length:
            return serve(c, False)
    return None, wake
