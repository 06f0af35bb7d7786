"""Differential test of DRR arbitration against a frozen reference copy.

Engine runs give every message the schedule's one traffic class, so no
engine run reaches arbitration between several classes.  Here hypothesis
drives the live ``PortState``/``arbitrate`` and the reference copy in
``qos_reference`` with the default four-class profile (a rate-capped
Ethernet class, priorities 2/1/0, several VCs per class), random credit
refusals and time steps that cross QoS window rolls, and requires identical
picks, wake times, ``can_send`` call sequences and class state after every
call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import qos_reference as ref
from slingsim import qos
from slingsim.qos import default_profile

QUANTUM = 4096
WINDOW = 100e-6
RATE = 25e9


class Chunk:
    __slots__ = ("id", "length")

    def __init__(self, id: int, length: int):
        self.id = id
        self.length = length


enqueue_op = st.tuples(
    st.just("enqueue"),
    st.sampled_from([c.class_id for c in default_profile()]),
    st.integers(0, 3),  # vc
    # mostly full chunks, as the engine makes them
    st.one_of(st.just(QUANTUM), st.integers(0, QUANTUM)),
)
arbitrate_op = st.tuples(
    st.just("arbitrate"),
    # time step: none, about one chunk time, or past a window roll
    st.one_of(st.just(0.0), st.floats(0.0, 1e-6),
              st.floats(0.0, 2.5 * WINDOW)),
    st.integers(0, 2**16 - 1),  # bit k refuses the k-th can_send call
    st.booleans(),  # pass can_send at all
)


def credit_gate(refusals: int, calls: list):
    def can_send(chunk) -> bool:
        refused = bool(refusals >> len(calls) & 1)
        calls.append(chunk.id)
        return not refused
    return can_send


def class_state(state) -> tuple:
    return (state.deficit, state.budget, state.cap_tokens, state.rr,
            state.queued_bytes, state.cap_last, state.window_end)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(enqueue_op, arbitrate_op), min_size=40, max_size=250))
def test_arbitrate_matches_reference(ops):
    live = qos.PortState(default_profile(), QUANTUM, WINDOW)
    frozen = ref.PortState(default_profile(), QUANTUM, WINDOW)
    now = 0.0
    for n, op in enumerate(ops):
        if op[0] == "enqueue":
            _, tc, vc, length = op
            chunk = Chunk(n, length)
            live.enqueue(chunk, tc, vc)
            frozen.enqueue(chunk, tc, vc)
        else:
            _, dt, refusals, gated = op
            now += dt
            live_calls, frozen_calls = [], []
            got = qos.arbitrate(
                live, now, RATE,
                credit_gate(refusals, live_calls) if gated else None)
            want = ref.arbitrate(
                frozen, now, RATE,
                credit_gate(refusals, frozen_calls) if gated else None)
            assert got[0] is want[0]
            assert got[1] == want[1]
            assert live_calls == frozen_calls
        assert class_state(live) == class_state(frozen)
        assert live.backlog() == frozen.backlog()


def test_capped_class_reports_wake_time():
    """A rate-capped head beyond its tokens idles the port until the tokens
    suffice, in both implementations."""
    for impl in (qos, ref):
        state = impl.PortState(default_profile(), QUANTUM, WINDOW)
        state.enqueue(Chunk(0, QUANTUM), qos.ETHERNET, 0)
        state.enqueue(Chunk(1, QUANTUM), qos.ETHERNET, 0)
        first, _ = impl.arbitrate(state, 0.0, RATE)
        assert first.id == 0
        chunk, wake = impl.arbitrate(state, 0.0, RATE)
        assert chunk is None
        assert wake == QUANTUM / (0.30 * RATE)
