"""Differential test of DRR arbitration against a frozen reference copy.

Engine runs give every message the schedule's one traffic class, so no
engine run reaches arbitration between several classes.  Here hypothesis
drives the live ``PortState``/``arbitrate`` and the reference copy in
``qos_reference`` with the default four-class profile (a rate-capped
Ethernet class, priorities 2/1/0, several VCs per class), random credit
refusals and time steps that cross QoS window rolls, and requires identical
picks, wake times, ``can_send`` call sequences and class state after every
call.  Half the runs queue a single class only: each uncapped class then
takes the one-class fast path of ``arbitrate``, and Ethernet, being capped,
takes the full path.
"""

from itertools import count

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


CLASSES = [c.class_id for c in default_profile()]


def enqueue_op(classes):
    return st.tuples(
        st.just("enqueue"),
        st.sampled_from(classes),
        st.integers(0, 3),  # vc
        # mostly full chunks, as the engine makes them
        st.one_of(st.just(QUANTUM), st.integers(0, QUANTUM)),
        # a burst of chunks now and then, so backlogs outlast a quantum
        # (best effort's is ten full chunks)
        st.one_of(st.just(1), st.integers(1, 30)),
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


def bucket(tokens: float, last: float) -> tuple:
    """A cap bucket's tokens, and its refill time while it is below the
    burst: a refill leaves a full bucket full, so a full bucket's refill
    time cannot affect any later decision."""
    return tokens, last if tokens < QUANTUM else None


def class_state(state) -> tuple:
    """Per class in class order: deficit, budget, backlog and, for a capped
    class, its cap bucket; then the rotor and the window end.

    This is a projection of the live lanes onto the reference's view of
    every class, not a weaker comparison.  The live state has a lane only
    for a class that has queued; a class without one reads as the values
    the reference holds for a class that never queued: a zero deficit and
    backlog, the budget of the last window roll and a full cap bucket.  The
    reference keeps a cap entry for every class, and those of uncapped
    classes must never move."""
    rows = []
    if isinstance(state, ref.PortState):
        for c in state.order:
            if state.cap_rate_frac[c] is None:
                assert (state.cap_tokens[c], state.cap_last[c]) == \
                    (QUANTUM, 0.0)
                cap = None
            else:
                cap = bucket(state.cap_tokens[c], state.cap_last[c])
            rows.append((c, state.deficit[c], state.budget[c],
                         state.queued_bytes[c], cap))
    else:
        profile = state.profile
        for c in profile.order:
            lane = state.lane(c)
            if lane is None:
                budget = (profile.configs[c].min_bw_fraction
                          * state.window_rate * profile.window)
                cap = (QUANTUM, None) if c in profile.capped else None
                rows.append((c, 0.0, budget, 0, cap))
            else:
                cap = lane.cap and bucket(lane.cap.tokens, lane.cap.last)
                rows.append((c, lane.deficit, lane.budget, lane.queued, cap))
    return tuple(rows), state.rr, state.window_end


# all four classes, or one alone
class_pools = st.one_of(st.just(CLASSES), st.sampled_from(CLASSES).map(
    lambda c: [c]))


@settings(max_examples=200, deadline=None)
@given(class_pools.flatmap(lambda classes: st.lists(
    st.one_of(enqueue_op(classes), arbitrate_op), min_size=40, max_size=250)))
def test_arbitrate_matches_reference(ops):
    live = qos.PortState(qos.ClassProfile(default_profile(), QUANTUM, WINDOW))
    frozen = ref.PortState(default_profile(), QUANTUM, WINDOW)
    now = 0.0
    ids = count()
    for op in ops:
        if op[0] == "enqueue":
            _, tc, vc, length, burst = op
            for _ in range(burst):
                chunk = Chunk(next(ids), length)
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
        assert sum(lane.queued for lane in live.lanes) == frozen.backlog()


def test_capped_class_reports_wake_time():
    """A rate-capped head beyond its tokens idles the port until the tokens
    suffice, in both implementations."""
    for impl, state in (
            (qos, qos.PortState(qos.ClassProfile(default_profile(), QUANTUM, WINDOW))),
            (ref, ref.PortState(default_profile(), QUANTUM, WINDOW))):
        state.enqueue(Chunk(0, QUANTUM), qos.ETHERNET, 0)
        state.enqueue(Chunk(1, QUANTUM), qos.ETHERNET, 0)
        first, _ = impl.arbitrate(state, 0.0, RATE)
        assert first.id == 0
        chunk, wake = impl.arbitrate(state, 0.0, RATE)
        assert chunk is None
        assert wake == QUANTUM / (0.30 * RATE)


def test_one_class_port_walks_the_rotor_when_its_deficit_runs_out():
    """Thirty queued best-effort chunks outlast the class quantum of ten, so
    the one-class fast path must twice hand a head short of deficit to the
    rotor walk; picks and state stay those of the reference throughout."""
    live = qos.PortState(qos.ClassProfile(default_profile(), QUANTUM, WINDOW))
    frozen = ref.PortState(default_profile(), QUANTUM, WINDOW)
    for n in range(30):
        chunk = Chunk(n, QUANTUM)
        live.enqueue(chunk, qos.BEST_EFFORT, n % 2)
        frozen.enqueue(chunk, qos.BEST_EFFORT, n % 2)
    assert live.solo is live.lane(qos.BEST_EFFORT)
    refills = 0
    for n in range(30):
        now = n * QUANTUM / RATE
        before = live.solo.deficit
        got = qos.arbitrate(live, now, RATE, lambda chunk: True)
        want = ref.arbitrate(frozen, now, RATE, lambda chunk: True)
        assert got[0] is want[0] is not None and got[1] is want[1] is None
        assert class_state(live) == class_state(frozen)
        refills += before < QUANTUM
    assert refills == 2
    live.enqueue(Chunk(30, QUANTUM), qos.ETHERNET, 0)
    assert live.solo is None


def test_lanes_exist_only_for_queued_classes(monkeypatch):
    """A class gets a lane at its first enqueue on a port, lanes keep class
    order and their queues VC order, and only the capped class's lane has a
    cap bucket.  Until a capped class queues, arbitration refills none."""
    refills = []
    refill = qos.TokenBucket.refill

    def counted(self, *args):
        refills.append(self)
        return refill(self, *args)

    monkeypatch.setattr(qos.TokenBucket, "refill", counted)
    state = qos.PortState(qos.ClassProfile(default_profile(), QUANTUM, WINDOW))
    assert state.lanes == () and state.solo is None
    state.enqueue(Chunk(0, QUANTUM), qos.BEST_EFFORT, 2)
    state.enqueue(Chunk(1, QUANTUM), qos.BEST_EFFORT, 0)
    (lane,) = state.lanes
    assert state.solo is lane and lane.class_id == qos.BEST_EFFORT
    assert lane.vcs == (0, 2) and [q[0].id for q in lane.queues] == [1, 0]
    assert lane.cap is None
    for n in range(3):
        qos.arbitrate(state, n * 1e-6, RATE)
    assert refills == []

    state.enqueue(Chunk(2, QUANTUM), qos.ETHERNET, 1)
    state.enqueue(Chunk(3, QUANTUM), qos.LOW_LATENCY, 1)
    assert [lane.class_id for lane in state.lanes] == \
        [qos.LOW_LATENCY, qos.BEST_EFFORT, qos.ETHERNET]
    assert [lane.cap is not None for lane in state.lanes] == \
        [False, False, True]
    assert state.solo is None and state.lane(qos.BULK_DATA) is None
    qos.arbitrate(state, 4e-6, RATE)
    assert set(refills) == {state.lane(qos.ETHERNET).cap}
