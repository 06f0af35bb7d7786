"""Ethernet-class traffic under its QoS rate cap.

The default profile caps the Ethernet class at 30% of a port.  A cap bucket
short of a chunk by less than the float clock can resolve used to ask for a
wake at the very instant it was checked, so the port woke at that instant
forever and every Ethernet-class run stopped making progress.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qos_reference as ref
from slingsim.qos import BEST_EFFORT, ETHERNET, ClassProfile, PortState, \
    arbitrate, default_profile

from test_engine_digest import KIB, Phase, Placement, Schedule, permutation, \
    run

QUANTUM = 4096
WINDOW = 100e-6
RATE = 25e9  # the bench fabric's link rate
CAP = 0.30  # the Ethernet cap of the default profile


class Chunk:
    __slots__ = ("id", "length")

    def __init__(self, id: int, length: int):
        self.id = id
        self.length = length


def test_arbitrate_serves_shortfall_below_clock_resolution():
    """Spend the burst at t0, then arbitrate at the last instant t1 before
    the cap bucket holds a whole chunk again: the shortfall is too small to
    move t1, so the head counts as paid and is served."""
    t0 = 1e-6
    t1 = t0 + QUANTUM / (CAP * RATE)
    while (t1 - t0) * CAP * RATE >= QUANTUM:
        t1 = math.nextafter(t1, 0.0)
    tokens = (t1 - t0) * CAP * RATE
    assert tokens < QUANTUM
    assert t1 + (QUANTUM - tokens) / (CAP * RATE) == t1

    live = PortState(ClassProfile(default_profile(), QUANTUM, WINDOW))
    frozen = ref.PortState(default_profile(), QUANTUM, WINDOW)
    for state in (live, frozen):
        state.enqueue(Chunk(0, QUANTUM), ETHERNET, 0)
        state.enqueue(Chunk(1, QUANTUM), ETHERNET, 0)
    assert arbitrate(live, t0, RATE)[0].id == 0
    assert ref.arbitrate(frozen, t0, RATE)[0].id == 0
    # the frozen reference asks to be woken at t1 itself
    assert ref.arbitrate(frozen, t1, RATE) == (None, t1)
    chunk, wake = arbitrate(live, t1, RATE)
    assert chunk.id == 1 and wake is None


@pytest.mark.parametrize("cc", [False, True], ids=["cc_off", "cc_on"])
def test_ethernet_permutation_completes(cc):
    placement, schedule = permutation(128, 64 * KIB, 1)
    schedule = dataclasses.replace(schedule, traffic_class=ETHERNET)
    _, report = run((placement, schedule), cc)
    assert report.incomplete_messages == 0 and report.failed_bytes == 0
    assert report.timeout_count == 0


def test_single_ethernet_message_runs_at_its_cap():
    """After the one-chunk burst, every chunk waits for the cap: the
    makespan is at least the rest of the message at 30% of the link rate,
    and the latencies add less than 10% on top."""
    size = 256 * KIB
    schedule = Schedule((Phase(((0, 1, size, False),)),),
                        traffic_class=ETHERNET)
    _, report = run((Placement(2, (0, 17)), schedule), cc=False)
    (msg,) = report.messages
    assert not msg.failed
    makespan = msg.completion_time - msg.issue_time
    bound = (size - QUANTUM) / (CAP * RATE)
    assert bound <= makespan <= 1.1 * bound


@settings(max_examples=300, deadline=None)
@given(lengths=st.lists(st.one_of(st.just(QUANTUM), st.integers(1, QUANTUM)),
                        min_size=1, max_size=80),
       best_effort=st.booleans(),
       t0=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)),
       rate=st.sampled_from((RATE, RATE / 2, RATE / 4)))
def test_capped_class_never_exceeds_its_window_bound(lengths, best_effort,
                                                     t0, rate):
    """The ``qos`` module's cap bound: with the Ethernet class backlogged,
    alone or beside backlogged best-effort traffic, the Ethernet bytes whose
    service starts in any closed window of length W never exceed
    ``0.30 * rate * W`` plus one chunk quantum."""
    state = PortState(ClassProfile(default_profile(), QUANTUM, WINDOW))
    for i, length in enumerate(lengths):
        state.enqueue(Chunk(i, length), ETHERNET, 0)
    for _ in range(2 if best_effort else 0):
        state.enqueue(Chunk(-1, QUANTUM), BEST_EFFORT, 0)
    starts = []  # (service start, bytes) of each Ethernet chunk
    now = t0
    while state.lane(ETHERNET).queued:
        chunk, wake = arbitrate(state, now, rate)
        if chunk is None:
            assert wake is not None and wake > now
            now = wake
            continue
        if chunk.id >= 0:
            starts.append((now, chunk.length))
        else:  # keep best effort backlogged: its queue never empties
            state.enqueue(Chunk(-1, QUANTUM), BEST_EFFORT, 0)
        now += chunk.length / rate
    for window in (1e-6, 5e-6, 20e-6):
        bound = CAP * rate * window + QUANTUM
        for t, _ in starts:
            served = sum(n for s, n in starts if t <= s <= t + window)
            assert served <= bound, (window, t, served - bound)
