"""Ethernet-class traffic under its QoS rate cap.

The default profile caps the Ethernet class at 30% of a port.  A cap bucket
short of a chunk by less than the float clock can resolve used to ask for a
wake at the very instant it was checked, so the port woke at that instant
forever and every Ethernet-class run stopped making progress.
"""

import dataclasses
import math

import pytest

import qos_reference as ref
from slingsim.qos import ETHERNET, ClassProfile, PortState, arbitrate, \
    default_profile

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
