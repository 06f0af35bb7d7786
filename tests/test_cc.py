"""Congestion management on its own: ``CongestionManager`` driven with fake
ports, a stub overlay and scripted occupancy traces, with no engine.

Ticks are the float sums the engine makes (each tick time is the last one
plus the interval), so an expected tick is looked up in that sequence, not
computed in closed form: the gap between two ticks five intervals apart is
sometimes exactly ``CC_TAU_S`` and sometimes a few ulps short of it.
"""

import ast
from pathlib import Path

import pytest

import slingsim
from slingsim.cc import CC_TAU_S, CC_THETA_CHUNKS, CongestionManager

TICK = 2.0 * 1e-6  # the engine's tick interval
QUANTUM = 4096
THETA = CC_THETA_CHUNKS * QUANTUM
HOT, COLD = 2 * 7 + 1, 2 * 9 + 1  # switch-to-NIC ports of edge links 7, 9
BANDWIDTH = {7: 24e9, 9: 12e9}


class FakePort:
    def __init__(self, pid: int):
        self.id = pid
        self.link_id = pid >> 1
        self.occ = 0


class StubOverlay:
    def effective_bandwidth(self, link: int) -> float:
        return BANDWIDTH[link]


def tick_times(n: int) -> list[float]:
    times = [TICK]
    while len(times) < n:
        times.append(times[-1] + TICK)
    return times


def first_tick(times, since: float) -> float:
    """The first tick at least ``CC_TAU_S`` after ``since``."""
    return next(t for t in times if t - since >= CC_TAU_S)


def make(*pids):
    manager = CongestionManager(StubOverlay(), QUANTUM)
    return manager, [manager.watch(FakePort(pid)) for pid in pids]


def drive(manager, watch, occupancy, feeders=lambda i: ()):
    """One tick per entry of ``occupancy``.  Before tick ``i`` the watched
    queue holds ``occupancy[i]`` bytes, and each source in ``feeders(i)``
    feeds it.  Returns the tick times, whether the watch was detected after
    each tick, and what each tick woke."""
    times = tick_times(len(occupancy))
    detected, woken = [], []
    for i, (t, occ) in enumerate(zip(times, occupancy)):
        watch.port.occ = occ
        for src in feeders(i):
            watch.contributors[src] = t
        woken.append(manager.update(t))
        detected.append(watch.detected)
    return times, detected, woken


# five intervals on from tick 0 are exactly CC_TAU_S, from tick 3 a few ulps
# more and from tick 26 a few ulps less, so detection takes six ticks there
@pytest.mark.parametrize("crossing", [0, 3, 26])
def test_detection_at_first_tick_a_dwell_after_the_crossing(crossing):
    manager, (watch,) = make(HOT)
    occupancy = [THETA] * crossing + [THETA + 1] * 40
    times, detected, _ = drive(manager, watch, occupancy)
    due = first_tick(times, times[crossing])
    assert detected == [t >= due for t in times]


def test_a_dip_restarts_the_dwell():
    manager, (watch,) = make(HOT)
    occupancy = [THETA + 1] * 4 + [THETA] + [THETA + 1] * 20
    times, detected, _ = drive(manager, watch, occupancy)
    due = first_tick(times, times[5])
    assert detected == [t >= due for t in times]


def test_release_after_a_dwell_below_half_the_threshold():
    manager, (watch,) = make(HOT)
    above, between = 8, 6  # ticks above the threshold, then at half of it
    occupancy = [THETA + 1] * above + [THETA // 2] * between \
        + [THETA // 2 - 1] * 20
    times, detected, woken = drive(manager, watch, occupancy,
                                   lambda i: (4, 2, 3) if i < above else ())
    on = first_tick(times, times[0])
    off = first_tick(times, times[above + between])
    assert detected == [on <= t < off for t in times]
    assert [w for w in woken if w] == [[2, 3, 4]]
    assert woken[times.index(off)] == [2, 3, 4]
    assert watch.buckets == {} and watch.contributors == {}


def test_rate_is_the_link_rate_over_live_contributors():
    """Three sources feed the queue; source 5 stops at tick 9.  Once its
    last feed is ``CC_TAU_S`` old it loses its throttle and is woken, and
    the other two are retuned to half the link."""
    manager, (watch,) = make(HOT)
    stop = 9
    times, detected, woken = drive(
        manager, watch, [THETA + 1] * 30,
        lambda i: (1, 5, 3) if i < stop else (1, 3))
    on = first_tick(times, times[0])
    stale = next(t for t in times if times[stop - 1] < t - CC_TAU_S)
    assert detected == [t >= on for t in times]
    assert [(t, w) for t, w in zip(times, woken) if w] == [(stale, [5])]
    assert sorted(watch.contributors) == sorted(watch.buckets) == [1, 3]
    for bucket in watch.buckets.values():
        assert bucket.rate == BANDWIDTH[7] / 2 and bucket.burst == QUANTUM

    manager, (watch,) = make(HOT)
    drive(manager, watch, [THETA + 1] * (times.index(stale)),
          lambda i: (1, 5, 3) if i < stop else (1, 3))
    assert sorted(watch.buckets) == [1, 3, 5]
    assert {b.rate for b in watch.buckets.values()} == {BANDWIDTH[7] / 3}


def test_stale_contributors_stay_when_all_are_stale():
    manager, (watch,) = make(HOT)
    times, detected, woken = drive(
        manager, watch, [THETA + 1] * 30, lambda i: (6, 2) if i < 7 else ())
    assert all(detected[5:]) and not any(woken)
    assert sorted(watch.contributors) == sorted(watch.buckets) == [2, 6]
    assert {b.rate for b in watch.buckets.values()} == {BANDWIDTH[7] / 2}


def test_no_bucket_toward_another_port():
    manager, (hot, cold) = make(HOT, COLD)
    times = tick_times(12)
    for t in times:
        hot.port.occ, cold.port.occ = THETA + 1, 0
        hot.contributors[5] = cold.contributors[5] = cold.contributors[8] = t
        manager.update(t)
    assert hot.detected and not cold.detected
    assert manager.bucket(5, HOT) is hot.buckets[5]
    assert hot.buckets[5].rate == BANDWIDTH[7]
    assert manager.bucket(5, COLD) is None
    assert manager.bucket(8, HOT) is None
    assert manager.bucket(5, HOT - 1) is None  # the NIC-to-switch direction
    assert cold.buckets == {}


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            if node.module == "slingsim":
                names.update(f"slingsim.{a.name}" for a in node.names)
    return names


def test_layering():
    """``cc`` sits on ``qos`` alone, and the engine is the top layer."""
    package = Path(slingsim.__file__).parent
    assert imported_modules(package / "cc.py") - {"__future__"} \
        == {"slingsim.qos"}
    for path in package.glob("*.py"):
        assert "slingsim.engine" not in imported_modules(path), path.name
