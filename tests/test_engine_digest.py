"""Golden-digest engine runs on the bench fabric.

Each scenario pins the report digest recorded before the per-chunk hot path
was reworked, so any change to an event, an RNG draw or a tie-break in the
engine, QoS arbitration or route selection shows up as a digest mismatch.
Every run must also conserve bytes and hand back every buffer credit.
"""

import random
from dataclasses import dataclass

import pytest

from slingsim.engine import Engine, SimConfig
from slingsim.qos import BEST_EFFORT, default_profile
from slingsim.routing import Router, RoutingPolicy
from slingsim.topology import StateOverlay, build_topology

from conftest import bench_spec

KIB = 1024


@dataclass(frozen=True)
class Placement:
    ranks: int
    endpoint_of: tuple[int, ...]


@dataclass(frozen=True)
class Phase:
    messages: tuple[tuple[int, int, int, bool], ...]  # src, dst, bytes, ordered


@dataclass(frozen=True)
class Schedule:
    phases: tuple[Phase, ...]
    barrier: str = "none"
    window: int = 0
    traffic_class: int = BEST_EFFORT


def derangement(n: int, rng: random.Random) -> list[int]:
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if all(i != p for i, p in enumerate(perm)):
            return perm


def permutation(n: int, size: int, seed: int):
    perm = derangement(n, random.Random(seed))
    msgs = tuple((r, perm[r], size, False) for r in range(n))
    return Placement(n, tuple(range(n))), Schedule((Phase(msgs),))


def incast_with_background(n: int, size: int, seed: int):
    """Half the endpoints send ordered messages to two hot endpoints, the
    other half run an unordered derangement among themselves."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    incast, background = order[: n // 2], order[n // 2:]
    hot = incast[:2]
    msgs = [(src, hot[i % 2], size, True) for i, src in enumerate(incast[2:])]
    perm = derangement(len(background), rng)
    msgs += [(src, background[perm[i]], size, False)
             for i, src in enumerate(background)]
    return Placement(n, tuple(range(n))), Schedule((Phase(tuple(msgs)),))


def run(workload, cc: bool, mode: str = "adaptive", flaps=()):
    topo = build_topology(bench_spec())
    overlay = StateOverlay(topo)
    router = Router(topo, overlay, RoutingPolicy(mode=mode), seed=1)
    engine = Engine(topo, overlay, router, default_profile(),
                    SimConfig(seed=1, cc_enabled=cc))
    for pick, t_down, duration in flaps:
        engine.inject_fault(pick(topo), t_down, duration)
    engine.load(*workload)
    report = engine.run()
    assert report.injected_bytes == report.delivered_bytes + report.failed_bytes
    for key, port in engine.ports.items():
        assert not any(port.committed) and port.occ == 0, key
    return engine, report


def first_global(topo):
    return topo.global_links[(0, 1)][0]


def first_local(topo):
    return topo.local_links[(0, 1)][0]


PERM_64K = "ab8c4cb653875d22f2cb64fed1bb5a4c273f631db79f5daf39ae7a57bed29907"


@pytest.mark.parametrize("cc", [False, True], ids=["cc_off", "cc_on"])
def test_permutation_64k(cc):
    _, report = run(permutation(128, 64 * KIB, 1), cc)
    assert report.digest == PERM_64K
    assert report.timeout_count == 0 and report.incomplete_messages == 0


def test_incast_with_background_cc():
    engine, report = run(incast_with_background(128, 16 * KIB, 1), cc=True)
    assert report.digest == \
        "80d3afb39f8cafcd0d55ab64217f610278f24fad0e4284b51508fa922302874d"
    assert report.incomplete_messages == 0
    detected = [e.link for e in engine.congestion_state().entries if e.detected]
    assert len(detected) == 2


def test_permutation_with_flaps():
    flaps = [(first_global, 5e-6, 30e-6), (first_local, 5e-6, 30e-6)]
    _, report = run(permutation(128, 64 * KIB, 1), cc=False, flaps=flaps)
    assert report.digest == \
        "3eb78189b83c622c148b705d315ea7ef21bdad37d098d8a868ecb7f825813d55"
    assert 12 <= report.timeout_count <= 21
    assert report.incomplete_messages == 0 and report.failed_bytes == 0


def test_permutation_minimal_routing():
    _, report = run(permutation(128, 64 * KIB, 1), cc=False, mode="minimal")
    assert report.digest == \
        "0751cb131d09ba62e6d387e9b3a591e80b35c4b86e075f99354c6e3ae2094e7d"
