"""Golden-digest engine runs on the bench fabric.

Each scenario pins the report digest recorded before the per-chunk hot path
was reworked, and the phased ones the digests recorded before the phase
barriers became gates, so any change to an event, an RNG draw, a release
order or a tie-break in the engine, QoS arbitration or route selection shows
up as a digest mismatch.
Every run must also conserve bytes and hand back every buffer credit, and
finish within a host-time budget, so a run that stops making progress fails
instead of hanging the suite.
"""

import os
import random
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

import slingsim
from slingsim.engine import MAX_RETRIES, Engine, SimConfig
from slingsim.qos import BEST_EFFORT, default_profile
from slingsim.report import summarize
from slingsim.routing import Router, RoutingPolicy
from slingsim.topology import StateOverlay, build_topology

from conftest import bench_spec

KIB = 1024
RUN_BUDGET_S = 60.0  # host seconds; each run here takes a few at most


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


def _out_of_time(signum, frame):
    raise TimeoutError(f"Engine.run took over {RUN_BUDGET_S} s of host time")


def make_engine(cc: bool = True, mode: str = "adaptive", down=None,
                **config) -> Engine:
    """An engine on the bench fabric; ``config`` overrides ``SimConfig``
    fields, and the links ``down(topo)`` are down before the router's first
    sweep."""
    topo = build_topology(bench_spec())
    overlay = StateOverlay(topo)
    for link in down(topo) if down else ():
        overlay.set_link_state(link, status="down")
    router = Router(topo, overlay, RoutingPolicy(mode=mode), seed=1)
    return Engine(topo, overlay, router, default_profile(),
                  SimConfig(**{"seed": 1, "cc_enabled": cc, **config}))


def run(workload, cc: bool = True, mode: str = "adaptive", flaps=(),
        down=None, **config):
    """Inject ``flaps`` into ``make_engine(cc, mode, down, **config)`` and
    run ``workload`` there through ``run_loaded``."""
    engine = make_engine(cc, mode, down, **config)
    for pick, t_down, duration in flaps:
        engine.inject_fault(pick(engine.topo), t_down, duration)
    return engine, run_loaded(engine, workload)


def run_loaded(engine: Engine, workload):
    """Load ``workload`` into ``engine`` and run it within the host-time
    budget; bytes must balance, every credit pool must drain, no port may
    still hold a waiter and the router may hold no open ordered flow."""
    engine.load(*workload)
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, RUN_BUDGET_S)
    try:
        report = engine.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert report.injected_bytes == report.delivered_bytes + report.failed_bytes
    for key, port in engine.ports.items():
        assert not any(port.committed) and port.occ == 0, key
        assert not port.waiters, key
    assert engine.router.flows == {}
    return report


def first_global(topo):
    return topo.global_links[(0, 1)][0]


def first_local(topo):
    return topo.links.local_between(0, 1)[0]


PERM_64K = "ab8c4cb653875d22f2cb64fed1bb5a4c273f631db79f5daf39ae7a57bed29907"


@pytest.mark.parametrize("cc", [False, True], ids=["cc_off", "cc_on"])
def test_permutation_64k(cc):
    _, report = run(permutation(128, 64 * KIB, 1), cc)
    assert report.digest == PERM_64K
    assert report.timeout_count == 0 and report.incomplete_messages == 0
    assert summarize(report).startswith("Network Summary: 0 network timeouts. ")


def test_no_kick_finds_its_port_busy(monkeypatch):
    """Callers skip a busy port instead of kicking it: no ``_kick_port``
    call on the 64 KiB permutation finds ``port.busy`` set, and the digest
    stays the same."""
    kicks, busy = [], []
    kick = Engine._kick_port

    def counted(self, port):
        kicks.append(port.id)
        if port.busy is not None:
            busy.append(port.id)
        return kick(self, port)

    monkeypatch.setattr(Engine, "_kick_port", counted)
    _, report = run(permutation(128, 64 * KIB, 1), cc=False)
    assert report.digest == PERM_64K
    assert kicks and not busy


PERM_FLAPS = "3eb78189b83c622c148b705d315ea7ef21bdad37d098d8a868ecb7f825813d55"
FLAPS = [(first_global, 5e-6, 30e-6), (first_local, 5e-6, 30e-6)]


@pytest.mark.parametrize("flaps, digest", [((), PERM_64K),
                                           (FLAPS, PERM_FLAPS)],
                         ids=["steady", "flaps"])
def test_arrival_finds_its_port_active(monkeypatch, flaps, digest):
    """A chunk holds its credit in the next port from ``_start_tx`` on, so
    every arrival short of delivery finds that port in ``active_ports``
    already: on the 64 KiB permutation, steady and with flaps, and the
    digests stay the same."""
    arrivals, missing = 0, []
    arrive = Engine._on_arrive

    def checked(self, chunk):
        nonlocal arrivals
        nxt = chunk.hop + 1
        if nxt < len(chunk.path):
            arrivals += 1
            if chunk.path[nxt] not in self.active_ports:
                missing.append(chunk.path[nxt])
        return arrive(self, chunk)

    monkeypatch.setattr(Engine, "_on_arrive", checked)
    _, report = run(permutation(128, 64 * KIB, 1), cc=False, flaps=flaps)
    assert report.digest == digest
    assert arrivals and not missing


def test_incast_with_background_cc():
    engine, report = run(incast_with_background(128, 16 * KIB, 1), cc=True)
    assert report.digest == \
        "80d3afb39f8cafcd0d55ab64217f610278f24fad0e4284b51508fa922302874d"
    assert report.incomplete_messages == 0
    detected = [w.port.link_id for w in engine.cc.watches.values()
                if w.detected]
    assert len(detected) == 2


def test_incast_with_background_cc_off_monitors_nothing():
    """With congestion management off the engine has no manager, so no
    port carries congestion state."""
    engine, report = run(incast_with_background(128, 16 * KIB, 1), cc=False)
    assert report.incomplete_messages == 0
    assert engine.ports and engine.cc is None
    assert all(p.watch is None for p in engine.ports.values())


def test_permutation_with_flaps():
    _, report = run(permutation(128, 64 * KIB, 1), cc=False, flaps=FLAPS)
    assert report.digest == PERM_FLAPS
    assert 12 <= report.timeout_count <= 21
    assert report.incomplete_messages == 0 and report.failed_bytes == 0
    assert summarize(report).startswith(
        f"Network Summary: {report.timeout_count} network timeouts. ")


@pytest.mark.parametrize("hash_seed", ["0", "123"])
def test_digest_ignores_hash_seed(hash_seed):
    """Each run in its own interpreter, so set and dict orders of hashed
    objects differ between them."""
    path = os.pathsep.join([str(Path(slingsim.__file__).parents[1]),
                            str(Path(__file__).parent)])
    script = ("from test_engine_digest import KIB, permutation, run\n"
              "print(run(permutation(128, 64 * KIB, 1), cc=False)[1].digest)")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=RUN_BUDGET_S,
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path})
    assert out.stdout.split()[-1] == PERM_64K


def test_permutation_minimal_routing():
    _, report = run(permutation(128, 64 * KIB, 1), cc=False, mode="minimal")
    assert report.digest == \
        "0751cb131d09ba62e6d387e9b3a591e80b35c4b86e075f99354c6e3ae2094e7d"


def test_incast_64k_cc_completes():
    """The inputs of the incast_cc benchmark workload.  An injector throttle
    bucket short of a chunk by less than the clock can resolve used to wake
    its injector at the same instant forever."""
    _, report = run(incast_with_background(128, 64 * KIB, 1), cc=True)
    assert report.incomplete_messages == 0 and report.failed_bytes == 0
    assert not any(m.failed for m in report.messages)


def test_long_flap_bounds_retries():
    """A global link stays down for 4 s, past the end of the run and short
    of the first routing sweep, so routes keep offering it.  Every lost
    chunk retries at most ``MAX_RETRIES`` times before its message fails,
    so every message resolves."""
    flaps = [(first_global, 5e-6, 4.0)]
    _, report = run(permutation(128, 64 * KIB, 1), cc=False, flaps=flaps)
    assert report.incomplete_messages == 0
    failed = [m for m in report.messages if m.failed]
    assert failed and report.failed_bytes > 0
    chunks = 64 * KIB // SimConfig().chunk_quantum_bytes
    per_message = Counter(e.message_id for e in report.timeout_events)
    assert max(per_message.values()) <= \
        chunks * (MAX_RETRIES + 1)


def phased(n: int, size: int, seed: int, barrier: str, window: int = 0,
           ordered: bool = False):
    """Three phases on ``n`` ranks, so the gates of the phase barriers move.
    Phase 0 is a derangement of ``size``-byte messages, with a second message
    of half that size from every fourth rank.  In phase 1 only the even
    ranks send, twice ``size`` to the rank a quarter of the way round, so the
    odd ranks that receive nothing in it have no work there.  Phase 2 is
    another derangement of sizes drawn from 1 B to ``size``.  ``ordered``
    marks the messages of phases 0 and 2 ordered."""
    rng = random.Random(seed)
    perm = derangement(n, rng)
    first = [(r, perm[r], size, ordered) for r in range(n)]
    first += [(r, (r + n // 2) % n, size // 2, False) for r in range(0, n, 4)]
    second = [(r, (r + n // 4) % n, 2 * size, False) for r in range(0, n, 2)]
    perm = derangement(n, rng)
    third = [(r, perm[r], rng.randint(1, size), ordered) for r in range(n)]
    return (Placement(n, tuple(range(n))),
            Schedule((Phase(tuple(first)), Phase(tuple(second)),
                      Phase(tuple(third))), barrier=barrier, window=window))


# (barrier, window, variant) -> digest of phased(128, 16 KiB, seed 1): CC off
# and unordered, or CC on with ordered messages, or CC off with FLAPS
BARRIER_DIGESTS = {
    ("none", 0, "plain"):
        "0011023a54985ac56a5da88b56bfd01cfe7c53ed959a7c3072ec152a5b9f548b",
    ("none", 1, "plain"):
        "e0ad5f84d8477161e739e2c098abed50d07fec9508929527c0b5c5f3aa381e4a",
    ("rank", 0, "plain"):
        "229a425cc062ef85e6fcb395121d315a413fbdec019409ab3e264c3851a6667a",
    ("rank", 1, "plain"):
        "ae91cbbc8aa80528a42dd88da396c29c959466ee391ee4c0dce941e0ccbd641d",
    ("global", 0, "plain"):
        "3c3e98412742a05042d39a696117764314e4fc2926e05211c5a77bf2d18aed73",
    ("global", 1, "plain"):
        "0dcfac1dcc0fbd91721c235fa2265c14c5e698bff3718edf83195bef40ab0b6a",
    ("rank", 0, "ordered_cc"):
        "579bc8a232a0b6bbe786cb2b83cf22b4627a21b790fde9835c42ae4bf9738a36",
    ("global", 1, "ordered_cc"):
        "19496bf8171dd0c7240159aad5f1133b5b4031f4d9c98c66a4cde28f3cbc05a9",
    ("rank", 0, "flaps"):
        "be0ee6dcaca13aab165949490ae2769b88d92c42725a41c04ebb1558ce15fd4d",
    ("global", 0, "flaps"):
        "73be66d7fb10a6318a07acd9cb56e4a5a4f2836583ae435e667d3fec345433cf",
}


@pytest.mark.parametrize("barrier, window, variant", sorted(BARRIER_DIGESTS),
                         ids=lambda v: str(v))
def test_phased_barrier_digest(barrier, window, variant):
    """Each barrier, window and variant releases phased messages in its own
    order, so no two of the pinned digests agree; every message completes,
    and no byte fails."""
    _, report = run(phased(128, 16 * KIB, 1, barrier, window,
                           ordered=variant == "ordered_cc"),
                    cc=variant == "ordered_cc",
                    flaps=FLAPS if variant == "flaps" else ())
    assert report.digest == BARRIER_DIGESTS[barrier, window, variant]
    assert report.incomplete_messages == 0 and report.failed_bytes == 0
    assert (report.timeout_count > 0) == (variant == "flaps")
    assert len(set(BARRIER_DIGESTS.values())) == len(BARRIER_DIGESTS)
