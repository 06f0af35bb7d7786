"""The class profile is built once per engine and shared by every port, and
every chunk-loss path hands its credit back.

The flap runs take down one edge, one local or one global link of the bench
fabric while 256 KiB messages are in flight, long enough for the link to
carry, queue and receive chunks when it fails, so every call site of
``Engine._lose_chunk`` is reached: a transmission cut short (``_on_txdone``),
a chunk in flight on the failed link or toward it (both branches of
``_on_arrive``), and a queue flushed at the failure (``_flush_port``).
"""

import sys

import pytest

from slingsim import qos
from slingsim.engine import Engine
from slingsim.qos import ClassProfile, PortState, default_profile

from conftest import retained_bytes
from test_engine_digest import KIB, first_global, first_local, permutation, run


def test_ports_share_one_profile(monkeypatch):
    calls = []
    validate = qos.validate_profile

    def counted(configs):
        calls.append(configs)
        return validate(configs)

    monkeypatch.setattr(qos, "validate_profile", counted)
    engine, _ = run(permutation(128, 64 * KIB, 1), cc=False)
    assert len(calls) == 1
    assert len(engine.ports) > 128
    assert all(port.profile is engine.profile
               for port in engine.ports.values())


def test_empty_port_state_is_small():
    """Per-port state holds only what changes per port, and a port makes a
    lane only for a class that queues on it: an empty state is one small
    object, and 400 B rules out per-class dicts and copies of the profile."""
    profile = ClassProfile(default_profile(), 4096, 100e-6)
    n = 5000
    states, held = retained_bytes(
        lambda: [PortState(profile) for _ in range(n)])
    assert len(states) == n
    assert held / n <= 400, held / n


def first_edge(topo):
    return topo.edge_link_of_endpoint(0)


LOSS_SITES = {("_on_txdone", 1), ("_on_arrive", 1), ("_on_arrive", 0),
              ("_flush_port", 0)}


@pytest.mark.parametrize("pick", [first_edge, first_local, first_global],
                         ids=["edge", "local", "global"])
def test_flap_returns_every_credit(monkeypatch, pick):
    sites = set()
    lose = Engine._lose_chunk

    def recorded(self, chunk, vc, link_id):
        # the caller and the pool relative to the chunk's hop tell the
        # four call sites apart
        sites.add((sys._getframe(1).f_code.co_name, vc - chunk.hop))
        return lose(self, chunk, vc, link_id)

    monkeypatch.setattr(Engine, "_lose_chunk", recorded)
    # run() checks that bytes balance and every committed and occ pool
    # drains to zero
    _, report = run(permutation(128, 256 * KIB, 1), cc=False,
                    flaps=[(pick, 5e-6, 30e-6)])
    assert sites == LOSS_SITES
    assert report.timeout_count > 0
    assert report.incomplete_messages == 0 and report.failed_bytes == 0
    assert not any(m.failed for m in report.messages)
