"""Route choice replayed on the benchmark's own traffic.

Each workload of ``perfbench/workloads.py`` runs once on seed 1 with its
routing decisions recorded (``route_replay.record``), and the recorded
calls are then made again, in order, on a fresh live ``Router`` and on the
frozen selection of ``routing_reference``: both must give every recorded
pick and leave their RNGs in the same state after every call.
"""

import pytest

import route_replay

# Router._decide calls of each workload on seed 1; incast_cc's ordered
# flows reuse their pins for most of their chunks
DECISIONS = {"perm_1m": 32_768, "aurora_sparse": 16_384, "incast_cc": 1_086}


def test_every_workload_is_replayed():
    assert set(DECISIONS) == set(route_replay.WORKLOADS)


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_recorded_decisions_replay(name):
    rec = route_replay.record(name, 1)
    assert len(rec.calls) == DECISIONS[name]
    route_replay.check(rec)
