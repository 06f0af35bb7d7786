"""The report digests of the benchmark workloads, pinned.

Each workload of ``perfbench/workloads.py`` runs once per seed through the
benchmark's own ``harness``: set up, run under the workload's host-time
budget, and the harness's output checks.  The digests are the ones every
speed and deletion change has kept so far; a change that moves one changes
simulated behaviour and must say why.  The benchmark is only read from
here, never changed.

A traced repetition of each workload on seed 1 pins the per-layer counts
the benchmark's tracer takes at the engine's ``heapq`` reference: events by
kind, events that fire without the clock moving, and QoS enqueues.  An
event-set change that breaks the tracer's view of the events fails here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from harness import check_finished, run_rep, run_with_budget, set_up  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGESTS = {
    ("perm_1m", 1):
        "00f3310a78e51066eb0231934708959f1a1a9b564512e363c2cd75b3929d8015",
    ("perm_1m", 7919):
        "22e5cf4f629ee11c8d342c8a8c2d4d4ed8231fb59df4b2989065531df1e94d66",
    ("aurora_sparse", 1):
        "707721b53d9e73336e65ce349668d0ecf4b97c1321560471a7e772b34984958f",
    ("aurora_sparse", 7919):
        "86df182504fe9e475e90a78320ae660bbde02771a4bb425c383c8f561d1e91c1",
    ("incast_cc", 1):
        "2a5ec9bddb870c744dc72d70a57579c70c4435d7b381ae3e15f4bad9f49b7a76",
    ("incast_cc", 7919):
        "45bac23233f695a012146b00555316fb68f4aa0ecb8c8cb3d0a825ed82aa8d80",
}


def test_every_workload_is_pinned():
    assert {name for name, _ in DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_benchmark_digest(name, seed):
    wdef = WORKLOADS[name]
    engine = set_up(wdef, wdef.make(wdef.spec, seed), seed).engine
    report = run_with_budget(engine, wdef.budget_s)
    assert report is not None, f"{name} outran its {wdef.budget_s} s budget"
    check_finished(report, engine)
    assert report.digest == DIGESTS[name, seed]


# traced counts of seed 1: events by kind (tx, arrive, wakeport, wakeinj,
# tick, series; no sweep, fault or retry fires), zero-advance events and
# QoS enqueues
TRACED = {
    "perm_1m": ((144_832, 144_832, 37_279, 31_744, 76, 3), 280_664, 144_832),
    "aurora_sparse": ((79_680, 79_680, 365, 8_192, 5, 0), 167_301, 79_680),
    "incast_cc": ((8_126, 8_126, 5_895, 1_086, 43, 1), 20_491, 8_126),
}
KINDS = ("tx", "arrive", "wakeport", "wakeinj", "tick", "series", "sweep",
         "fault", "retry")


def test_every_workload_is_traced():
    assert set(TRACED) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_counts(name):
    wdef = WORKLOADS[name]
    rep = run_rep(wdef, wdef.make(wdef.spec, 1), 1, traced=True)
    assert not rep.stopped and rep.identity["digest"] == DIGESTS[name, 1]
    layers = rep.layers
    by_kind, zero_advance, enqueues = TRACED[name]
    assert tuple(layers[f"engine.events.{k}"] for k in KINDS) \
        == by_kind + (0, 0, 0)
    assert layers["engine.events"] == sum(by_kind)
    assert layers["engine.zero_advance_events"] == zero_advance
    assert layers["qos.enqueue.calls"] == enqueues
