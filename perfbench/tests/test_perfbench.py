"""Tests of the benchmark itself: generators, output checks, budget, tracer.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from harness import (CheckError, check_finished, run_rep,  # noqa: E402
                     run_with_budget, set_up)
from slingsim.routing import Router  # noqa: E402
from slingsim.topology import TopologySpec, aurora_spec  # noqa: E402
from workloads import (KIB, WORKLOADS, WorkloadDef, bench_spec,  # noqa: E402
                       incast_with_background, permutation)


def tiny(make, spec=None, cc=False, budget=30.0) -> WorkloadDef:
    return WorkloadDef(spec or bench_spec(), cc, budget, make)


def small_spec() -> TopologySpec:
    return TopologySpec(compute_groups=4, storage_groups=0, service_groups=0,
                        switches_per_group=2, nodes_per_switch=1,
                        nics_per_node=2)


def test_workloads_declared_in_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("sparse", [False, True])
def test_permutation_generator(sparse):
    wl = permutation(bench_spec(), 16, 4 * KIB, seed=3, sparse=sparse)
    assert wl == permutation(bench_spec(), 16, 4 * KIB, seed=3, sparse=sparse)
    assert wl != permutation(bench_spec(), 16, 4 * KIB, seed=4, sparse=sparse)
    msgs = wl.schedule.phases[0].messages
    assert sorted(d for _, d, _, _ in msgs) == list(range(16))
    assert all(s != d and not ordered for s, d, _, ordered in msgs)
    assert len(set(wl.placement.endpoint_of)) == 16
    assert max(wl.placement.endpoint_of) < 128


def test_incast_generator():
    wl = incast_with_background(bench_spec(), 4 * KIB, seed=5)
    msgs = wl.schedule.phases[0].messages
    ordered = [m for m in msgs if m[3]]
    background = [m for m in msgs if not m[3]]
    hot = {d for _, d, _, _ in ordered}
    assert len(hot) == 2 and len(ordered) == 62 and len(background) == 64
    senders = {s for s, _, _, _ in ordered} | hot
    assert not senders & {s for s, _, _, _ in background}
    assert sorted(s for s, _, _, _ in background) == \
        sorted(d for _, d, _, _ in background)
    assert wl == incast_with_background(bench_spec(), 4 * KIB, seed=5)


@pytest.mark.parametrize("wdef", [
    tiny(lambda spec, seed: permutation(spec, 16, 8 * KIB, seed)),
    tiny(lambda spec, seed: permutation(spec, 16, 4 * KIB, seed, sparse=True),
         spec=aurora_spec()),
], ids=["perm", "aurora_sparse"])
def test_tiny_runs_finish_and_repeat(wdef):
    wl = wdef.make(wdef.spec, 7)
    first = run_rep(wdef, wl, 7)
    again = run_rep(wdef, wl, 7)
    assert not first.stopped and first.unresolved == 0
    assert first.identity == again.identity
    sent = sum(m[2] for m in wl.schedule.phases[0].messages)
    assert first.delivered_chunks == sent / 4096


def test_tiny_incast_ends_within_budget():
    wdef = tiny(lambda spec, seed: incast_with_background(spec, 8 * KIB, seed),
                spec=small_spec(), cc=True, budget=1.0)
    t0 = perf_counter()
    rep = run_rep(wdef, wdef.make(wdef.spec, 2), 2)
    assert perf_counter() - t0 < 10
    assert rep.messages == 14  # 6 incast senders + 8 background
    assert rep.stopped or rep.unresolved == 0


def test_budget_overrun_counts_as_failed():
    wdef = tiny(lambda spec, seed: permutation(spec, 128, 64 * KIB, seed),
                budget=0.01)
    t0 = perf_counter()
    rep = run_rep(wdef, wdef.make(wdef.spec, 1), 1)
    assert perf_counter() - t0 < 10
    assert rep.stopped and rep.unresolved > 0
    assert rep.identity["stopped_at_sim_s"] == rep.sim_time_s
    assert run.end_to_end([], [rep], 0.0)["completed_frac"] < 1


@pytest.fixture
def finished():
    wdef = tiny(lambda spec, seed: permutation(spec, 16, 8 * KIB, seed))
    setup = set_up(wdef, wdef.make(wdef.spec, 1), 1)
    report = run_with_budget(setup.engine, 30.0)
    check_finished(report, setup.engine)
    return report, setup.engine


def test_check_catches_unbalanced_bytes(finished):
    report, engine = finished
    report.delivered_bytes -= 1
    with pytest.raises(CheckError, match="injected"):
        check_finished(report, engine)


def test_check_catches_failed_bytes_on_complete_run(finished):
    report, engine = finished
    report.failed_bytes = 4096
    with pytest.raises(CheckError, match="failed_bytes"):
        check_finished(report, engine)


def test_check_catches_leftover_credit(finished):
    report, engine = finished
    port = next(iter(engine.ports.values()))
    port.committed[2] = 4096
    with pytest.raises(CheckError, match="credits"):
        check_finished(report, engine)


def test_check_catches_delivery_above_link_rate(finished):
    report, engine = finished
    ep = next(iter(report.per_endpoint_delivered))
    report.per_endpoint_delivered[ep] *= 1000
    with pytest.raises(CheckError, match="link rate"):
        check_finished(report, engine)


def test_traced_run_matches_untraced_and_restores_patches():
    wdef = tiny(lambda spec, seed: permutation(spec, 32, 8 * KIB, seed))
    wl = wdef.make(wdef.spec, 4)
    original = Router.select_route
    plain = run_rep(wdef, wl, 4)
    traced = run_rep(wdef, wl, 4, traced=True)
    assert Router.select_route is original
    assert traced.identity == plain.identity
    layers = traced.layers
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in doc["per_layer"]}
    assert set(layers) | {"trace.overhead_frac"} == declared
    assert layers["engine.self_s"] >= 0
    assert layers["routing.select_route.calls"] == 64
    assert layers["engine.events"] == sum(
        v for k, v in layers.items() if k.startswith("engine.events."))
    assert layers["qos.enqueue.calls"] == layers["engine.events.tx"]
