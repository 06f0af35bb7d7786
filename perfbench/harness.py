"""One benchmark repetition: set up, run under a host-time budget, check.

Everything goes through slingsim's public API: ``build_topology``,
``StateOverlay``, ``Router``/``RoutingPolicy``, ``Engine(...).load/run`` and
``SimReport``.
"""

from __future__ import annotations

import gc
import signal
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from slingsim.engine import Engine, SimConfig
from slingsim.qos import default_profile
from slingsim.routing import Router, RoutingPolicy
from slingsim.topology import StateOverlay, build_topology

from tracing import Tracer
from workloads import Workload, WorkloadDef


class CheckError(AssertionError):
    """A finished run broke an output invariant."""


class BudgetExceeded(Exception):
    """Engine.run outlived its host-time budget."""


@dataclass
class Setup:
    engine: Engine
    setup_s: float
    build_s: float
    links: int


@dataclass
class RepResult:
    setup_s: float
    run_s: float
    messages: int
    unresolved: int  # failed or never resolved
    delivered_chunks: float
    stopped: bool  # the budget ran out before Engine.run returned
    sim_time_s: float  # simulated time reached
    identity: dict = field(default_factory=dict)
    layers: dict | None = None


def set_up(wdef: WorkloadDef, workload: Workload, seed: int) -> Setup:
    """Build fabric, overlay, router and engine and load the workload; the
    time covers exactly these steps."""
    gc.collect()
    t0 = perf_counter()
    topo = build_topology(wdef.spec)
    t1 = perf_counter()
    overlay = StateOverlay(topo)
    router = Router(topo, overlay, RoutingPolicy(), seed=seed)
    config = SimConfig(seed=seed, cc_enabled=wdef.cc_enabled)
    engine = Engine(topo, overlay, router, default_profile(), config)
    engine.load(workload.placement, workload.schedule)
    t2 = perf_counter()
    return Setup(engine, t2 - t0, t1 - t0, len(topo.links))


def _raise_budget(signum, frame):
    raise BudgetExceeded


def run_with_budget(engine: Engine, budget_s: float):
    """``engine.run()``, stopped by a timer signal after ``budget_s`` host
    seconds.  Returns the report, or None when the budget ran out."""
    previous = signal.signal(signal.SIGALRM, _raise_budget)
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            return engine.run()
        except BudgetExceeded:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def check_finished(report, engine: Engine) -> None:
    """Output invariants of a run that returned a report."""
    if report.incomplete_messages == 0 and not any(m.failed for m in report.messages):
        if report.injected_bytes != report.delivered_bytes:
            raise CheckError(
                f"all messages completed but injected {report.injected_bytes} B "
                f"!= delivered {report.delivered_bytes} B")
        if report.failed_bytes != 0:
            raise CheckError(f"all messages completed but failed_bytes="
                             f"{report.failed_bytes}")
    for key, port in engine.ports.items():
        if any(port.committed) or port.occ != 0:
            raise CheckError(f"port {key} holds credits after the run: "
                             f"committed={port.committed} occ={port.occ}")
    limit = engine.topo.spec.link_bw_per_dir * report.makespan()
    for ep, nbytes in report.per_endpoint_delivered.items():
        if nbytes > limit * (1 + 1e-9):
            raise CheckError(f"endpoint {ep} received {nbytes} B in "
                             f"{report.makespan()} s, above its link rate")


def identity(report) -> dict:
    """Simulated outputs that must repeat exactly for one workload and seed."""
    return {
        "digest": report.digest,
        "makespan_s": report.makespan(),
        "aggregate_bw_bytes_per_s": report.aggregate_bandwidth(),
        "p99_latency_s": report.latency_stats()[2],
        "timeouts": report.timeout_count,
    }


def run_rep(wdef: WorkloadDef, workload: Workload, seed: int,
            traced: bool = False, budget_s: float | None = None) -> RepResult:
    """Set up and run the workload once.  A run that outlives its budget is
    reported as stopped, with every unresolved message counted as failed;
    it is never retried or resized."""
    setup = set_up(wdef, workload, seed)
    engine = setup.engine
    budget = wdef.budget_s if budget_s is None else budget_s
    tracer = Tracer() if traced else None
    gc.collect()
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        report = run_with_budget(engine, budget)
        run_s = perf_counter() - t0
    quantum = engine.config.chunk_quantum_bytes
    result = RepResult(
        setup_s=setup.setup_s, run_s=run_s, messages=len(engine.messages),
        unresolved=(engine.unresolved if report is None else
                    report.incomplete_messages
                    + sum(m.failed for m in report.messages)),
        delivered_chunks=engine.delivered_bytes / quantum,
        stopped=report is None, sim_time_s=engine.now)
    if report is None:
        result.identity = {"stopped_at_sim_s": engine.now,
                           "unresolved": engine.unresolved,
                           "delivered_bytes": engine.delivered_bytes}
    else:
        check_finished(report, engine)
        result.identity = identity(report)
    if tracer is not None:
        layers = tracer.layer_metrics(run_s)
        if report is not None:
            if layers["engine.self_s"] < 0:
                raise CheckError(f"negative engine self time "
                                 f"{layers['engine.self_s']}")
            if abs(sum(tracer.self_s.values()) - tracer.wrapped_s) > 1e-6:
                raise CheckError("span self times do not add up to the "
                                 "wrapped time")
            t0 = perf_counter()
            report.to_json()
            layers["report.to_json_s"] = perf_counter() - t0
        else:
            layers["report.to_json_s"] = 0.0
        layers["topology.build_s"] = setup.build_s
        layers["topology.links"] = setup.links
        layers["engine.ports_created"] = len(engine.ports)
        result.layers = layers
    return result
