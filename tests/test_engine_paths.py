"""Engine paths no golden run reaches: flows without any route, a group
pair cut off, the release of congestion throttles, ordered flows losing their pinned link,
phase barriers, chunks sharing their message's path, the order events
fire in, and the schedules, settings and faults the engine must reject.

Every run that finishes goes through ``test_engine_digest.run``, so it
shares its host-time budget and its byte-balance and credit-drain checks.
"""

import heapq
from collections import Counter
from types import SimpleNamespace

import pytest

from slingsim import engine as engine_mod
from slingsim import routing
from slingsim.cc import CongestionManager
from slingsim.engine import K_ARRIVE, K_FAULT, K_RETRY, K_SWEEP, \
    MAX_RETRIES, RETRY_TIMEOUT_S, Engine, SimConfig, SimConfigError
from slingsim.qos import default_profile
from slingsim.routing import NoRouteError, Router, RoutingPolicy, \
    RoutingTables
from slingsim.topology import GLOBAL, StateOverlay, TopologyError, \
    build_topology, port_id, port_key

from conftest import bench_spec
from test_engine_digest import FLAPS, KIB, Phase, Placement, Schedule, \
    first_global, incast_with_background, make_engine, permutation, run, \
    run_loaded

MIB = 1024 * KIB


def globals_of_group_0(topo):
    return [lid for (ga, gb), lids in topo.global_links.items()
            if 0 in (ga, gb) for lid in lids]


# three 64 KiB messages out of group 0, two of them on one ordered flow
NO_ROUTE_WORKLOAD = (
    Placement(4, (0, 1, 16, 32)),
    Schedule((Phase(((0, 2, 64 * KIB, True), (0, 2, 64 * KIB, True),
                     (1, 3, 64 * KIB, False))),)))


def timeouts_by_message(report):
    events = {}
    for e in report.timeout_events:
        events.setdefault(e.message_id, []).append(e)
    return events


def test_no_route_fails_after_max_retries():
    """Group 0 is cut off before the router's first sweep: each message's
    first chunk is cut, finds no route and retries ``MAX_RETRIES`` times,
    one timeout each on its source edge link, ``RETRY_TIMEOUT_S`` apart;
    then it fails its message.  The message releases no other chunk
    meanwhile.  Two of the messages share one ordered flow, whose pending
    count must still close the flow."""
    cfg = SimConfig()
    engine, report = run(NO_ROUTE_WORKLOAD, down=globals_of_group_0)
    assert all(m.failed for m in report.messages)
    assert report.timeout_count == 3 * (MAX_RETRIES + 1) == 27
    assert report.injected_bytes == report.failed_bytes \
        == 3 * cfg.chunk_quantum_bytes
    events = timeouts_by_message(report)
    assert sorted(events) == [m.id for m in report.messages]
    for m in report.messages:
        mine = events[m.id]
        assert len(mine) == MAX_RETRIES + 1
        assert {e.link for e in mine} == {engine.topo.edge_link_of_endpoint(m.src)}
        gaps = [b.time - a.time for a, b in zip(mine, mine[1:])]
        assert gaps == pytest.approx([RETRY_TIMEOUT_S] * MAX_RETRIES)
    assert engine.router.flows == {}


def test_cut_group_pair_enumerates_each_failing_key_once(monkeypatch):
    """Both global links between groups 0 and 1 are down before the first
    sweep, so some switch pairs have no minimal route and, for others, group
    0 or 1 is an unreachable intermediate group.  The tables keep each
    ``NoRouteError``: a key that fails is enumerated once per
    ``RoutingTables``, and every later lookup of it raises the enumerator's
    message again.  The digest is the one recorded while failures were
    enumerated again at every lookup (2,596 enumerations, 1,806 of them
    failing, in this run)."""
    enumerated = Counter()  # (tables, key) -> enumerations
    failed = {}  # (tables, key) -> the enumerator's message
    raised = []  # (tables, key, message) of each failing lookup
    for name in ("enumerate_minimal_routes", "enumerate_nonminimal_routes"):
        def enumerate_routes(topo, tables, *key, real=getattr(routing, name)):
            enumerated[tables, key] += 1
            try:
                return real(topo, tables, *key)
            except NoRouteError as e:
                failed[tables, key] = str(e)
                raise
        monkeypatch.setattr(routing, name, enumerate_routes)
    for name in ("minimal_routes", "nonminimal_routes"):
        def look_up(tables, *key, real=getattr(RoutingTables, name)):
            try:
                return real(tables, *key)
            except NoRouteError as e:
                raised.append((tables, key, str(e)))
                raise
        monkeypatch.setattr(RoutingTables, name, look_up)
    _, report = run(permutation(128, 256 * KIB, 1), cc=False,
                    down=lambda topo: topo.global_links[(0, 1)])
    assert report.digest == \
        "d12b46a5e2783915bad99e1d63c6cb9b486fef78c83155c94eeab891d1c320da"
    assert report.incomplete_messages == 0 and report.failed_bytes == 0
    assert failed and all(enumerated[key] == 1 for key in failed)
    assert len(raised) > len(failed)
    assert all(msg == failed[tables, key] for tables, key, msg in raised)
    assert sum(enumerated.values()) == 843


def test_message_recovers_after_losing_its_route():
    """The globals of group 0 are down before the first sweep and come back
    up at 300 us; the sweep at 400 us restores the routes.  Each message's
    first chunk finds no route at 0, 100, 200, 300 and 400 us (the last
    retry, summed in floats, fires just before that sweep), one timeout
    each.  It routes at its next retry, its message resumes, and every
    message completes."""
    engine = make_engine(cc=False, down=globals_of_group_0,
                         sweep_interval_s=200e-6)
    for link in globals_of_group_0(engine.topo):
        engine.inject_fault(link, 0.0, 300e-6)
    report = run_loaded(engine, NO_ROUTE_WORKLOAD)
    assert report.incomplete_messages == 0
    assert not any(m.failed for m in report.messages)
    assert report.failed_bytes == 0
    assert report.delivered_bytes == report.injected_bytes == 3 * 64 * KIB
    assert report.timeout_count == 15
    assert {i: len(e) for i, e in timeouts_by_message(report).items()} \
        == {m.id: 5 for m in report.messages}
    assert engine.router.flows == {}


def test_congestion_release(monkeypatch):
    """A 16 KiB incast on two hot endpoints plus one 4 MiB background pair
    that keeps the run going after the incast drains: both hot delivery
    links are detected, then released at 32 us, and every message
    completes."""
    placement, schedule = incast_with_background(128, 16 * KIB, 1)
    msgs = schedule.phases[0].messages
    incast = tuple(m for m in msgs if m[3])
    src, dst, _, _ = next(m for m in msgs if not m[3])
    workload = (placement,
                Schedule((Phase(incast + ((src, dst, 4 * MIB, False),)),)))

    released = []
    update = CongestionManager.update

    def recorded(self, now):
        held = {w: set(w.buckets) for w in self.watches.values()
                if w.detected}
        woken = update(self, now)
        for w, throttled in held.items():
            if not w.detected:
                released.append((now, w.port.link_id, throttled))
                assert throttled <= set(woken)
        return woken

    monkeypatch.setattr(CongestionManager, "update", recorded)
    engine, report = run(workload, cc=True)
    hot = {engine.topo.edge_link_of_endpoint(d) for _, d, _, _ in incast}
    assert {link for _, link, _ in released} == hot
    for t, _, throttled in released:
        assert t == pytest.approx(32e-6) and throttled
    assert not any(engine.cc.watches[port_id(link, 1)].buckets
                   for link in hot)
    assert report.incomplete_messages == 0 and report.failed_bytes == 0


def test_ordered_flow_keeps_one_route(monkeypatch):
    """Four ordered messages share one flow whose pinned global link fails.
    After the next sweep the flow re-pins once, and every later chunk of
    every message takes that one new route."""
    src, dst = 0, 17
    probe = make_engine()
    pinned = probe.router.select_route(src, dst, 2, True)
    (link,) = [port_key(p)[0] for p in pinned
               if probe.topo.links[port_key(p)[0]].kind == GLOBAL]

    repins, routes = [], []
    repin, select = Router.repin, Router.select_route

    def counted(self, *args):
        repins.append(self.tables)
        return repin(self, *args)

    def recorded(self, *args):
        route = select(self, *args)
        routes.append(route)
        return route

    monkeypatch.setattr(Router, "repin", counted)
    monkeypatch.setattr(Router, "select_route", recorded)
    msgs = tuple((0, 1, 256 * KIB, True) for _ in range(4))
    engine, report = run(
        (Placement(2, (src, dst)), Schedule((Phase(msgs),))), cc=False,
        flaps=[(lambda topo: link, 10e-6, 100e-6)], sweep_interval_s=20e-6)
    assert routes[0] == pinned
    assert len(repins) == 1
    after = routes[routes.index(routes[-1]):]
    assert set(after) == {routes[-1]} and routes[-1] != pinned
    assert set(routes) == {pinned, routes[-1]}
    assert report.incomplete_messages == 0 and report.timeout_count > 0
    assert engine.router.flows == {}


def in_flight(engine):
    """The chunks queued at a port, on a wire or propagating to the next
    port of a stopped run."""
    chunks = [c for port in engine.ports.values() for lane in port.lanes
              for q in lane.queues for c in q]
    chunks += [port.busy for port in engine.ports.values() if port.busy]
    chunks += [payload for bucket in engine._buckets.values()
               for _, _, kind, payload in bucket if kind == K_ARRIVE]
    return chunks


@pytest.mark.parametrize("workload, cc, extra", [
    (permutation(128, 64 * KIB, 1), False, {}),
    (incast_with_background(128, 64 * KIB, 1), True, {}),
    (permutation(128, 64 * KIB, 1), False,
     dict(flaps=FLAPS, sweep_interval_s=20e-6)),
], ids=["permutation", "ordered_incast_cc", "flaps_retries_sweeps"])
def test_events_fire_in_time_then_push_order(monkeypatch, workload, cc,
                                             extra):
    """Every event the run pops, read through ``engine.heapq.heappop`` as
    the benchmark's tracer reads it, is a ``(t, seq, kind, payload)`` entry,
    and their ``(t, seq)`` stream strictly increases: the clock never goes
    back, and events due at one instant fire in the order they were
    pushed, those pushed while the instant drains included."""
    popped = []
    pop = heapq.heappop

    def recorded(heap):
        item = pop(heap)
        popped.append(item)
        return item

    monkeypatch.setattr(engine_mod, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heappop=recorded))
    engine, report = run(workload, cc, **extra)
    assert report.incomplete_messages == 0
    assert all(len(item) == 4 for item in popped)
    keys = [item[:2] for item in popped]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert popped[-1][0] == engine.now
    # most instants fire several events, so the order within one is tested
    assert len({t for t, _ in keys}) < len(keys) / 2
    kinds = {item[2] for item in popped}
    assert ({K_FAULT, K_RETRY, K_SWEEP} <= kinds) == ("flaps" in extra)


@pytest.mark.parametrize("workload, cc", [
    (permutation(128, 64 * KIB, 1), False),
    (incast_with_background(128, 64 * KIB, 1), True),
], ids=["permutation", "ordered_incast_cc"])
def test_chunks_share_their_message_path(monkeypatch, workload, cc):
    """Stopped at 5 us, with the chunks of each message spread over the
    fabric, every chunk's path is ``(edge-out port, *route, edge-in port)``
    of its message, and the chunks of one message on one route share one
    path object.  A message keeps only the path of its last route, so one
    that leaves a route and comes back to it builds that path again: its
    chunks on the route hold at most one path object per such visit.  A
    run that finishes leaves no message holding a route or a path."""
    picked = []  # every route the router returned, in order
    taken = {}  # message -> the route of each chunk routed, in order
    select, route_chunk = Router.select_route, Engine._route

    def select_recorded(self, *args):
        picked.append(select(self, *args))
        return picked[-1]

    def route_recorded(self, chunk):
        routed = route_chunk(self, chunk)
        if routed:
            assert chunk.path[1:-1] == picked[-1]
            taken.setdefault(chunk.msg, []).append(picked[-1])
        return routed

    monkeypatch.setattr(Router, "select_route", select_recorded)
    monkeypatch.setattr(Engine, "_route", route_recorded)
    engine = make_engine(cc=cc, duration_s=5e-6)
    engine.load(*workload)
    engine.run()
    assert engine.unresolved
    visits = {}  # (message, route) -> times the message came to the route
    for msg, routes in taken.items():
        for i, route in enumerate(routes):
            if i == 0 or routes[i - 1] != route:
                visits[msg, route] = visits.get((msg, route), 0) + 1
    paths = {}
    for chunk in in_flight(engine):
        msg, route = chunk.msg, chunk.path[1:-1]
        paths.setdefault((msg, route), set()).add(id(chunk.path))
        out = engine.injectors[msg.src].out_port
        dst = port_id(engine.topo.edge_link_of_endpoint(msg.dst), 1)
        assert chunk.path == (out, *route, dst)
    assert len(paths) > 100
    assert all(len(ids) <= visits[key] for key, ids in paths.items())
    assert sum(visits[key] == 1 for key in paths) > 100

    engine, report = run(workload, cc)
    assert report.incomplete_messages == 0
    assert all(m.route is None and m.path == () for m in engine.messages)


def two_phases(first, second, barrier):
    return Schedule((Phase(first), Phase(second)), barrier=barrier)


@pytest.mark.parametrize("schedule", [
    # ranks 2 and 3 take no part in phase 0
    two_phases(((0, 1, 4 * KIB, False),), ((2, 3, 4 * KIB, False),), "rank"),
    # nothing to wait for in the leading phase
    two_phases((), ((0, 1, 4 * KIB, False),), "global"),
], ids=["rank_absent_from_phase_0", "empty_leading_phase"])
def test_barrier_passes_phases_without_work(schedule):
    _, report = run((Placement(4, (0, 17, 34, 51)), schedule),
                    duration_s=1e-3)
    assert report.incomplete_messages == 0
    assert not any(m.failed for m in report.messages)


def loads(*workloads):
    """Bad input: ``workloads`` loaded into one engine in turn."""
    def load_all(engine):
        for workload in workloads:
            engine.load(*workload)
    return load_all


def overlapping_flaps(engine):
    """Bad input: two flaps of one link, the second down while the first
    still holds it down."""
    link = first_global(engine.topo)
    engine.inject_fault(link, 0.0, 10e-6)
    engine.inject_fault(link, 5e-6, 10e-6)


ONE_MESSAGE = (Placement(2, (0, 17)),
               Schedule((Phase(((0, 1, 4 * KIB, False),)),)))


@pytest.mark.parametrize("bad", [
    loads((Placement(2, (0, 1)),
           Schedule((Phase(((0, 1, 4 * KIB, False),)),), barrier="Global"))),
    loads((Placement(2, (0, 1)),
           Schedule((Phase(((0, 1, 4 * KIB, False),)),), window=-1))),
    loads((Placement(2, (0, 128)), Schedule((Phase(((0, 1, 4 * KIB, False),)),)))),
    loads((Placement(2, (0,)), Schedule((Phase(((0, 1, 4 * KIB, False),)),)))),
    loads((Placement(2, (0, 17)),
           Schedule((Phase(((0, 1, 4 * KIB, False), (0, 1, 0, False))),)))),
    loads((Placement(2, (0, 17)),
           Schedule((Phase(((0, 1, 0, False), (0, 1, 0, False))),)))),
    loads((Placement(2, (0, 17)), Schedule((Phase(((0, 1, -1, False),)),)))),
    loads((Placement(2, (0, 17)), Schedule((), traffic_class=99))),
    loads(ONE_MESSAGE, ONE_MESSAGE),
    overlapping_flaps,
], ids=["unknown_barrier", "negative_window", "endpoint_past_fabric",
        "rank_without_endpoint", "empty_message_behind_another",
        "two_empty_messages", "negative_size",
        "unknown_class_without_messages", "second_load",
        "overlapping_flaps_of_one_link"])
def test_bad_schedule_is_rejected(bad):
    """Bad workloads and faults fail fast with ``SimConfigError``.  An empty
    message would cut one chunk of no bytes, which arbitration never serves
    (it serves a class only while it has bytes queued), so the message
    would stay incomplete to the end of the run.  A second load would keep
    the first one's messages but drop their rank queues, so they would
    never issue.  A flap overlapping an earlier one of its link would be
    ended by the earlier one's end."""
    with pytest.raises(SimConfigError):
        bad(make_engine())


def test_rejected_load_installs_nothing():
    """A load that fails on its second message installs none of the
    first, so the engine still takes one load."""
    engine = make_engine()
    with pytest.raises(SimConfigError):
        engine.load(Placement(2, (0, 17)), Schedule((Phase(
            ((0, 1, 4 * KIB, False), (0, 2, 4 * KIB, False))),)))
    assert engine.messages == [] and engine.unresolved == 0
    report = run_loaded(engine, ONE_MESSAGE)
    assert len(report.messages) == 1 and report.incomplete_messages == 0


def test_overlapping_flaps_name_the_link_and_both_windows():
    """The error names the link and both down windows; a flap that starts
    as another of its link ends does not overlap it."""
    engine = make_engine()
    link = first_global(engine.topo)
    engine.inject_fault(link, 0.0, 10e-6)
    engine.inject_fault(link, 10e-6, 10e-6)
    with pytest.raises(SimConfigError,
                       match=rf"link {link} .*\[5e-06, 1\.5.*\[0\.0, 1e-05\)"):
        engine.inject_fault(link, 5e-6, 10e-6)
    assert len(engine._faults) == 2


@pytest.mark.parametrize("config", [
    dict(sweep_interval_s=0.0),
    dict(sweep_interval_s=-1e-3),
], ids=["zero_sweep_interval", "negative_sweep_interval"])
def test_bad_config_is_rejected(config):
    """A zero sweep interval re-fires its sweep at one instant forever and a
    negative one moves the clock back."""
    with pytest.raises(SimConfigError):
        make_engine(**config)


def test_seed_other_than_the_routers_is_rejected():
    """A run has one seed: the report records ``SimConfig.seed``, so it must
    be the seed the router's sampling draws from."""
    with pytest.raises(SimConfigError, match=r"seed 2 .* seed 1"):
        make_engine(seed=2)  # the router of make_engine has seed 1


@pytest.mark.parametrize("other", ["overlay", "topology"])
def test_router_on_another_overlay_or_topology_is_rejected(other):
    """Faults write the engine's overlay and sweeps read the router's, so
    with a router on a second overlay a sweep never excludes a link that a
    flap took down.  The engine takes only a router built on its own
    topology and overlay, and the error names the one that differs."""
    topo = build_topology(bench_spec())
    overlay = StateOverlay(topo)
    router_topo = build_topology(bench_spec()) if other == "topology" else topo
    router = Router(router_topo, StateOverlay(router_topo), RoutingPolicy(),
                    seed=1)
    with pytest.raises(SimConfigError, match=other):
        Engine(topo, overlay, router, default_profile(), SimConfig(seed=1))


@pytest.mark.parametrize("config", [
    dict(duration_s=float("nan")),
    dict(duration_s=0.0),
], ids=["nan_duration", "zero_duration"])
def test_negative_or_nan_setting_is_rejected(config):
    """A run whose duration is NaN never ends, and one of no duration runs
    nothing: the engine rejects both before a nonempty workload runs."""
    with pytest.raises(SimConfigError):
        make_engine(**config).load(
            Placement(2, (0, 17)),
            Schedule((Phase(((0, 1, 4 * KIB, False),)),)))


@pytest.mark.parametrize("t_down", [-1e-3, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_fault_outside_simulated_time_is_rejected(t_down):
    """A flap must start at a finite time >= 0, or its first event would
    fire before the clock's start (or never)."""
    engine = make_engine()
    with pytest.raises(SimConfigError):
        engine.inject_fault(first_global(engine.topo), t_down, 30e-6)
    assert not engine._faults


@pytest.mark.parametrize("past_end", [True, False], ids=["len", "negative"])
def test_bad_link_id_fails_fast(past_end):
    """A link id outside ``[0, len(links))`` is rejected by the overlay and
    by ``inject_fault``, and indexing the link table at ``len`` or at
    ``-len - 1`` raises ``IndexError`` instead of computing a link."""
    engine = make_engine()
    links = engine.topo.links
    n = len(links)
    with pytest.raises(TopologyError):
        StateOverlay(engine.topo).set_link_state(n if past_end else -1,
                                                 status="down")
    with pytest.raises(SimConfigError):
        engine.inject_fault(n if past_end else -1, 0.0, 30e-6)
    assert not engine._faults
    with pytest.raises(IndexError):
        links[n if past_end else -n - 1]
