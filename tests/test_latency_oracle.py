"""Closed-form latency of one message on the idle bench fabric.

An ordered message keeps its pinned route of ``h`` fabric hops, so its
chunks cross ``h + 2`` links of rate ``bw``: the source edge link, the
fabric hops and the destination edge link.  With nothing else queued, the
first chunk (``min(size, q)`` bytes for quantum ``q``) is serialised on every
link, every other byte only on the last one, and the propagation delays add
up once:

    latency = 2 * endpoint_latency + h * per_hop_latency
              + (size + (h + 1) * min(size, q)) / bw

Every link runs ``lanes`` of its four lanes, so ``bw`` is the spec's
bandwidth times ``lanes / 4``.  The lanes are set on the overlay before the
run, so each port must take its rate from the overlay, not from the spec.

That holds while the credit pool of each hop (``POOL_CHUNKS`` chunks) covers
the round trip of its credit.  At 25 GB/s a 700 ns endpoint latency is
17.5 KB on the wire, more than 8 chunks of 512 or 1000 B, so there the
pipeline stalls on credit and the formula is only a lower bound.

Unordered chunks would re-route on the live view after the first
congestion tick, so a long message could change its path mid-way; the
ordered message keeps one path, which the oracle needs.
"""

from hypothesis import given, settings, strategies as st

from slingsim.qos import BEST_EFFORT

from test_engine_digest import Phase, Placement, Schedule, make_engine, \
    run_loaded

MAX_SIZE = 1 << 20


def endpoint_pairs():
    total = make_engine().topo.total_endpoints
    return st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)) \
        .filter(lambda pair: pair[0] != pair[1])


def latency_and_formula(size: int, src: int, dst: int, quantum: int,
                        lanes: int | None = None):
    """The engine's latency of one ordered ``size``-byte message from ``src``
    to ``dst`` with CC off and ``lanes`` active lanes on every link (all
    when None), and the closed form for its pinned route."""
    engine = make_engine(cc=False, chunk_quantum_bytes=quantum)
    spec = engine.topo.spec
    lanes = lanes or spec.lanes_per_link
    for link in range(len(engine.topo.links)):
        engine.overlay.set_link_state(link, active_lanes=lanes)
    # the engine's first decision, made at issue on an idle view
    hops = len(make_engine(cc=False).router.select_route(
        src, dst, BEST_EFFORT, True))
    report = run_loaded(engine, (Placement(2, (src, dst)),
                                 Schedule((Phase(((0, 1, size, True),)),))))
    (msg,) = report.messages
    assert not msg.failed and report.delivered_bytes == size
    bw = spec.link_bw_per_dir * lanes / spec.lanes_per_link
    formula = (2 * spec.endpoint_latency + hops * spec.per_hop_latency
               + (size + (hops + 1) * min(size, quantum)) / bw)
    return msg.completion_time - msg.issue_time, formula


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, MAX_SIZE), pair=endpoint_pairs(),
       quantum=st.sampled_from([4096, 8192, 65536]),
       lanes=st.integers(1, 4))
def test_idle_latency_matches_closed_form(size, pair, quantum, lanes):
    latency, formula = latency_and_formula(size, *pair, quantum, lanes)
    assert abs(latency - formula) <= 1e-9 * formula


@settings(max_examples=50, deadline=None)
@given(size=st.integers(1, MAX_SIZE), pair=endpoint_pairs(),
       quantum=st.sampled_from([512, 1000]))
def test_credit_limited_latency_is_at_least_closed_form(size, pair, quantum):
    latency, formula = latency_and_formula(size, *pair, quantum)
    assert latency >= formula * (1 - 1e-9)
