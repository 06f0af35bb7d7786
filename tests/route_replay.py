"""Record the route decisions of a benchmark run and replay them.

    python3 tests/route_replay.py [--workload NAME] [--seed N] [--repeats N]

``record`` runs one ``perfbench`` workload once through the benchmark's own
``harness`` and records every ``Router._decide`` call: its endpoints, its
congestion view, the router's tables at the time and its pick, a route or
the ``NoRouteError`` message.  ``check`` makes the same calls, in order, on
a fresh live ``Router`` and on the frozen selection in ``routing_reference``
and requires both to give the recorded picks and to leave their RNGs in the
same state after every call.  Run as a script, it times each of the two
alone on the recorded calls and prints microseconds per decision: route
choice measured apart from the rest of the run, on real traffic.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(TESTS), str(ROOT / "perfbench"), str(ROOT / "src")]

import routing_reference  # noqa: E402
from harness import check_finished, run_with_budget, set_up  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from slingsim.routing import NoRouteError, Router  # noqa: E402


@dataclass
class Recording:
    router: Router  # the recorded run's router, past its last decision
    calls: list  # (src endpoint, dst endpoint, view, tables, pick)


def outcome(decide, src: int, dst: int, view):
    """``decide(src, dst, view)``, or the message of its ``NoRouteError``."""
    try:
        return decide(src, dst, view)
    except NoRouteError as e:
        return f"NoRouteError: {e}"


def record(name: str, seed: int) -> Recording:
    """Run workload ``name`` on ``seed`` once and record its decisions."""
    wdef = WORKLOADS[name]
    engine = set_up(wdef, wdef.make(wdef.spec, seed), seed).engine
    router = engine.router
    decide = router._decide
    calls = []

    def recorded(src, dst, view):
        pick = outcome(decide, src, dst, view)
        calls.append((src, dst, view, router.tables, pick))
        if isinstance(pick, str):
            raise NoRouteError(pick.removeprefix("NoRouteError: "))
        return pick

    router._decide = recorded
    report = run_with_budget(engine, wdef.budget_s)
    if report is None:
        raise RuntimeError(f"{name} outran its {wdef.budget_s} s budget")
    check_finished(report, engine)
    del router._decide
    return Recording(router, calls)


def fresh(rec: Recording):
    """A live router and a reference selector in the recorded router's
    starting state."""
    r = rec.router
    return (Router(r.topo, r.overlay, r.policy, r.seed),
            routing_reference.Selector(r.topo, r.policy, r.seed))


def check(rec: Recording) -> None:
    """Replay every recorded call on a fresh live router and on the
    reference; raise AssertionError at the first difference."""
    live, ref = fresh(rec)
    for n, (src, dst, view, tables, pick) in enumerate(rec.calls):
        live.tables = ref.tables = tables
        got = outcome(live._decide, src, dst, view)
        want = outcome(ref._decide, src, dst, view)
        assert got == want == pick, (n, src, dst, got, want, pick)
        assert live.rng.getstate() == ref.rng.getstate(), (n, src, dst)


def time_replay(rec: Recording, selector) -> float:
    """Seconds ``selector`` takes to make every recorded call."""
    calls = rec.calls
    decide = selector._decide
    t0 = perf_counter()
    for src, dst, view, tables, _ in calls:
        selector.tables = tables
        try:
            decide(src, dst, view)
        except NoRouteError:
            pass
    return perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                    help="workload to replay (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed replays per selector; the minimum is shown")
    args = ap.parse_args()
    for name in args.workload or sorted(WORKLOADS):
        rec = record(name, args.seed)
        check(rec)
        n = len(rec.calls)
        best = [min(time_replay(rec, fresh(rec)[side])
                    for _ in range(args.repeats)) for side in (0, 1)]
        print(f"{name} seed {args.seed}: {n} decisions, "
              f"live {best[0] / n * 1e6:.2f} us, "
              f"reference {best[1] / n * 1e6:.2f} us per decision")


if __name__ == "__main__":
    main()
