"""Run one slingsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload perm_1m --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
The run repeats set-up and ``Engine.run`` for about ``--seconds`` host
seconds and reports medians.  With ``--trace 0`` it prints the end-to-end
metrics, measured with tracing off; with ``--trace 1`` it alternates untraced
and traced repetitions and prints the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record of
the run (environment, per-repetition figures, simulated outputs) is written
to ``perfbench/out/``.  Exit status: 0 when every output check passed, 1
when one failed, 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# before each untraced repetition, set-up alone is repeated for at least this
# long (and at least once), so setup_s is a median of samples spread over
# the whole run even where one set-up takes a millisecond
SETUP_ROUND_S = 0.25
# a traced re-run of a stopped workload, to count zero-advance events
DIAGNOSE_BUDGET_S = 1.0

NOTES = {
    "host": "no CPU pinning or frequency control is available on the "
            "measuring host, so host times include noise from other work "
            "sharing its CPUs",
    "model": "unvalidated: the repository holds no reference hardware data, "
             "so simulated figures carry no error estimate",
}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def git_sha() -> str | None:
    """HEAD commit read from ``.git`` without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
        **NOTES,
    }


def check_digest_history(key: str, digest: str) -> None:
    """Compare with earlier runs of the same sources, workload and seed."""
    from harness import CheckError

    path = OUT / "digests.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if seen.setdefault(key, digest) != digest:
        raise CheckError(f"digest {digest} differs from {seen[key]} recorded "
                         f"by an earlier run of {key}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)


def measure(args) -> tuple[dict, list, list, list]:
    """Repetitions of set-up + run until the time is up, each preceded by
    set-up alone when untraced.  Returns the workload record and the set-up
    times, untraced and traced results."""
    from harness import set_up, run_rep
    from workloads import WORKLOADS

    wdef = WORKLOADS[args.workload]
    workload = wdef.make(wdef.spec, args.seed)
    deadline = perf_counter() + args.seconds
    setups: list[float] = []
    plain, traced = [], []
    longest = 0.0
    while True:
        t0 = perf_counter()
        want_trace = bool(args.trace) and len(traced) < len(plain)
        while not args.trace:
            setups.append(set_up(wdef, workload, args.seed).setup_s)
            if perf_counter() - t0 >= SETUP_ROUND_S:
                break
        rep = run_rep(wdef, workload, args.seed, traced=want_trace)
        (traced if want_trace else plain).append(rep)
        longest = max(longest, perf_counter() - t0)
        if plain and (traced or not args.trace) \
                and perf_counter() + longest > deadline:
            break
    record = {"workload": args.workload, "messages": workload.message_count,
              "budget_s": wdef.budget_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if not args.trace and any(r.stopped for r in plain):
        diag = run_rep(wdef, workload, args.seed, traced=True,
                       budget_s=DIAGNOSE_BUDGET_S)
        record["stopped_diagnosis"] = {
            "budget_s": DIAGNOSE_BUDGET_S, **diag.identity,
            "engine.zero_advance_events": diag.layers["engine.zero_advance_events"],
            "engine.events": diag.layers["engine.events"]}
    return record, setups, plain, traced


def rep_row(rep) -> dict:
    return {"setup_s": rep.setup_s, "run_s": rep.run_s,
            "traced": rep.layers is not None, "stopped": rep.stopped,
            "sim_time_s": rep.sim_time_s, "messages": rep.messages,
            "unresolved": rep.unresolved,
            "delivered_chunks": rep.delivered_chunks, **rep.identity}


def end_to_end(setups, plain, peak_rss_mb: float) -> dict[str, float]:
    messages = sum(r.messages for r in plain)
    unresolved = sum(r.unresolved for r in plain)
    return {
        "setup_s": statistics.median(setups + [r.setup_s for r in plain]),
        "run_s": statistics.median(r.run_s for r in plain),
        "chunks_per_s": statistics.median(r.delivered_chunks / r.run_s
                                          for r in plain),
        "peak_rss_mb": peak_rss_mb,
        "completed_frac": 1 - unresolved / messages,
    }


def per_layer(plain, traced) -> dict[str, float]:
    layers = {name: statistics.median(r.layers[name] for r in traced)
              for name in traced[0].layers}
    layers["trace.overhead_frac"] = (
        statistics.median(r.run_s for r in traced)
        / statistics.median(r.run_s for r in plain) - 1)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slingsim" / "engine.py").is_file():
        print(f"error: slingsim sources not found in {SRC}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import CheckError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    errors: list[str] = []
    try:
        record, setups, plain, traced = measure(args)
    except CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    reps = plain + traced
    finished = {r.identity["digest"] for r in reps if not r.stopped}
    if len(finished) > 1:
        errors.append(f"digests differ between repetitions: {sorted(finished)}")
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    if len(finished) == 1:
        try:
            check_digest_history(
                f"{env['source_sha256'][:16]}/{args.workload}/{args.seed}",
                next(iter(finished)))
        except CheckError as exc:
            errors.append(str(exc))

    attempted = sum(r.messages for r in reps)
    failed = sum(r.unresolved for r in reps)
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(setups, plain, record["peak_rss_mb"]))
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} are "
                      "measured or declared in BENCHMARK.json, not both")
    record.update(
        trace=args.trace, seconds=args.seconds, environment=env,
        failed_frac=failed / attempted, metrics=metrics, setup_only_s=setups,
        repetitions=[rep_row(r) for r in reps], errors=errors)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced repetitions, "
          f"{len(setups)} extra set-ups; {NOTES['model']}")
    for r in reps:
        tag = "traced " if r.layers is not None else "untraced"
        what = (f"STOPPED at sim t={r.sim_time_s:.9g} s, {r.unresolved} of "
                f"{r.messages} messages unresolved" if r.stopped
                else f"digest {r.identity['digest'][:16]}")
        print(f"  {tag} setup_s={r.setup_s:.6f} run_s={r.run_s:.4f} {what}")
    if "stopped_diagnosis" in record:
        print(f"  stopped run re-run traced: {record['stopped_diagnosis']}")
    print(f"  failed_frac {record['failed_frac']:.6g} frac")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units.get(name, '?')}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
