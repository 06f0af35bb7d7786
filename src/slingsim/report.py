"""Simulation reports: per-message records, series, digests and exports."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class MessageRecord:
    id: int
    src: int
    dst: int
    src_rank: int
    dst_rank: int
    size: int
    traffic_class: int
    ordered: bool
    issue_time: float
    completion_time: float  # -1.0 when not completed
    failed: bool

    @property
    def completed(self) -> bool:
        return self.completion_time >= 0.0

    @property
    def latency(self) -> float:
        return self.completion_time - self.issue_time


@dataclass(frozen=True, slots=True)
class TimeoutEvent:
    time: float
    link: int
    link_kind: str  # 'edge' | 'local' | 'global'
    node: int  # owning node for edge links, -1 for fabric links
    message_id: int


@dataclass(frozen=True, slots=True)
class FlapEvent:
    link: int
    link_kind: str
    node: int
    t_down: float
    duration: float


@dataclass
class SimReport:
    """Immutable-by-convention result of one simulation run."""

    seed: int
    duration: float  # simulated time actually covered
    messages: list[MessageRecord]
    per_endpoint_delivered: dict[int, int]
    series: list[tuple[float, float, int, int]]  # t, bw, inflight, timeouts_cum
    timeout_events: list[TimeoutEvent]
    flap_events: list[FlapEvent]
    injected_bytes: int
    delivered_bytes: int
    failed_bytes: int
    digest: str = ""

    def __post_init__(self):
        if not self.digest:
            self.digest = self._compute_digest()

    def _compute_digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.seed).encode())
        for m in self.messages:
            h.update(
                f"{m.id},{m.src},{m.dst},{m.size},{m.traffic_class},"
                f"{int(m.ordered)},{m.issue_time!r},{m.completion_time!r},"
                f"{int(m.failed)};".encode())
        for t in self.timeout_events:
            h.update(f"{t.time!r},{t.link},{t.message_id};".encode())
        for row in self.series:
            h.update(repr(row).encode())
        h.update(f"{self.injected_bytes},{self.delivered_bytes},"
                 f"{self.failed_bytes},{self.timeout_count}".encode())
        return h.hexdigest()

    # -- aggregates ---------------------------------------------------------

    @property
    def timeout_count(self) -> int:
        return len(self.timeout_events)

    @property
    def incomplete_messages(self) -> int:
        """Messages neither completed nor failed."""
        return sum(1 for m in self.messages if not (m.completed or m.failed))

    def completed_messages(self) -> list[MessageRecord]:
        return [m for m in self.messages if m.completed]

    def makespan(self) -> float:
        done = self.completed_messages()
        if not done:
            return 0.0
        start = min(m.issue_time for m in done)
        end = max(m.completion_time for m in done)
        return end - start

    def aggregate_bandwidth(self) -> float:
        span = self.makespan()
        if span <= 0:
            return 0.0
        delivered = sum(m.size for m in self.completed_messages())
        return delivered / span

    def latency_stats(self) -> tuple[float, float, float]:
        """(mean, max, p99) over completed messages, zeros when empty."""
        lats = sorted(m.latency for m in self.completed_messages())
        if not lats:
            return 0.0, 0.0, 0.0
        mean = sum(lats) / len(lats)
        p99 = lats[min(len(lats) - 1, int(0.99 * len(lats)))]
        return mean, lats[-1], p99

    # -- exports -------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "duration_s": self.duration,
            "digest": self.digest,
            "timeouts": self.timeout_count,
            "injected_bytes": self.injected_bytes,
            "delivered_bytes": self.delivered_bytes,
            "failed_bytes": self.failed_bytes,
            "incomplete_messages": self.incomplete_messages,
            "aggregate_bw_bytes_per_s": self.aggregate_bandwidth(),
            "makespan_s": self.makespan(),
            "per_endpoint_delivered": {
                str(k): v for k, v in sorted(self.per_endpoint_delivered.items())},
            "messages": [
                {
                    "id": m.id, "src": m.src, "dst": m.dst,
                    "src_rank": m.src_rank, "dst_rank": m.dst_rank,
                    "size": m.size, "traffic_class": m.traffic_class,
                    "ordered": m.ordered, "issue_time": m.issue_time,
                    "completion_time": m.completion_time, "failed": m.failed,
                }
                for m in self.messages
            ],
            "flaps": [
                {"link": f.link, "t_down": f.t_down, "duration": f.duration}
                for f in self.flap_events
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=1)


def summarize(report: SimReport) -> str:
    """One-line run summary; the leading sentence format is load-bearing for
    log scrapers and must stay exactly 'Network Summary: {N} network
    timeouts.'"""
    mean, _mx, p99 = report.latency_stats()
    return (
        f"Network Summary: {report.timeout_count} network timeouts. "
        f"agg_bw={report.aggregate_bandwidth():.3e} B/s "
        f"delivered={report.delivered_bytes} B "
        f"mean_latency={mean:.3e} s p99_latency={p99:.3e} s "
        f"failed={report.failed_bytes} B seed={report.seed}"
    )
