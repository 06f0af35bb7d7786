"""Congestion management: detection on NIC delivery queues and injection
throttles on the sources feeding them.

A run with ``SimConfig.cc_enabled`` set keeps one ``Watch`` per
switch-to-NIC port it makes.  The engine stamps ``watch.contributors[src]``
when a chunk from source endpoint ``src`` joins the port's queue, calls
``CongestionManager.update`` every tick and wakes the sources it returns,
and injects toward the port only as ``CongestionManager.bucket`` allows.

A queue above ``CC_THETA_CHUNKS`` chunks for ``CC_TAU_S`` marks its link
congested.  Each tick after that drops the contributors not seen within
``CC_TAU_S``, unless all are stale, and holds each one left to an equal
split of the link rate (a ``qos.TokenBucket`` with one chunk of burst).  A
queue below half the threshold for ``CC_TAU_S`` releases the link: its
buckets and contributors go.  Traffic to other destinations is never
throttled.
"""

from __future__ import annotations

from slingsim.qos import TokenBucket

CC_THETA_CHUNKS = 4  # detection threshold of a watched queue, in chunks
CC_TAU_S = 10.0 * 1e-6  # dwell before detection and release; contributor age


class Watch:
    """Congestion state of one watched port (anything with ``link_id`` and
    ``occ``, its queued bytes).  ``since`` is when the queue crossed toward
    the other state (above the threshold while clear, below half of it
    while ``detected``), -1.0 if it has not; a flip of ``detected`` resets
    it.  ``contributors`` maps each source that fed the queue to the last
    time it did, and ``buckets`` each throttled source to its throttle."""

    __slots__ = ("port", "detected", "since", "contributors", "buckets")

    def __init__(self, port):
        self.port = port
        self.detected = False
        self.since = -1.0
        self.contributors: dict[int, float] = {}
        self.buckets: dict[int, TokenBucket] = {}


class CongestionManager:
    """The watches of one run by port id, in the order ``update`` visits
    them: the order they were made.  ``overlay`` gives each watched link's
    effective bandwidth, and ``quantum`` is the chunk size."""

    def __init__(self, overlay, quantum: int):
        self.overlay = overlay
        self.theta = CC_THETA_CHUNKS * quantum
        self.burst = float(quantum)
        self.watches: dict[int, Watch] = {}

    def watch(self, port) -> Watch:
        watch = self.watches[port.id] = Watch(port)
        return watch

    def bucket(self, src: int, pid: int) -> TokenBucket | None:
        """The throttle on ``src`` toward port ``pid``, if any."""
        watch = self.watches.get(pid)
        return None if watch is None else watch.buckets.get(src)

    def update(self, now: float) -> list[int]:
        """Advance every watch to ``now``: retune the throttles of detected
        links, then detect or release.  Returns the sources whose throttle
        went, each once per throttle, watch by watch and in source order."""
        woken: list[int] = []
        for watch in self.watches.values():
            if watch.detected:
                self._retune(watch, now, woken)
                crossing = watch.port.occ < self.theta / 2
            else:
                crossing = watch.port.occ > self.theta
            if not crossing:
                watch.since = -1.0
                continue
            if watch.since < 0:
                watch.since = now
            if now - watch.since < CC_TAU_S:
                continue
            watch.since = -1.0
            watch.detected = not watch.detected
            if watch.detected:
                self._retune(watch, now, woken)
            else:
                woken += sorted(watch.buckets)
                watch.buckets.clear()
                watch.contributors.clear()
        return woken

    def _retune(self, watch: Watch, now: float, woken: list[int]) -> None:
        """Drop stale contributors, unthrottle sources that are no longer
        contributors and hold the rest to an equal share of the link."""
        contributors = watch.contributors
        horizon = now - CC_TAU_S
        stale = [src for src, t in contributors.items() if t < horizon]
        if len(stale) < len(contributors):  # else keep the last known feeders
            for src in stale:
                del contributors[src]
        rate = self.overlay.effective_bandwidth(watch.port.link_id) \
            / max(1, len(contributors))
        buckets = watch.buckets
        for src in sorted(buckets.keys() - contributors.keys()):
            del buckets[src]
            woken.append(src)
        for src in contributors:
            bucket = buckets.get(src)
            if bucket is None:
                buckets[src] = TokenBucket(rate, self.burst, now)
            else:
                bucket.refill(now)
                bucket.rate = rate
