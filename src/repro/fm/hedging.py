"""Hedged requests: duplicate the slow tail, keep the first answer.

A sampling wave's makespan is its slowest call; against a real provider
the p99 call is routinely 10× the median (a cold shard, a bad pop, a GC
pause server-side).  The classic tail-latency remedy (Dean & Barroso,
"The Tail at Scale") is to *hedge*: once a call has outlived a high
quantile of observed latency, issue a duplicate and take whichever
answer lands first.

:class:`HedgePolicy`
    Configuration: which latency quantile arms the hedge, how many
    observations the estimate needs before quantiles are trusted, and a
    fixed fallback delay for the cold start.
:class:`LatencyTracker`
    A bounded, thread-safe reservoir of observed call latencies and the
    quantile estimate over it.

The executors only hedge calls against **stateless** clients
(:meth:`~repro.fm.base.FMClient.is_stateless`): a hedge is a second
physical send of the *same* logical call, which is only well-defined
when completing a call consumes no per-call client state.  Seeded
deterministic clients (simulator counter, scripted cursor) therefore
never see a hedge — enabling hedging cannot perturb their
submission-order reservation contract, which is what keeps the
serial == thread identity suites green with hedging on.

Exactly one :class:`~repro.fm.executor.FMResult` per logical request
reaches the ledger: the loser is abandoned and its response — if it
ever materialises — is tallied only in the ledger's dedicated hedge
counters, never in ``n_calls``/``cost_usd``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

__all__ = ["HedgePolicy", "LatencyTracker"]


@dataclass(frozen=True)
class HedgePolicy:
    """When to issue a duplicate request.

    ``quantile`` of the observed latency distribution arms the hedge
    (0.95: only the slowest ~5% of calls ever pay for a duplicate).
    Until ``min_observations`` latencies have been seen the tracker has
    no trustworthy tail estimate; ``initial_delay_s`` bridges that cold
    start (``None`` disables hedging until the estimate warms up).
    ``min_delay_s`` floors the armed delay so a tight latency
    distribution cannot degenerate into hedging every call instantly.
    """

    quantile: float = 0.95
    min_observations: int = 10
    initial_delay_s: float | None = None
    min_delay_s: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        if self.min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {self.min_observations}"
            )

    def delay_s(self, tracker: "LatencyTracker") -> float | None:
        """Seconds to wait before hedging, or ``None`` (don't hedge)."""
        estimate = tracker.quantile(self.quantile, self.min_observations)
        if estimate is None:
            if self.initial_delay_s is None:
                return None
            return max(self.min_delay_s, self.initial_delay_s)
        return max(self.min_delay_s, estimate)


class LatencyTracker:
    """Bounded reservoir of observed per-call wall latencies.

    Keeps the most recent ``window`` observations (a deque, O(1) insert)
    so the estimate tracks the provider's *current* behaviour instead of
    averaging over a whole run.  Thread-safe: executors observe from
    worker threads.
    """

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()
        self.n_observed = 0

    def observe(self, latency_s: float) -> None:
        if latency_s < 0:
            return
        with self._lock:
            self._window.append(latency_s)
            self.n_observed += 1

    def quantile(self, q: float, min_observations: int = 1) -> float | None:
        """The *q*-quantile of the window, or ``None`` below the floor.

        Nearest-rank on the sorted window — simple, monotone, and exact
        for the small windows involved.
        """
        with self._lock:
            if len(self._window) < min_observations:
                return None
            ordered = sorted(self._window)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def snapshot(self) -> dict[str, float | int | None]:
        with self._lock:
            window = list(self._window)
        return {
            "n_observed": self.n_observed,
            "window": len(window),
            "p50": self._rank(window, 0.50),
            "p95": self._rank(window, 0.95),
        }

    @staticmethod
    def _rank(ordered_source: list[float], q: float) -> float | None:
        if not ordered_source:
            return None
        ordered = sorted(ordered_source)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return round(ordered[rank], 6)
