"""Adaptive concurrency: AIMD control over the executors' in-flight bound.

A fixed semaphore is the wrong tool against a real, rate-limited API: set
it low and fast hours waste capacity, set it high and every sampling wave
slams into 429 storms whose retries spend budget without producing
features.  TCP solved the same problem decades ago with
additive-increase / multiplicative-decrease: probe capacity gently,
collapse quickly on congestion signals.

:class:`AIMDController`
    The policy: a float concurrency limit in ``[floor, ceiling]``.
    Every successful call adds ``increase / limit`` (≈ +1 per full
    window of successes, the classic per-RTT additive probe); every
    backpressure signal — HTTP 429 or 5xx surfaced as
    :class:`~repro.fm.errors.FMRateLimitError` /
    :class:`~repro.fm.errors.FMServerError` — multiplies the limit by
    ``decrease``.  Deterministic: the limit is a pure function of the
    observed event sequence, never of wall-clock time.
:class:`ConcurrencyGate`
    A condition-variable admission gate for the thread-pool executor:
    ``acquire`` blocks while the in-flight count is at or above the
    controller's current (integer) limit, so a collapsed limit throttles
    new dispatches immediately while already-running calls drain.

One controller may be shared by several executors: every method takes
the controller's lock, and the gates re-read the limit on every wakeup,
so a decrease propagates to all parties at their next admission
decision.
"""

from __future__ import annotations

import threading

from repro.fm.errors import FMRateLimitError, FMServerError

__all__ = ["AIMDController", "ConcurrencyGate", "is_backpressure"]


def is_backpressure(error: Exception) -> bool:
    """Whether *error* signals the server shedding load (429 / 5xx).

    Timeouts and connection resets are *not* backpressure: they are as
    often a network path problem as an overloaded server, and halving
    concurrency on every flaky packet would starve healthy endpoints.
    """
    return isinstance(error, (FMRateLimitError, FMServerError))


class AIMDController:
    """Additive-increase / multiplicative-decrease concurrency limit.

    Parameters
    ----------
    ceiling:
        Upper bound — the executor's configured concurrency.  The
        controller only ever *reduces* below what the caller asked for.
    floor:
        Lower bound (≥ 1): even a storm keeps one probe in flight,
        otherwise recovery could never be observed.
    start:
        Initial limit; defaults to the ceiling (optimistic start, like
        the executors behaved before adaptivity existed).
    increase:
        Additive probe size per *window* of successes: each success adds
        ``increase / current_limit``, so a full window's worth of
        successes raises the limit by ``increase``.
    decrease:
        Multiplicative factor applied per backpressure event (0.5 is
        TCP's classic halving).
    """

    def __init__(
        self,
        ceiling: int,
        floor: int = 1,
        start: float | None = None,
        increase: float = 1.0,
        decrease: float = 0.5,
    ) -> None:
        if floor < 1:
            raise ValueError(f"floor must be >= 1, got {floor}")
        if ceiling < floor:
            raise ValueError(f"ceiling {ceiling} must be >= floor {floor}")
        if not 0.0 < decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        if increase <= 0.0:
            raise ValueError(f"increase must be > 0, got {increase}")
        self.ceiling = ceiling
        self.floor = floor
        self.increase = increase
        self.decrease = decrease
        self._limit = float(ceiling if start is None else start)
        self._limit = min(float(ceiling), max(float(floor), self._limit))
        self._lock = threading.Lock()
        self.n_successes = 0
        self.n_backpressure = 0
        #: Gates subscribe so a limit raise wakes their waiters.
        self._listeners: list = []

    # ------------------------------------------------------------------
    @property
    def limit(self) -> int:
        """The current admission limit (integer, ≥ floor)."""
        with self._lock:
            return max(self.floor, int(self._limit))

    def on_success(self) -> None:
        """Additive probe: one completed call went through cleanly."""
        with self._lock:
            self.n_successes += 1
            before = max(self.floor, int(self._limit))
            self._limit = min(
                float(self.ceiling), self._limit + self.increase / max(1.0, self._limit)
            )
            raised = max(self.floor, int(self._limit)) > before
        if raised:
            self._notify()

    def on_backpressure(self) -> None:
        """Multiplicative decrease: the server shed load (429 / 5xx)."""
        with self._lock:
            self.n_backpressure += 1
            self._limit = max(float(self.floor), self._limit * self.decrease)

    def observe(self, error: Exception | None) -> None:
        """Feed one call outcome: ``None`` for success, else the error."""
        if error is None:
            self.on_success()
        elif is_backpressure(error):
            self.on_backpressure()

    # ------------------------------------------------------------------
    def subscribe(self, listener) -> None:
        """Register a gate's ``_on_limit_raised`` callback."""
        with self._lock:
            self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in list(self._listeners):
            listener()

    def snapshot(self) -> dict[str, float | int]:
        with self._lock:
            return {
                "limit": max(self.floor, int(self._limit)),
                "limit_raw": round(self._limit, 3),
                "floor": self.floor,
                "ceiling": self.ceiling,
                "n_successes": self.n_successes,
                "n_backpressure": self.n_backpressure,
            }


class ConcurrencyGate:
    """Thread admission gate driven by an :class:`AIMDController`.

    Unlike a semaphore, the bound is re-read from the controller on every
    admission decision, so a mid-batch decrease throttles the *next*
    dispatch without needing to revoke permits already handed out.
    """

    def __init__(self, controller: AIMDController) -> None:
        self.controller = controller
        self._cond = threading.Condition()
        self._active = 0
        controller.subscribe(self._on_limit_raised)

    def _on_limit_raised(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def acquire(self) -> None:
        with self._cond:
            while self._active >= self.controller.limit:
                self._cond.wait()
            self._active += 1

    def release(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def __enter__(self) -> "ConcurrencyGate":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    @property
    def active(self) -> int:
        with self._cond:
            return self._active

