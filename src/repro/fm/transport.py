"""A transport-backed FM client: the shape of a real HTTP backend.

Everything above this module treats a foundation model as ``prompt in,
text out``; this module supplies the layer a production deployment puts
under that contract — a request/response **transport** with the failure
modes real APIs actually have (rate limits with ``Retry-After``, server
errors, timeouts, connection resets) and the latency that makes
request-level concurrency worth building.

:class:`Transport`
    The protocol: ``send(TransportRequest) -> TransportResponse``.
:class:`SimulatedHTTPTransport`
    A stand-in HTTP server: per-request latency drawn from a seeded
    distribution, failure injection on every axis, and *real* sleeps
    so measured makespans mean what they claim.  Outcomes are a
    deterministic function of ``(seed, prompt, attempt)`` — independent
    of thread interleaving — so failure-injection tests are reproducible
    under any executor.
:class:`ScriptedTransport`
    Exact outcome scripting for adversarial tests: a list of responses
    and exceptions consumed in send order.
:class:`TransportFMClient`
    An :class:`~repro.fm.base.FMClient` over any transport.  It keeps no
    per-call state (``is_stateless()`` is True) — entropy, retries, and
    rate limiting all live server-side — which is exactly what lets the
    stage scheduler physically fan independent stages out through one
    shared executor with concurrency above 1.

Status mapping (client side): 2xx returns the body text; 429 raises
:class:`~repro.fm.errors.FMRateLimitError` carrying the server's
``Retry-After``; 5xx raises :class:`~repro.fm.errors.FMServerError`;
wire-level :class:`TransportTimeout` / :class:`TransportConnectionReset`
raise :class:`~repro.fm.errors.FMTimeoutError` /
:class:`~repro.fm.errors.FMConnectionError`.  All of these are
:class:`~repro.fm.errors.FMError` subclasses, so the executor's
:class:`~repro.fm.executor.RetryPolicy` drives recovery end-to-end —
including honouring ``Retry-After`` over the computed backoff schedule.
"""

from __future__ import annotations

import abc
import contextvars
import hashlib
import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.fm.base import FMClient
from repro.fm.cost import CostModel
from repro.fm.errors import (
    FMConnectionError,
    FMError,
    FMRateLimitError,
    FMServerError,
    FMTimeoutError,
)
from repro.records import to_record

__all__ = [
    "ScriptedTransport",
    "SimulatedHTTPTransport",
    "Transport",
    "TransportConnectionReset",
    "TransportFMClient",
    "TransportRequest",
    "TransportResponse",
    "TransportTimeout",
]


@dataclass(frozen=True)
class TransportRequest:
    """One wire-level completion request."""

    model: str
    prompt: str
    temperature: float = 0.0


@dataclass(frozen=True)
class TransportResponse:
    """One wire-level answer: an HTTP-style status plus the body text.

    ``retry_after_s`` carries the server's ``Retry-After`` header on 429
    responses; ``latency_s`` is how long the server took (the simulated
    transport reports the latency it actually slept).
    """

    status: int
    text: str = ""
    retry_after_s: float | None = None
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class TransportTimeout(Exception):
    """The wire-level deadline expired before the server answered."""


class TransportConnectionReset(Exception):
    """The connection dropped mid-request (reset, broken pipe)."""


class Transport(abc.ABC):
    """Pluggable request/response channel under :class:`TransportFMClient`.

    Implementations may *return* failure statuses (429, 5xx) or *raise*
    :class:`TransportTimeout` / :class:`TransportConnectionReset` for
    failures that never produce a response — mirroring how an HTTP
    library behaves.
    """

    @abc.abstractmethod
    def send(self, request: TransportRequest) -> TransportResponse:
        """Execute one request, blocking until the response (or failure)."""



# ----------------------------------------------------------------------
# Simulated HTTP transport: latency + failure injection, deterministic.
# ----------------------------------------------------------------------
@dataclass
class TransportStats:
    """Counters a transport accumulates across its lifetime (lock-free
    reads are fine; writers hold the transport's lock)."""

    n_sent: int = 0
    n_ok: int = 0
    n_rate_limited: int = 0
    n_server_errors: int = 0
    n_timeouts: int = 0
    n_resets: int = 0

    def snapshot(self) -> dict[str, int]:
        return to_record(self)


def _default_responder(request: TransportRequest) -> str:
    digest = hashlib.sha256(request.prompt.encode()).hexdigest()[:12]
    return f"simulated completion {digest}"


class SimulatedHTTPTransport(Transport):
    """Models a rate-limited HTTP completion endpoint.

    Parameters
    ----------
    responder:
        ``TransportRequest -> str`` producing the success body.  The
        *server* may be stateful (e.g. delegating to a seeded
        :class:`~repro.fm.simulated.SimulatedFM` for sampling diversity);
        the *client* above this transport stays stateless either way.
    base_latency_s / jitter_s:
        Per-request service time: ``base + U(0, jitter)``, drawn from a
        seeded RNG keyed on ``(seed, prompt, attempt)``.
    rate_limit_rate / server_error_rate / timeout_rate / reset_rate:
        Per-request failure probabilities, evaluated in that order from
        one uniform draw keyed the same way — so a given ``(prompt,
        attempt)`` pair always meets the same fate regardless of how the
        executor interleaves it.  An *attempt* is the per-prompt send
        count this transport has seen, which is how retry recovery
        happens naturally: the first send of a prompt may 429, its retry
        is a different attempt and re-rolls.
    retry_after_s:
        The ``Retry-After`` value attached to 429 responses.
    spike_rate / spike_latency_s:
        Tail-latency injection: with probability ``spike_rate`` a request
        pays ``spike_latency_s`` *extra* service time (a cold shard, a GC
        pause).  The spike roll is drawn *after* the latency and outcome
        rolls from the same keyed RNG, so enabling spikes changes
        nothing about which requests succeed or fail under a given seed —
        it is what hedging benchmarks point their p99 at.
    capacity:
        In-flight admission cap modelling a concurrency-limited server:
        while ``capacity`` requests are being serviced, further sends are
        answered instantly with 429 + ``Retry-After`` (no service time
        consumed).  ``None`` (default) disables the cap.  This is the
        load shape AIMD adapts to — a fixed high client concurrency
        slams into 429 storms, an adaptive one settles near capacity.
    sleep:
        When True (default), actually sleep the drawn latency so
        measured wall clocks reflect real overlap.
        Set False for fast logical tests.
    """

    def __init__(
        self,
        responder: Callable[[TransportRequest], str] | None = None,
        base_latency_s: float = 0.02,
        jitter_s: float = 0.01,
        rate_limit_rate: float = 0.0,
        server_error_rate: float = 0.0,
        timeout_rate: float = 0.0,
        reset_rate: float = 0.0,
        retry_after_s: float = 0.05,
        spike_rate: float = 0.0,
        spike_latency_s: float = 0.0,
        capacity: int | None = None,
        seed: int = 0,
        sleep: bool = True,
    ) -> None:
        total = rate_limit_rate + server_error_rate + timeout_rate + reset_rate
        if total > 1.0:
            raise ValueError(f"failure rates sum to {total}, must be <= 1")
        if not 0.0 <= spike_rate <= 1.0:
            raise ValueError(f"spike_rate must be in [0, 1], got {spike_rate}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.responder = responder or _default_responder
        self.base_latency_s = base_latency_s
        self.jitter_s = jitter_s
        self.rate_limit_rate = rate_limit_rate
        self.server_error_rate = server_error_rate
        self.timeout_rate = timeout_rate
        self.reset_rate = reset_rate
        self.retry_after_s = retry_after_s
        self.spike_rate = spike_rate
        self.spike_latency_s = spike_latency_s
        self.capacity = capacity
        self.seed = seed
        self.sleep = sleep
        self.stats = TransportStats()
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self._in_flight = 0

    # ------------------------------------------------------------------
    def _next_attempt(self, prompt: str) -> int:
        with self._lock:
            attempt = self._attempts.get(prompt, 0) + 1
            self._attempts[prompt] = attempt
            self.stats.n_sent += 1
            return attempt

    def _plan(self, request: TransportRequest) -> tuple[float, str]:
        """Draw (latency, outcome) for this send, keyed on request identity."""
        attempt = self._next_attempt(request.prompt)
        key = f"{self.seed}:{attempt}:{request.prompt}"
        rng = random.Random(key)
        latency = self.base_latency_s + rng.uniform(0.0, self.jitter_s)
        roll = rng.random()
        if roll < self.rate_limit_rate:
            outcome = "rate_limit"
        elif roll < self.rate_limit_rate + self.server_error_rate:
            outcome = "server_error"
        elif roll < self.rate_limit_rate + self.server_error_rate + self.timeout_rate:
            outcome = "timeout"
        elif roll < (
            self.rate_limit_rate
            + self.server_error_rate
            + self.timeout_rate
            + self.reset_rate
        ):
            outcome = "reset"
        else:
            outcome = "ok"
        # Spike roll drawn last so enabling spikes never perturbs the
        # latency/outcome draws of an existing seed.
        if self.spike_rate > 0.0 and rng.random() < self.spike_rate:
            latency += self.spike_latency_s
        return latency, outcome

    def _settle(self, request: TransportRequest, latency: float, outcome: str) -> TransportResponse:
        """Turn a planned outcome into a response or a raised failure."""
        with self._lock:
            if outcome == "ok":
                self.stats.n_ok += 1
            elif outcome == "rate_limit":
                self.stats.n_rate_limited += 1
            elif outcome == "server_error":
                self.stats.n_server_errors += 1
            elif outcome == "timeout":
                self.stats.n_timeouts += 1
            else:
                self.stats.n_resets += 1
        if outcome == "timeout":
            raise TransportTimeout(f"deadline expired after {latency:.3f}s")
        if outcome == "reset":
            raise TransportConnectionReset("connection reset by peer")
        if outcome == "rate_limit":
            return TransportResponse(
                status=429, retry_after_s=self.retry_after_s, latency_s=latency
            )
        if outcome == "server_error":
            return TransportResponse(status=503, latency_s=latency)
        return TransportResponse(
            status=200, text=self.responder(request), latency_s=latency
        )

    # ------------------------------------------------------------------
    # Capacity admission: a concurrency-limited server sheds load with
    # an instant 429 instead of queueing.  Only meaningful when requests
    # spend real time in flight (``sleep=True``).
    def _try_admit(self) -> bool:
        if self.capacity is None:
            return True
        with self._lock:
            if self._in_flight >= self.capacity:
                self.stats.n_sent += 1
                self.stats.n_rate_limited += 1
                return False
            self._in_flight += 1
            return True

    def _release(self) -> None:
        if self.capacity is not None:
            with self._lock:
                self._in_flight -= 1

    def _overload_response(self) -> TransportResponse:
        return TransportResponse(
            status=429, retry_after_s=self.retry_after_s, latency_s=0.0
        )

    # ------------------------------------------------------------------
    def send(self, request: TransportRequest) -> TransportResponse:
        if not self._try_admit():
            return self._overload_response()
        try:
            latency, outcome = self._plan(request)
            if self.sleep and latency > 0:
                time.sleep(latency)
        finally:
            self._release()
        return self._settle(request, latency, outcome)



# ----------------------------------------------------------------------
# Scripted transport: exact adversarial schedules for tests.
# ----------------------------------------------------------------------
class ScriptedTransport(Transport):
    """Replays a scripted sequence of outcomes in send order.

    Each script entry is a :class:`TransportResponse`, an exception
    *instance* to raise (e.g. ``TransportTimeout(...)``), or a plain
    string (shorthand for a 200 response with that body).  The cursor is
    lock-protected; exhaustion raises :class:`TransportConnectionReset`
    (the server hung up), which keeps exhaustion itself retryable and
    visible rather than a test-harness crash.  Every request is appended
    to :attr:`requests` for assertion.
    """

    def __init__(
        self, script: list[TransportResponse | Exception | str]
    ) -> None:
        self.script = list(script)
        self.requests: list[TransportRequest] = []
        self._cursor = 0
        self._lock = threading.Lock()

    def _next(self, request: TransportRequest) -> TransportResponse | Exception:
        with self._lock:
            self.requests.append(request)
            position = self._cursor
            self._cursor += 1
        if position >= len(self.script):
            return TransportConnectionReset(
                f"scripted transport exhausted after {len(self.script)} sends"
            )
        entry = self.script[position]
        if isinstance(entry, str):
            return TransportResponse(status=200, text=entry)
        return entry

    def send(self, request: TransportRequest) -> TransportResponse:
        outcome = self._next(request)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome



# ----------------------------------------------------------------------
# The client: FMClient protocol over a transport.
# ----------------------------------------------------------------------
#: Latency the transport reported for the call this context is building a
#: response for.  Each worker thread has its own context, so concurrent
#: calls can never see each other's measurement, and the client itself
#: stays stateless.
_MEASURED_LATENCY: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "transport_measured_latency", default=None
)


class TransportFMClient(FMClient):
    """An :class:`~repro.fm.base.FMClient` speaking through a transport.

    This is the production shape: all per-call state (rate limiting,
    sampling entropy, retries-seen) lives on the server side of the
    transport, so the client itself is stateless —
    :meth:`~repro.fm.base.FMClient.is_stateless` is True and the stage
    scheduler may physically overlap independent stages through it.
    """

    def __init__(
        self,
        transport: Transport,
        model: str = "transport",
        cost_model: CostModel | None = None,
        cache=None,
        budget=None,
    ) -> None:
        super().__init__(
            model=model,
            cost_model=cost_model or CostModel(model=model),
            cache=cache,
            budget=budget,
        )
        self.transport = transport

    # ------------------------------------------------------------------
    def build_response(self, prompt: str, text: str):
        """Wrap the completion, preferring the transport's *measured*
        latency over the token-modelled estimate.

        Real backends have real latency; reporting the cost model's
        token-based guess for them would make the ledger and per-stage
        schedule attribution fiction.  A transport that reported no
        latency (``latency_s=0.0``, e.g. a bare scripted response) keeps
        the modelled value.
        """
        response = super().build_response(prompt, text)
        measured = _MEASURED_LATENCY.get()
        if measured is not None:
            _MEASURED_LATENCY.set(None)
            if measured > 0:
                response = replace(response, latency_s=measured)
        return response

    def _raise_for_response(self, response: TransportResponse) -> str:
        if response.ok:
            _MEASURED_LATENCY.set(response.latency_s)
            return response.text
        if response.status == 429:
            raise FMRateLimitError(
                "rate limited (HTTP 429)", retry_after_s=response.retry_after_s
            )
        if response.status >= 500:
            raise FMServerError(
                f"server error (HTTP {response.status})", status=response.status
            )
        raise FMError(f"transport request failed (HTTP {response.status})")

    def _complete_text(self, prompt: str, temperature: float) -> str:
        request = TransportRequest(self.model, prompt, temperature)
        try:
            response = self.transport.send(request)
        except TransportTimeout as exc:
            raise FMTimeoutError(str(exc)) from exc
        except TransportConnectionReset as exc:
            raise FMConnectionError(str(exc)) from exc
        return self._raise_for_response(response)
