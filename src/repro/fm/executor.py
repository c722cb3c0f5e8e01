"""The FM execution layer: one concurrency contract for every client.

SMARTFEAT's interactions are feature-level, and most of them are
independent of one another: the unary proposals for different attributes,
the i.i.d. samples of one sampling wave, and the first-attempt function
generations for a wave's surviving candidates share no state.  An
:class:`FMExecutor` runs such a batch of :class:`FMRequest` records
against one :class:`~repro.fm.base.FMClient` and returns per-request
:class:`FMResult` records.  Its ``concurrency`` is the only backend
choice: at 1 (the default) every call runs inline, one blocking call at a
time — the paper's loop; above 1 a batch's uncached calls fan out over a
bounded thread pool.

Determinism does not depend on ``concurrency``: each request's per-call
client state (the simulator's sampling counter, a scripted client's
cursor) is reserved in submission order *before* any call runs, and
ledger entries are recorded in submission order after every call
finishes.  A batch therefore produces byte-identical responses and ledger
totals at any concurrency.  A retry reserves fresh state after the whole
batch's reservations at every concurrency, so a batch with one retrying
call stays identical too; several retrying calls reserve in the order
they fail, which the pool does not fix.

Every batch applies a per-call :class:`RetryPolicy` and accumulates
:class:`ExecutionStats`, which separates **summed latency** (what the
calls cost — the accounting view) from **critical-path latency** (how
long the batch takes on the wall clock under bounded concurrency).
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fm.adaptive import AIMDController, ConcurrencyGate
from repro.fm.base import report_view
from repro.fm.cost import critical_path_seconds
from repro.fm.errors import FMBudgetExceededError, FMError
from repro.fm.hedging import HedgePolicy, LatencyTracker
from repro.records import to_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fm.base import FMClient, FMResponse

__all__ = [
    "BatchRecord",
    "DEFAULT_RETRY_AFTER_CAP_S",
    "ExecutionStats",
    "FMExecutor",
    "FMRequest",
    "FMResult",
    "RetryPolicy",
    "SerialExecutor",
    "ThreadPoolFMExecutor",
]

#: Ceiling on a server-supplied ``Retry-After`` when the policy sets no
#: ``max_backoff_s`` of its own.  A hostile or buggy server answering
#: ``Retry-After: 3600`` must not park a worker for an hour — an hour of
#: dead time is indistinguishable from a hang to everything upstream.
DEFAULT_RETRY_AFTER_CAP_S = 60.0


@dataclass(frozen=True)
class FMRequest:
    """One completion to run: prompt text plus sampling temperature."""

    prompt: str
    temperature: float = 0.0


@dataclass
class FMResult:
    """Outcome of one request: a response, or the exception it raised."""

    request: FMRequest
    response: "FMResponse | None" = None
    error: Exception | None = None
    cached: bool = False
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.response is not None

    def unwrap(self) -> "FMResponse":
        """The response, re-raising the recorded error on failure."""
        if self.response is None:
            assert self.error is not None
            raise self.error
        return self.response


@dataclass(frozen=True)
class RetryPolicy:
    """Per-call retry behaviour.

    ``max_attempts`` counts the first try; the default of 1 disables
    retries (deterministic clients gain nothing from them).  Only
    exceptions matching ``retry_on`` are retried — parse-level failures
    happen downstream of the client and never reach the executor, and
    :class:`~repro.fm.errors.FMBudgetExceededError` is never retried
    (retrying only spends more of an already-exhausted budget).

    ``backoff_s`` is the sleep before the second attempt; each further
    attempt multiplies it by ``backoff_multiplier`` (2.0 gives the
    classic exponential schedule HTTP 429 handling wants), capped at
    ``max_backoff_s``.  The defaults keep simulated backends at zero
    sleep.
    """

    max_attempts: int = 1
    retry_on: tuple[type[Exception], ...] = (FMError,)
    backoff_s: float = 0.0
    backoff_multiplier: float = 1.0
    max_backoff_s: float | None = None

    def should_retry(self, error: Exception, attempt: int) -> bool:
        if isinstance(error, FMBudgetExceededError):
            return False
        return attempt < self.max_attempts and isinstance(error, self.retry_on)

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt number *attempt* (1-based)."""
        delay = self.backoff_s * (self.backoff_multiplier ** (attempt - 1))
        if self.max_backoff_s is not None:
            delay = min(delay, self.max_backoff_s)
        return delay

    def delay_for(self, error: Exception, attempt: int) -> float:
        """Seconds to sleep before retrying *error* after attempt *attempt*.

        A server-provided ``Retry-After`` hint (an
        :class:`~repro.fm.errors.FMRateLimitError` with ``retry_after_s``)
        overrides the computed backoff schedule — the server knows when
        capacity returns; guessing earlier only earns another 429.  The
        hint is never honoured verbatim: ``max_backoff_s`` caps it when
        set, and :data:`DEFAULT_RETRY_AFTER_CAP_S` otherwise, so a
        hostile ``Retry-After: 3600`` cannot park a worker for an hour.
        """
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            cap = (
                self.max_backoff_s
                if self.max_backoff_s is not None
                else DEFAULT_RETRY_AFTER_CAP_S
            )
            return min(max(0.0, float(retry_after)), cap)
        return self.backoff_for(attempt)


@dataclass(frozen=True)
class BatchRecord:
    """Accounting for one executed batch, attributed to a pipeline stage.

    ``stage`` is whatever scope the caller opened with
    :meth:`FMExecutor.stage` (the stage-graph scheduler tags every batch
    a stage node dispatches with the node's name; untagged batches record
    ``None``).  The stage scheduler sums these records per node to report
    per-stage FM spend and modelled critical path — the submission
    interleaving across stages stays visible in one ordered log.
    """

    stage: str | None
    model: str
    n_calls: int
    n_cached: int
    n_errors: int
    summed_latency_s: float
    critical_path_s: float
    #: Real elapsed seconds the run() call took (0.0 when unmeasured) —
    #: lets schedule accounting separate time *blocked in the executor*
    #: from a stage's own data-plane work.
    wall_s: float = 0.0
    #: Dollar spend of the batch's successful calls.  With physically
    #: overlapped stages the stage scheduler cannot attribute spend by
    #: ledger deltas (several stages charge one ledger concurrently), so
    #: the batch record carries it.
    cost_usd: float = 0.0


@dataclass
class ExecutionStats:
    """Cumulative accounting across every batch an executor has run.

    ``summed_latency_s`` adds up each executed call's modelled latency —
    the cost-accounting view, identical at any concurrency.
    ``critical_path_s`` is the modelled wall-clock: per batch, the
    makespan of scheduling the calls' latencies onto ``concurrency``
    workers in submission order.  Cache hits cost nothing on either axis.
    """

    n_batches: int = 0
    n_calls: int = 0
    n_errors: int = 0
    n_retries: int = 0
    cache_hits: int = 0
    summed_latency_s: float = 0.0
    critical_path_s: float = 0.0
    #: Hedged-request outcomes (always zero against stateful clients,
    #: where hedging is structurally inert).
    hedges_issued: int = 0
    hedges_won: int = 0

    def snapshot(self) -> dict[str, float]:
        return report_view(to_record(self))


class FMExecutor:
    """Runs batches of FM requests, up to ``concurrency`` calls at once.

    At ``concurrency=1`` every call runs inline on the calling thread.
    Above 1, one worker pool of that size is created lazily on the first
    batch with more than one uncached call and reused for the executor's
    lifetime; :meth:`close` (or leaving a ``with`` block) tears it down,
    and the next batch starts a fresh one.
    """

    def __init__(
        self,
        concurrency: int = 1,
        retry: RetryPolicy | None = None,
        adaptive: AIMDController | bool | None = None,
        hedge: HedgePolicy | None = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        #: Number of calls that may be in flight at once.
        self.concurrency = concurrency
        self.retry = retry or RetryPolicy()
        self.stats = ExecutionStats()
        #: Ordered per-batch accounting (one BatchRecord per run() call).
        #: Grows with the executor's lifetime; pipeline runs create
        #: per-instance executors, so the log stays run-sized in practice.
        self.batch_log: list[BatchRecord] = []
        self._stage_slot = threading.local()
        # Physically overlapped stages finish batches from several
        # threads at once; stats and the batch log are shared.
        self._account_lock = threading.Lock()
        #: AIMD controller throttling admission on 429/5xx backpressure.
        #: ``True`` builds one bounded by this executor's concurrency; a
        #: passed-in controller may be shared across executors.
        if adaptive is True:
            adaptive = AIMDController(ceiling=concurrency)
        self.adaptive: AIMDController | None = adaptive or None
        self._gate = ConcurrencyGate(self.adaptive) if self.adaptive else None
        #: Hedged-request policy; only applied to stateless clients (a
        #: hedge re-sends a logical call, which is undefined when calls
        #: consume client state — so seeded clients are never hedged).
        self.hedge: HedgePolicy | None = hedge
        self.hedge_tracker = LatencyTracker()
        self._pool: ThreadPoolExecutor | None = None
        self._hedge_pool: ThreadPoolExecutor | None = None
        # Physically overlapped stages call run() concurrently; pool
        # creation and teardown must not race.
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Traffic-policy plumbing (AIMD feedback, worker pools)
    # ------------------------------------------------------------------
    def _observe_outcome(self, error: Exception | None) -> None:
        """Feed one attempt outcome to the adaptive controller (if any)."""
        if self.adaptive is not None:
            self.adaptive.observe(error)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.concurrency, thread_name_prefix="fm-executor"
                )
            return self._pool

    def _ensure_hedge_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._hedge_pool is None:
                # Primary + shadow per in-flight logical call, so a fully
                # hedged batch can never starve itself.
                self._hedge_pool = ThreadPoolExecutor(
                    max_workers=2 * self.concurrency,
                    thread_name_prefix="fm-hedge",
                )
            return self._hedge_pool

    def close(self) -> None:
        """Shut the worker pools down (idempotent)."""
        with self._pool_lock:
            pools = (self._pool, self._hedge_pool)
            self._pool = self._hedge_pool = None
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)

    def __enter__(self) -> "FMExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def policy_snapshot(self) -> dict:
        """Current adaptive/hedging state, for reports and benchmarks."""
        return {
            "adaptive": None if self.adaptive is None else self.adaptive.snapshot(),
            "hedge": (
                None
                if self.hedge is None
                else {
                    "quantile": self.hedge.quantile,
                    "latency": self.hedge_tracker.snapshot(),
                    "issued": self.stats.hedges_issued,
                    "won": self.stats.hedges_won,
                }
            ),
        }

    @property
    def _stage_tag(self) -> str | None:
        return getattr(self._stage_slot, "tag", None)

    @contextmanager
    def stage(self, tag: str):
        """Attribute every batch finished inside this scope to *tag*.

        The scope is thread-local: a run() call is tagged with the scope
        open on *its* dispatching thread, so two pipeline runs sharing
        one executor from different threads cannot cross-tag each
        other's batches.  Scopes nest, restoring the enclosing tag on
        exit.
        """
        previous = self._stage_tag
        self._stage_slot.tag = tag
        try:
            yield self
        finally:
            self._stage_slot.tag = previous

    # ------------------------------------------------------------------
    def run(self, client: "FMClient", requests: list[FMRequest]) -> list[FMResult]:
        """Execute *requests* against *client*, preserving request order.

        Phase 1 (calling thread, submission order) serves cache hits,
        runs the batch's one budget pre-flight and reserves every
        uncached request's client state — see :meth:`_prepare_batch`.
        Phase 2 runs the uncached calls: inline at ``concurrency=1`` or
        for a batch of one, otherwise on the worker pool.  Phase 3
        (calling thread, submission order) records ledger, cache and
        stats entries.
        """
        started = time.perf_counter()
        results, pending = self._prepare_batch(client, requests)
        if self.concurrency == 1 or len(pending) == 1:
            for index, request, state in pending:
                results[index] = self._run_one(client, request, state)
        elif pending:
            pool = self._ensure_pool()
            futures = [
                (index, pool.submit(self._run_one, client, request, state))
                for index, request, state in pending
            ]
            for index, future in futures:
                results[index] = future.result()
        return self._finish_batch(client, results, started_at=started)

    def complete(self, client: "FMClient", prompt: str, temperature: float = 0.0):
        """Run a single call through the executor (raises on failure)."""
        return self.run(client, [FMRequest(prompt, temperature)])[0].unwrap()

    # ------------------------------------------------------------------
    def _attempt(self, client: "FMClient", request: FMRequest, state: object) -> FMResult:
        """One request through the retry loop (no ledger side effects).

        The submission-order *state* is consumed by the first attempt;
        retries reserve fresh state (only reachable for clients that
        raise, which the deterministic backends never do).

        Retry sleeps are charged to the client's wait accounting (and so
        to the budget's latency axis) *before* they are slept — a 429
        storm's dead time is spend, and ``max_latency_s`` must meter it.
        A wait that trips the budget is returned as this request's error
        (budget errors are never retried) instead of being slept at all.
        """
        attempt = 1
        while True:
            try:
                text = client._complete_with_state(
                    request.prompt, request.temperature, state
                )
                response = client.build_response(request.prompt, text)
                self._observe_outcome(None)
                return FMResult(request=request, response=response, attempts=attempt)
            except Exception as exc:  # noqa: BLE001 - surfaced via FMResult
                self._observe_outcome(exc)
                if not self.retry.should_retry(exc, attempt):
                    return FMResult(request=request, error=exc, attempts=attempt)
                delay = self.retry.delay_for(exc, attempt)
                attempt += 1
                if delay > 0:
                    try:
                        client.ledger.record_wait(delay)
                    except FMBudgetExceededError as budget_exc:
                        return FMResult(
                            request=request, error=budget_exc, attempts=attempt - 1
                        )
                    time.sleep(delay)
                state = client._reserve_state(request.prompt, request.temperature)

    # ------------------------------------------------------------------
    def _hedging_active(self, client: "FMClient") -> bool:
        """Hedging applies only to stateless clients: re-sending a call
        that consumes client state (a counter, a cursor) would double-
        consume it and break the submission-order reservation contract —
        so seeded deterministic clients never see a hedge."""
        return self.hedge is not None and client.is_stateless()

    def _run_one(self, client: "FMClient", request: FMRequest, state: object) -> FMResult:
        """One logical request: adaptive admission, then (hedged) attempt.

        The gate bounds *logical* calls; a hedge shadow rides its
        primary's slot (bounded over-commit of one duplicate per armed
        hedge — the point is to spend a little extra capacity rescuing
        the tail).
        """
        if self._gate is None:
            return self._attempt_maybe_hedged(client, request, state)
        with self._gate:
            return self._attempt_maybe_hedged(client, request, state)

    def _attempt_maybe_hedged(
        self, client: "FMClient", request: FMRequest, state: object
    ) -> FMResult:
        if not self._hedging_active(client):
            return self._attempt(client, request, state)
        delay = self.hedge.delay_s(self.hedge_tracker)
        if delay is None:
            # Cold start with no fallback delay: run plain, feed the tracker.
            started = time.monotonic()
            result = self._attempt(client, request, state)
            if result.ok:
                self.hedge_tracker.observe(time.monotonic() - started)
            return result
        pool = self._ensure_hedge_pool()

        def timed() -> tuple[FMResult, float]:
            started = time.monotonic()
            outcome = self._attempt(client, request, state)
            return outcome, time.monotonic() - started

        primary = pool.submit(timed)
        done, _ = concurrent.futures.wait([primary], timeout=delay)
        if primary in done:
            result, elapsed = primary.result()
            if result.ok:
                self.hedge_tracker.observe(elapsed)
            return result
        # The primary outlived the armed quantile: issue the duplicate
        # and take whichever lands first.
        shadow = pool.submit(timed)
        with self._account_lock:
            self.stats.hedges_issued += 1
        client.ledger.record_hedge_issued()
        done, pending = concurrent.futures.wait(
            [primary, shadow], return_when=concurrent.futures.FIRST_COMPLETED
        )
        winner = primary if primary in done else shadow
        loser = shadow if winner is primary else primary
        if winner is shadow:
            with self._account_lock:
                self.stats.hedges_won += 1
        if loser.done():
            self._settle_hedge_loser(client, loser)
        else:
            # A blocking call cannot be interrupted; abandon the loser —
            # its result never reaches _finish_batch, so the ledger's
            # main totals see exactly one result per logical request.
            loser.add_done_callback(
                lambda future: self._settle_hedge_loser(client, future)
            )
        result, elapsed = winner.result()
        if result.ok:
            self.hedge_tracker.observe(elapsed)
        return result

    @staticmethod
    def _settle_hedge_loser(client: "FMClient", future) -> None:
        wasted = 0.0
        if not future.cancelled():
            try:
                outcome, _ = future.result()
            except BaseException:  # noqa: BLE001 - loser accounting only
                outcome = None
            if outcome is not None and outcome.ok:
                wasted = outcome.response.cost_usd
        client.ledger.record_hedge_abandoned(wasted)

    # ------------------------------------------------------------------
    def _prepare_batch(
        self, client: "FMClient", requests: list[FMRequest]
    ) -> tuple[list[FMResult | None], list[tuple[int, FMRequest, object]]]:
        """Phase 1 of :meth:`run`, on the calling thread in submission
        order: serve cache hits, run the one-shot budget pre-flight
        before the first uncached request, and reserve every remaining
        request's per-call client state up front.  Reserving before any
        call runs is what makes the result independent of concurrency
        on seeded clients.

        Budget is enforced at batch granularity — this pre-flight (cache
        hits are free, so a fully-cached batch is served even after
        exhaustion) plus a post-hoc raise in :meth:`_finish_batch` if the
        batch crossed the line.
        """
        budget_checked = False
        results: list[FMResult | None] = [None] * len(requests)
        pending: list[tuple[int, FMRequest, object]] = []
        for index, request in enumerate(requests):
            cached = client._cache_get(request.prompt, request.temperature)
            if cached is not None:
                client._on_cache_hit(request.prompt, request.temperature)
                results[index] = FMResult(request=request, response=cached, cached=True)
            else:
                if not budget_checked:
                    client.ledger.check_budget()
                    budget_checked = True
                state = client._reserve_state(request.prompt, request.temperature)
                pending.append((index, request, state))
        return results, pending

    # ------------------------------------------------------------------
    def _finish_batch(
        self, client: "FMClient", results: list[FMResult], started_at: float
    ) -> list[FMResult]:
        """Record ledger/cache entries and stats in submission order.

        A budget that trips mid-batch is re-raised only after every
        executed call has been accounted for — the calls already
        happened, so the ledger and stats must reflect them exactly.

        The whole pass holds the executor's accounting lock: physically
        overlapped stages finish batches from several threads, and stats
        plus the batch log must stay coherent under that interleaving.
        """
        budget_error: FMBudgetExceededError | None = None
        latencies: list[float] = []
        cost_usd = 0.0
        n_cached = 0
        n_errors = 0
        with self._account_lock:
            for result in results:
                self.stats.n_retries += result.attempts - 1
                if result.cached:
                    self.stats.cache_hits += 1
                    n_cached += 1
                    client.ledger.record_cache_hit()
                    continue
                if result.ok:
                    response = result.response
                    try:
                        client.ledger.record(result.request.prompt, response)
                    except FMBudgetExceededError as exc:
                        budget_error = budget_error or exc
                    client._cache_put(
                        result.request.prompt, result.request.temperature, response
                    )
                    latencies.append(response.latency_s)
                    cost_usd += response.cost_usd
                    self.stats.n_calls += 1
                    self.stats.summed_latency_s += response.latency_s
                else:
                    self.stats.n_errors += 1
                    n_errors += 1
            self.stats.n_batches += 1
            batch_critical = critical_path_seconds(latencies, self.concurrency)
            self.stats.critical_path_s += batch_critical
            self.batch_log.append(
                BatchRecord(
                    stage=self._stage_tag,
                    model=client.model,
                    n_calls=len(latencies),
                    n_cached=n_cached,
                    n_errors=n_errors,
                    summed_latency_s=sum(latencies),
                    critical_path_s=batch_critical,
                    wall_s=time.perf_counter() - started_at,
                    cost_usd=cost_usd,
                )
            )
        if budget_error is not None:
            raise budget_error
        return results


#: Aliases for callers that import these names (``perfbench/workloads.py``
#: does).  Both are :class:`FMExecutor`; ``concurrency`` alone picks inline
#: calls or the worker pool.
SerialExecutor = ThreadPoolFMExecutor = FMExecutor
