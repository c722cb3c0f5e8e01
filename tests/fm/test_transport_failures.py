"""Adversarial failure injection for the transport-backed FM stack.

Scripted transports drive 429 storms, interleaved timeouts/resets, and
server errors through the retry machinery under every executor backend,
asserting the invariants that make failure survivable: ``Retry-After``
is honoured over the computed backoff, exhaustion surfaces the original
error class, and — the load-bearing one — ledger and budget state stay
mutually consistent after *every* failure mode, including budgets that
trip while a batch is in flight.
"""

import threading
import time

import pytest

from repro.fm import (
    Budget,
    FMBudgetExceededError,
    FMConnectionError,
    FMError,
    FMRateLimitError,
    FMRequest,
    FMServerError,
    FMTimeoutError,
    RetryPolicy,
    ScriptedTransport,
    SerialExecutor,
    SimulatedHTTPTransport,
    ThreadPoolFMExecutor,
    TransportConnectionReset,
    TransportFMClient,
    TransportRequest,
    TransportResponse,
    TransportTimeout,
)

BACKENDS = [
    ("serial", lambda retry: SerialExecutor(retry=retry)),
    ("thread", lambda retry: ThreadPoolFMExecutor(4, retry=retry)),
]


def _run(make_executor, client, requests, retry=None):
    executor = make_executor(retry)
    try:
        return executor.run(client, requests), executor
    finally:
        close = getattr(executor, "close", None)
        if close is not None:
            close()


def _rate_limited(retry_after_s=None):
    return TransportResponse(status=429, retry_after_s=retry_after_s)


class TestStatusMapping:
    def test_success_returns_body(self):
        client = TransportFMClient(ScriptedTransport(["hello"]))
        assert client.complete("p").text == "hello"

    def test_429_maps_to_rate_limit_with_retry_after(self):
        client = TransportFMClient(ScriptedTransport([_rate_limited(1.25)]))
        with pytest.raises(FMRateLimitError) as excinfo:
            client.complete("p")
        assert excinfo.value.retry_after_s == 1.25

    def test_5xx_maps_to_server_error(self):
        client = TransportFMClient(ScriptedTransport([TransportResponse(status=503)]))
        with pytest.raises(FMServerError) as excinfo:
            client.complete("p")
        assert excinfo.value.status == 503

    def test_timeout_and_reset_map_to_fm_errors(self):
        client = TransportFMClient(
            ScriptedTransport([TransportTimeout("deadline"), TransportConnectionReset("rst")])
        )
        with pytest.raises(FMTimeoutError):
            client.complete("p")
        with pytest.raises(FMConnectionError):
            client.complete("p")

    def test_unexpected_4xx_is_plain_fm_error(self):
        client = TransportFMClient(ScriptedTransport([TransportResponse(status=404)]))
        with pytest.raises(FMError):
            client.complete("p")

    def test_failed_calls_never_reach_the_ledger(self):
        client = TransportFMClient(
            ScriptedTransport([_rate_limited(), TransportResponse(status=500), "ok"])
        )
        for _ in range(2):
            with pytest.raises(FMError):
                client.complete("p")
        assert client.complete("p").text == "ok"
        assert client.ledger.n_calls == 1  # only the success recorded

    def test_transport_client_is_stateless(self):
        assert TransportFMClient(ScriptedTransport([])).is_stateless()

    def test_measured_latency_reaches_the_ledger(self):
        """The transport's reported latency replaces the token-modelled
        estimate — the ledger for a real backend records real time."""
        client = TransportFMClient(
            ScriptedTransport(
                [
                    TransportResponse(status=200, text="a", latency_s=1.5),
                    TransportResponse(status=200, text="b", latency_s=2.25),
                ]
            )
        )
        client.complete("p1")
        client.complete("p2")
        assert client.ledger.latency_s == pytest.approx(3.75)

    def test_unmeasured_latency_keeps_the_modelled_value(self):
        client = TransportFMClient(ScriptedTransport(["bare string"]))
        response = client.complete("p")
        assert response.latency_s > 0  # cost-model estimate, not zero

    def test_measured_latency_isolated_across_worker_threads(self):
        transport = SimulatedHTTPTransport(
            base_latency_s=0.001, jitter_s=0.05, seed=9, sleep=False
        )
        client = TransportFMClient(transport)
        with ThreadPoolFMExecutor(8) as executor:
            results = executor.run(client, [FMRequest(f"p{i}") for i in range(16)])
        # Each response must carry its own request's drawn latency, so
        # the per-response values differ (jitter) and sum to the ledger.
        latencies = [r.response.latency_s for r in results]
        assert len(set(latencies)) > 1
        assert client.ledger.latency_s == pytest.approx(sum(latencies))


class TestRateLimitStorms:
    @pytest.mark.parametrize("name,make_executor", BACKENDS)
    def test_429_storm_recovers_within_retry_budget(self, name, make_executor):
        transport = ScriptedTransport([_rate_limited(0.0)] * 3 + ["recovered"])
        client = TransportFMClient(transport)
        results, executor = _run(
            make_executor, client, [FMRequest("p")], RetryPolicy(max_attempts=4)
        )
        assert results[0].ok
        assert results[0].response.text == "recovered"
        assert results[0].attempts == 4
        assert executor.stats.n_retries == 3
        assert client.ledger.n_calls == 1

    @pytest.mark.parametrize("name,make_executor", BACKENDS)
    def test_storm_exhaustion_surfaces_rate_limit_error(self, name, make_executor):
        transport = ScriptedTransport([_rate_limited(0.0)] * 10)
        client = TransportFMClient(transport)
        results, executor = _run(
            make_executor, client, [FMRequest("p")], RetryPolicy(max_attempts=3)
        )
        assert not results[0].ok
        assert isinstance(results[0].error, FMRateLimitError)
        assert results[0].attempts == 3
        assert len(transport.requests) == 3  # exactly max_attempts sends
        assert client.ledger.n_calls == 0
        assert executor.stats.n_errors == 1

    def test_storm_across_a_batch_keeps_request_order(self):
        # Every request 429s once, then succeeds with its own body; the
        # concurrent backends must still map responses to requests.
        lock = threading.Lock()
        first_seen: set[str] = set()

        class OncePerPrompt429(ScriptedTransport):
            def send(self, request: TransportRequest) -> TransportResponse:
                with lock:
                    fresh = request.prompt not in first_seen
                    first_seen.add(request.prompt)
                if fresh:
                    raise_after = _rate_limited(0.0)
                    return raise_after
                return TransportResponse(status=200, text=f"body:{request.prompt}")

        client = TransportFMClient(OncePerPrompt429([]))
        with ThreadPoolFMExecutor(4, retry=RetryPolicy(max_attempts=2)) as executor:
            results = executor.run(
                client, [FMRequest(f"p{i}") for i in range(8)]
            )
        assert [r.response.text for r in results] == [f"body:p{i}" for i in range(8)]
        assert all(r.attempts == 2 for r in results)
        assert client.ledger.n_calls == 8


class TestRetryAfterVsBackoff:
    def test_retry_after_overrides_computed_backoff(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=10.0, backoff_multiplier=2.0)
        hinted = FMRateLimitError("429", retry_after_s=0.25)
        unhinted = FMRateLimitError("429")
        assert policy.delay_for(hinted, attempt=1) == 0.25
        assert policy.delay_for(hinted, attempt=3) == 0.25  # hint, not schedule
        assert policy.delay_for(unhinted, attempt=2) == 20.0

    def test_retry_after_capped_by_max_backoff(self):
        policy = RetryPolicy(max_attempts=2, backoff_s=0.1, max_backoff_s=1.0)
        assert policy.delay_for(FMRateLimitError("429", retry_after_s=60.0), 1) == 1.0

    def test_non_rate_limit_errors_use_the_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.5, backoff_multiplier=2.0)
        assert policy.delay_for(FMServerError("boom"), attempt=2) == 1.0

    def test_executor_sleeps_the_server_hint_not_the_schedule(self, monkeypatch):
        import repro.fm.executor as executor_module

        slept: list[float] = []
        monkeypatch.setattr(executor_module.time, "sleep", slept.append)
        transport = ScriptedTransport(
            [_rate_limited(0.05), _rate_limited(0.07), "ok"]
        )
        client = TransportFMClient(transport)
        executor = SerialExecutor(
            retry=RetryPolicy(max_attempts=3, backoff_s=30.0, backoff_multiplier=2.0)
        )
        results = executor.run(client, [FMRequest("p")])
        assert results[0].ok
        assert slept == pytest.approx([0.05, 0.07])

    def test_thread_executor_honours_the_hint_in_real_time(self):
        transport = ScriptedTransport([_rate_limited(0.02), "ok"])
        client = TransportFMClient(transport)
        with ThreadPoolFMExecutor(
            2, retry=RetryPolicy(max_attempts=2, backoff_s=30.0)
        ) as executor:
            started = time.perf_counter()
            results = executor.run(client, [FMRequest("p")])
            elapsed = time.perf_counter() - started
        assert results[0].ok
        assert 0.02 <= elapsed < 5.0  # slept the hint, not the 30s schedule


class TestInterleavedWireFailures:
    @pytest.mark.parametrize("name,make_executor", BACKENDS)
    def test_timeout_reset_5xx_sequence_recovers(self, name, make_executor):
        transport = ScriptedTransport(
            [
                TransportTimeout("deadline"),
                TransportConnectionReset("rst"),
                TransportResponse(status=500),
                "survived",
            ]
        )
        client = TransportFMClient(transport)
        results, executor = _run(
            make_executor, client, [FMRequest("p")], RetryPolicy(max_attempts=4)
        )
        assert results[0].ok
        assert results[0].response.text == "survived"
        assert results[0].attempts == 4
        assert client.ledger.n_calls == 1

    def test_mixed_batch_isolates_failures_per_request(self):
        # Request 0 succeeds, request 1 dies permanently, request 2
        # recovers — each outcome independent, ledger counts only wins.
        class PerPrompt(ScriptedTransport):
            def send(self, request: TransportRequest) -> TransportResponse:
                if request.prompt == "dead":
                    raise TransportTimeout("always")
                if request.prompt == "flaky":
                    with self._lock:
                        self._cursor += 1
                        flaky_attempt = self._cursor
                    if flaky_attempt == 1:
                        raise TransportConnectionReset("rst")
                return TransportResponse(status=200, text=f"ok:{request.prompt}")

        client = TransportFMClient(PerPrompt([]))
        with ThreadPoolFMExecutor(3, retry=RetryPolicy(max_attempts=2)) as executor:
            results = executor.run(
                client, [FMRequest("fine"), FMRequest("dead"), FMRequest("flaky")]
            )
        assert results[0].ok and results[0].response.text == "ok:fine"
        assert not results[1].ok and isinstance(results[1].error, FMTimeoutError)
        assert results[2].ok and results[2].attempts == 2
        assert client.ledger.n_calls == 2
        assert executor.stats.n_errors == 1

    def test_script_exhaustion_is_a_reset_not_a_crash(self):
        client = TransportFMClient(ScriptedTransport(["only"]))
        assert client.complete("a").text == "only"
        with pytest.raises(FMConnectionError):
            client.complete("b")


class TestBudgetTripsMidFlight:
    def _consistent(self, client, budget):
        """Ledger and budget must agree after any failure mode."""
        assert budget.spent_calls == client.ledger.n_calls
        assert budget.spent_cost_usd == pytest.approx(client.ledger.cost_usd)

    @pytest.mark.parametrize("name,make_executor", BACKENDS)
    def test_budget_trip_mid_batch_is_fully_accounted(self, name, make_executor):
        budget = Budget(max_calls=2)
        client = TransportFMClient(
            ScriptedTransport([f"r{i}" for i in range(6)]), budget=budget
        )
        with pytest.raises(FMBudgetExceededError) as excinfo:
            _run(make_executor, client, [FMRequest(f"p{i}") for i in range(6)])
        assert excinfo.value.axis == "calls"
        # Batch granularity: every call in the in-flight batch was issued
        # and charged before the error surfaced.
        assert client.ledger.n_calls == 6
        self._consistent(client, budget)

    @pytest.mark.parametrize("name,make_executor", BACKENDS)
    def test_exhausted_budget_blocks_the_next_batch(self, name, make_executor):
        budget = Budget(max_calls=1)
        client = TransportFMClient(ScriptedTransport(["a", "b"]), budget=budget)
        with pytest.raises(FMBudgetExceededError):
            _run(make_executor, client, [FMRequest("p0"), FMRequest("p1")])
        spent_before = budget.spent_calls
        with pytest.raises(FMBudgetExceededError):
            _run(make_executor, client, [FMRequest("p2")])
        assert budget.spent_calls == spent_before  # pre-flight: nothing new issued
        self._consistent(client, budget)

    def test_budget_never_charged_for_failed_calls(self):
        budget = Budget(max_calls=10)
        client = TransportFMClient(
            ScriptedTransport([_rate_limited(0.0)] * 3 + ["ok"]), budget=budget
        )
        with ThreadPoolFMExecutor(2, retry=RetryPolicy(max_attempts=4)) as executor:
            results = executor.run(client, [FMRequest("p")])
        assert results[0].ok
        assert budget.spent_calls == 1  # three 429s cost no budget
        self._consistent(client, budget)

    def test_budget_trip_during_retries_stays_consistent(self):
        # The second request's success crosses the budget while the
        # first is still retrying: everything issued is charged, the
        # error surfaces once, and the meters agree afterwards.
        budget = Budget(max_calls=1)
        client = TransportFMClient(
            ScriptedTransport([_rate_limited(0.0), "r0", "r1"]), budget=budget
        )
        with pytest.raises(FMBudgetExceededError):
            with ThreadPoolFMExecutor(2, retry=RetryPolicy(max_attempts=3)) as executor:
                executor.run(client, [FMRequest("p0"), FMRequest("p1")])
        assert client.ledger.n_calls == 2
        self._consistent(client, budget)


class TestSimulatedHTTPTransportDeterminism:
    def test_outcomes_keyed_on_prompt_and_attempt(self):
        def outcomes(transport, prompt):
            try:
                return transport.send(TransportRequest("m", prompt)).status
            except TransportTimeout:
                return "timeout"
            except TransportConnectionReset:
                return "reset"

        a = SimulatedHTTPTransport(
            rate_limit_rate=0.3, timeout_rate=0.2, reset_rate=0.1, seed=3, sleep=False
        )
        b = SimulatedHTTPTransport(
            rate_limit_rate=0.3, timeout_rate=0.2, reset_rate=0.1, seed=3, sleep=False
        )
        prompts = [f"p{i}" for i in range(40)]
        seq_a = [outcomes(a, p) for p in prompts]
        seq_b = [outcomes(b, p) for p in prompts]
        assert seq_a == seq_b  # same seed, same fate, any interleaving
        assert len(set(seq_a)) > 1  # the schedule actually mixes outcomes

    def test_attempts_reroll_failures(self):
        transport = SimulatedHTTPTransport(
            rate_limit_rate=0.5, seed=11, sleep=False, retry_after_s=0.0
        )
        client = TransportFMClient(transport)
        retry = RetryPolicy(max_attempts=8)
        results, _ = _run(
            lambda r: SerialExecutor(retry=r),
            client,
            [FMRequest(f"p{i}") for i in range(12)],
            retry,
        )
        assert all(r.ok for r in results)  # every prompt recovered eventually
        assert transport.stats.n_rate_limited > 0  # and some really were limited

    def test_failure_rates_validated(self):
        with pytest.raises(ValueError):
            SimulatedHTTPTransport(rate_limit_rate=0.8, server_error_rate=0.5)

    def test_stats_account_every_send(self):
        transport = SimulatedHTTPTransport(
            rate_limit_rate=0.25, server_error_rate=0.25, seed=5, sleep=False
        )
        client = TransportFMClient(transport)
        with ThreadPoolFMExecutor(4, retry=RetryPolicy(max_attempts=5)) as executor:
            executor.run(client, [FMRequest(f"p{i}") for i in range(20)])
        stats = transport.stats.snapshot()
        assert stats["n_sent"] == (
            stats["n_ok"]
            + stats["n_rate_limited"]
            + stats["n_server_errors"]
            + stats["n_timeouts"]
            + stats["n_resets"]
        )
