"""Retry backoff accounting: hostile Retry-After caps and budgeted waits.

Two production bugs this file pins down:

1. A hostile (or buggy) server answering ``Retry-After: 3600`` must not
   park a worker for an hour — the hint is clamped to ``max_backoff_s``
   when set, and to :data:`DEFAULT_RETRY_AFTER_CAP_S` otherwise, in the
   serial and thread-pool retry loops alike.
2. Backoff sleeps are dead time a wall-clock budget must meter: every
   retry sleep is charged to the ledger's ``wait_s`` (and so to
   ``Budget.max_latency_s``) *before* it is slept, and a wait that trips
   the budget is returned as the call's error instead of being slept.
"""

import time
from unittest import mock

import pytest

from repro.fm import (
    DEFAULT_RETRY_AFTER_CAP_S,
    Budget,
    FMBudgetExceededError,
    FMRequest,
    RetryPolicy,
    ScriptedTransport,
    SerialExecutor,
    ThreadPoolFMExecutor,
    TransportFMClient,
    TransportResponse,
)
from repro.fm.errors import FMRateLimitError


def _hostile_429(retry_after_s: float = 3600.0) -> TransportResponse:
    return TransportResponse(status=429, retry_after_s=retry_after_s)


def _client(script, budget=None) -> TransportFMClient:
    return TransportFMClient(ScriptedTransport(list(script)), budget=budget)


# ----------------------------------------------------------------------
# RetryPolicy.delay_for clamping (unit level)
# ----------------------------------------------------------------------
def test_retry_after_clamped_to_max_backoff():
    policy = RetryPolicy(max_attempts=3, max_backoff_s=0.25)
    error = FMRateLimitError("429", retry_after_s=3600.0)
    assert policy.delay_for(error, attempt=1) == 0.25


def test_retry_after_clamped_to_default_cap_when_unset():
    policy = RetryPolicy(max_attempts=3)
    error = FMRateLimitError("429", retry_after_s=3600.0)
    assert policy.delay_for(error, attempt=1) == DEFAULT_RETRY_AFTER_CAP_S


def test_reasonable_retry_after_honoured_verbatim():
    policy = RetryPolicy(max_attempts=3, max_backoff_s=10.0)
    error = FMRateLimitError("429", retry_after_s=0.5)
    assert policy.delay_for(error, attempt=1) == 0.5


def test_negative_retry_after_floored_at_zero():
    policy = RetryPolicy(max_attempts=3)
    error = FMRateLimitError("429", retry_after_s=-5.0)
    assert policy.delay_for(error, attempt=1) == 0.0


def test_no_hint_falls_back_to_backoff_schedule():
    policy = RetryPolicy(
        max_attempts=4, backoff_s=0.1, backoff_multiplier=2.0, max_backoff_s=0.3
    )
    error = FMRateLimitError("429")
    assert policy.delay_for(error, attempt=1) == pytest.approx(0.1)
    assert policy.delay_for(error, attempt=2) == pytest.approx(0.2)
    assert policy.delay_for(error, attempt=3) == pytest.approx(0.3)  # capped


# ----------------------------------------------------------------------
# Scripted 3600s Retry-After through the real retry loops.  The sleep
# functions are patched so the regression is asserted on the *requested*
# sleep durations, not on the test's own wall clock.
# ----------------------------------------------------------------------
def test_sync_loop_clamps_hostile_retry_after():
    client = _client([_hostile_429(), "recovered"])
    executor = SerialExecutor(
        retry=RetryPolicy(max_attempts=3, max_backoff_s=0.05)
    )
    slept: list[float] = []
    with mock.patch("repro.fm.executor.time.sleep", side_effect=slept.append):
        results = executor.run(client, [FMRequest("p")])
    assert results[0].unwrap().text == "recovered"
    assert slept == [0.05]


def test_sync_loop_applies_default_cap_without_max_backoff():
    client = _client([_hostile_429(), "recovered"])
    executor = SerialExecutor(retry=RetryPolicy(max_attempts=3))
    slept: list[float] = []
    with mock.patch("repro.fm.executor.time.sleep", side_effect=slept.append):
        results = executor.run(client, [FMRequest("p")])
    assert results[0].ok
    assert slept == [DEFAULT_RETRY_AFTER_CAP_S]
    # The capped hour was still charged as wait time.
    assert client.ledger.snapshot()["wait_s"] == DEFAULT_RETRY_AFTER_CAP_S


def test_thread_loop_clamps_hostile_retry_after():
    client = _client([_hostile_429(), "recovered"])
    slept: list[float] = []
    with ThreadPoolFMExecutor(
        2, retry=RetryPolicy(max_attempts=3, max_backoff_s=0.05)
    ) as executor:
        with mock.patch("repro.fm.executor.time.sleep", side_effect=slept.append):
            results = executor.run(client, [FMRequest("p")])
    assert results[0].ok
    assert slept == [0.05]


# ----------------------------------------------------------------------
# Wait charging: backoff dead time is budget spend.
# ----------------------------------------------------------------------
def test_retry_sleep_charged_to_ledger_and_budget():
    budget = Budget(max_latency_s=100.0)
    client = _client([_hostile_429(2.0), "recovered"], budget=budget)
    executor = SerialExecutor(retry=RetryPolicy(max_attempts=3, max_backoff_s=5.0))
    with mock.patch("repro.fm.executor.time.sleep"):
        results = executor.run(client, [FMRequest("p")])
    assert results[0].ok
    snapshot = client.ledger.snapshot()
    assert snapshot["wait_s"] == 2.0
    # The budget's latency axis metered the dead time on top of the
    # call's own latency.
    assert budget.snapshot()["spent_latency_s"] >= 2.0


def test_wait_that_trips_budget_returns_budget_error_without_sleeping():
    budget = Budget(max_latency_s=1.0)
    client = _client([_hostile_429(30.0), "never reached"], budget=budget)
    executor = SerialExecutor(retry=RetryPolicy(max_attempts=3, max_backoff_s=60.0))
    started = time.monotonic()
    results = executor.run(client, [FMRequest("p")])
    elapsed = time.monotonic() - started
    assert isinstance(results[0].error, FMBudgetExceededError)
    # The 30s wait was refused, not slept.
    assert elapsed < 5.0
    # The scripted success was never consumed: the run stopped spending.
    assert client.transport.script[1] == "never reached"
    assert len(client.transport.requests) == 1


def test_thread_wait_that_trips_budget_returns_budget_error():
    budget = Budget(max_latency_s=1.0)
    client = _client([_hostile_429(30.0), "never reached"], budget=budget)
    with ThreadPoolFMExecutor(
        2, retry=RetryPolicy(max_attempts=3, max_backoff_s=60.0)
    ) as executor:
        started = time.monotonic()
        results = executor.run(client, [FMRequest("p")])
        elapsed = time.monotonic() - started
    assert isinstance(results[0].error, FMBudgetExceededError)
    assert elapsed < 5.0
    assert len(client.transport.requests) == 1


def test_zero_backoff_charges_no_wait():
    client = _client([_hostile_429(0.0), "recovered"])
    executor = SerialExecutor(retry=RetryPolicy(max_attempts=3, backoff_s=0.0))
    results = executor.run(client, [FMRequest("p")])
    assert results[0].ok
    assert client.ledger.snapshot()["wait_s"] == 0.0
