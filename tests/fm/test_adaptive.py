"""AIMD adaptive concurrency: controller math, gates, executor wiring.

The controller must be a pure function of the observed event sequence
(never wall-clock), collapse multiplicatively on 429/5xx, recover
additively on success, and drive the thread gate's admission
decisions.  The executor integration tests prove the
feedback loop end to end: a rate-limit storm through a transport client
shrinks the limit; clean traffic restores it.
"""

import threading
import time

import pytest

from repro.fm import (
    AIMDController,
    ConcurrencyGate,
    FMRequest,
    RetryPolicy,
    SerialExecutor,
    SimulatedFM,
    SimulatedHTTPTransport,
    ThreadPoolFMExecutor,
    TransportFMClient,
)
from repro.fm.adaptive import is_backpressure
from repro.fm.errors import (
    FMConnectionError,
    FMRateLimitError,
    FMServerError,
    FMTimeoutError,
)


# ----------------------------------------------------------------------
# Backpressure classification
# ----------------------------------------------------------------------
def test_backpressure_is_429_and_5xx_only():
    assert is_backpressure(FMRateLimitError("429"))
    assert is_backpressure(FMServerError("503"))
    # Timeouts and resets are a network-path signal, not load shedding.
    assert not is_backpressure(FMTimeoutError("deadline"))
    assert not is_backpressure(FMConnectionError("reset"))
    assert not is_backpressure(ValueError("unrelated"))


# ----------------------------------------------------------------------
# Controller math
# ----------------------------------------------------------------------
def test_controller_starts_at_ceiling():
    controller = AIMDController(ceiling=8)
    assert controller.limit == 8


def test_multiplicative_decrease_halves():
    controller = AIMDController(ceiling=16)
    controller.on_backpressure()
    assert controller.limit == 8
    controller.on_backpressure()
    assert controller.limit == 4


def test_limit_never_drops_below_floor():
    controller = AIMDController(ceiling=8, floor=2)
    for _ in range(20):
        controller.on_backpressure()
    assert controller.limit == 2


def test_additive_increase_recovers_about_one_per_window():
    controller = AIMDController(ceiling=8, start=4)
    # Each success adds increase/limit, so a bit over one window of
    # successes at limit≈4 raises the integer limit by one.
    for _ in range(5):
        controller.on_success()
    assert controller.limit == 5


def test_limit_never_exceeds_ceiling():
    controller = AIMDController(ceiling=4)
    for _ in range(100):
        controller.on_success()
    assert controller.limit == 4


def test_observe_routes_outcomes():
    controller = AIMDController(ceiling=8)
    controller.observe(FMRateLimitError("429"))
    assert controller.limit == 4
    assert controller.n_backpressure == 1
    controller.observe(None)
    assert controller.n_successes == 1
    # Non-backpressure errors leave the limit untouched.
    controller.observe(FMTimeoutError("deadline"))
    assert controller.n_backpressure == 1


def test_deterministic_for_a_fixed_event_sequence():
    events = [None, None, FMRateLimitError("429"), None, FMServerError("503"), None]

    def drive() -> list[int]:
        controller = AIMDController(ceiling=8)
        trace = []
        for event in events:
            controller.observe(event)
            trace.append(controller.limit)
        return trace

    assert drive() == drive()


def test_controller_validation():
    with pytest.raises(ValueError):
        AIMDController(ceiling=4, floor=0)
    with pytest.raises(ValueError):
        AIMDController(ceiling=1, floor=2)
    with pytest.raises(ValueError):
        AIMDController(ceiling=4, decrease=1.0)
    with pytest.raises(ValueError):
        AIMDController(ceiling=4, increase=0.0)


def test_snapshot_reports_state():
    controller = AIMDController(ceiling=8)
    controller.on_backpressure()
    controller.on_success()
    snap = controller.snapshot()
    assert snap["ceiling"] == 8
    assert snap["n_backpressure"] == 1
    assert snap["n_successes"] == 1
    assert snap["limit"] == max(snap["floor"], int(snap["limit_raw"]))


# ----------------------------------------------------------------------
# Thread gate
# ----------------------------------------------------------------------
def test_gate_admits_up_to_limit_then_blocks():
    controller = AIMDController(ceiling=2)
    gate = ConcurrencyGate(controller)
    gate.acquire()
    gate.acquire()
    assert gate.active == 2
    blocked = threading.Event()
    entered = threading.Event()

    def third():
        blocked.set()
        gate.acquire()
        entered.set()

    thread = threading.Thread(target=third, daemon=True)
    thread.start()
    blocked.wait(timeout=2.0)
    time.sleep(0.02)
    assert not entered.is_set()
    gate.release()
    assert entered.wait(timeout=2.0)
    gate.release()
    gate.release()
    thread.join(timeout=2.0)


def test_gate_rereads_limit_after_decrease():
    controller = AIMDController(ceiling=4)
    gate = ConcurrencyGate(controller)
    gate.acquire()
    gate.acquire()
    controller.on_backpressure()  # limit 4 -> 2: gate is now full
    assert controller.limit == 2
    admitted = threading.Event()

    def extra():
        gate.acquire()
        admitted.set()

    thread = threading.Thread(target=extra, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert not admitted.is_set()
    # One running call draining frees a slot under the collapsed limit.
    gate.release()
    assert admitted.wait(timeout=2.0)
    gate.release()
    gate.release()
    thread.join(timeout=2.0)


def test_gate_wakes_waiters_when_limit_rises():
    controller = AIMDController(ceiling=4, start=1)
    gate = ConcurrencyGate(controller)
    gate.acquire()
    admitted = threading.Event()

    def waiter():
        gate.acquire()
        admitted.set()

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert not admitted.is_set()
    # A window of successes raises the integer limit; the subscription
    # notifies the gate, which must wake the blocked waiter.
    for _ in range(2):
        controller.on_success()
    assert admitted.wait(timeout=2.0)
    gate.release()
    gate.release()
    thread.join(timeout=2.0)


# ----------------------------------------------------------------------
# Executor wiring
# ----------------------------------------------------------------------
def _storm_client(seed: int = 3) -> TransportFMClient:
    return TransportFMClient(
        SimulatedHTTPTransport(
            rate_limit_rate=0.5, retry_after_s=0.0, sleep=False, seed=seed
        )
    )


def _clean_client(seed: int = 3) -> TransportFMClient:
    return TransportFMClient(SimulatedHTTPTransport(sleep=False, seed=seed))


RETRY = RetryPolicy(max_attempts=6, backoff_s=0.0)


@pytest.mark.parametrize(
    "make_executor",
    [
        # Serial concurrency is 1, so it shares an explicitly sized
        # controller; thread builds one from its own concurrency.
        lambda: SerialExecutor(retry=RETRY, adaptive=AIMDController(ceiling=8)),
        lambda: ThreadPoolFMExecutor(4, retry=RETRY, adaptive=True),
    ],
    ids=["serial", "thread"],
)
def test_storm_shrinks_limit_clean_traffic_recovers(make_executor):
    executor = make_executor()
    try:
        assert executor.adaptive is not None
        ceiling = executor.adaptive.ceiling
        requests = [FMRequest(f"p{i}") for i in range(24)]
        executor.run(_storm_client(), requests)
        after_storm = executor.adaptive.limit
        assert executor.adaptive.n_backpressure > 0
        assert after_storm < ceiling
        executor.run(_clean_client(), [FMRequest(f"q{i}") for i in range(64)])
        assert executor.adaptive.limit > after_storm
    finally:
        close = getattr(executor, "close", None)
        if close:
            close()


def test_adaptive_true_builds_controller_bounded_by_concurrency():
    with ThreadPoolFMExecutor(6, adaptive=True) as executor:
        assert isinstance(executor.adaptive, AIMDController)
        assert executor.adaptive.ceiling == 6


def test_shared_controller_across_executors():
    controller = AIMDController(ceiling=8)
    serial = SerialExecutor(retry=RETRY, adaptive=controller)
    with ThreadPoolFMExecutor(4, retry=RETRY, adaptive=controller) as pool:
        serial.run(_storm_client(), [FMRequest(f"p{i}") for i in range(12)])
        shrunk = controller.limit
        assert shrunk < 8
        # The pool reads the same collapsed limit and its clean traffic
        # recovers it for both parties.
        pool.run(_clean_client(), [FMRequest(f"q{i}") for i in range(64)])
        assert controller.limit > shrunk


def test_adaptive_does_not_perturb_seeded_results():
    def run(adaptive):
        fm = SimulatedFM(seed=11)
        with ThreadPoolFMExecutor(4, adaptive=adaptive) as executor:
            results = executor.run(
                fm, [FMRequest(f"Propose a feature {i}", 0.7) for i in range(10)]
            )
            return [r.unwrap().text for r in results], fm.ledger.snapshot()

    assert run(None) == run(True)


def test_policy_snapshot_exposes_adaptive_state():
    executor = SerialExecutor(retry=RETRY, adaptive=True)
    executor.run(_storm_client(), [FMRequest("p")])
    snap = executor.policy_snapshot()
    assert snap["adaptive"] is not None
    assert snap["adaptive"]["ceiling"] == 1
    assert snap["hedge"] is None
