"""Hedged requests: policy/tracker math plus executor races.

The executor-level tests drive real latency races through a transport
whose latency spikes are seeded, proving the contract end to end: the
shadow wins the tail races, the ledger still sees exactly one result per
logical request, and the loser's response — when it lands — is tallied
only in the hedge counters.  Stateful clients (the seeded simulator)
must never be hedged at all.
"""

import threading
import time

import pytest

from repro.fm import (
    FMExecutor,
    FMRequest,
    HedgePolicy,
    LatencyTracker,
    SimulatedFM,
    SimulatedHTTPTransport,
    Transport,
    TransportFMClient,
    TransportRequest,
    TransportResponse,
)


# ----------------------------------------------------------------------
# LatencyTracker
# ----------------------------------------------------------------------
def test_tracker_quantile_needs_min_observations():
    tracker = LatencyTracker()
    tracker.observe(0.1)
    assert tracker.quantile(0.95, min_observations=2) is None
    tracker.observe(0.2)
    assert tracker.quantile(0.95, min_observations=2) == 0.2


def test_tracker_nearest_rank_quantiles():
    tracker = LatencyTracker()
    for latency in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]:
        tracker.observe(latency)
    assert tracker.quantile(0.50) == 0.5
    assert tracker.quantile(0.95) == 1.0
    assert tracker.quantile(0.90) == 0.9


def test_tracker_window_is_bounded():
    tracker = LatencyTracker(window=4)
    for latency in [10.0, 10.0, 10.0, 0.1, 0.1, 0.1, 0.1]:
        tracker.observe(latency)
    # The old 10s outliers rolled out of the window.
    assert tracker.quantile(0.95) == 0.1
    assert tracker.n_observed == 7


def test_tracker_ignores_negative_latency():
    tracker = LatencyTracker()
    tracker.observe(-1.0)
    assert tracker.n_observed == 0


def test_tracker_validation():
    with pytest.raises(ValueError):
        LatencyTracker(window=0)


# ----------------------------------------------------------------------
# HedgePolicy
# ----------------------------------------------------------------------
def test_policy_cold_start_without_fallback_disables_hedging():
    policy = HedgePolicy()
    assert policy.delay_s(LatencyTracker()) is None


def test_policy_cold_start_with_fallback_uses_it():
    policy = HedgePolicy(initial_delay_s=0.25)
    assert policy.delay_s(LatencyTracker()) == 0.25


def test_policy_warm_estimate_overrides_fallback():
    policy = HedgePolicy(quantile=0.5, min_observations=2, initial_delay_s=9.0)
    tracker = LatencyTracker()
    tracker.observe(0.1)
    tracker.observe(0.3)
    assert policy.delay_s(tracker) == 0.1


def test_policy_floors_the_delay():
    policy = HedgePolicy(quantile=0.5, min_observations=1, min_delay_s=0.05)
    tracker = LatencyTracker()
    tracker.observe(0.0)
    assert policy.delay_s(tracker) == 0.05


def test_policy_validation():
    with pytest.raises(ValueError):
        HedgePolicy(quantile=1.0)
    with pytest.raises(ValueError):
        HedgePolicy(min_observations=0)


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class SlowFirstTransport(Transport):
    """First send of each prompt stalls; the duplicate answers fast.

    Deterministic tail injection.  By default the stall is a sleep of
    *stall_s*.  Given *races_won* (the executor's ``hedges_won``), the
    stall instead waits until the prompt's duplicate has landed and the
    executor has decided every race whose duplicate landed, so the
    shadow wins each race however the threads are scheduled (the
    generous *timeout_s* only bounds a broken run).
    """

    def __init__(
        self,
        stall_s: float = 0.3,
        fast_s: float = 0.005,
        races_won=None,
        timeout_s: float = 30.0,
    ) -> None:
        self.stall_s = stall_s
        self.fast_s = fast_s
        self.races_won = races_won
        self.timeout_s = timeout_s
        self._landed: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self.n_sends = 0
        self.n_landed = 0

    def send(self, request: TransportRequest) -> TransportResponse:
        with self._lock:
            self.n_sends += 1
            first = request.prompt not in self._landed
            landed = self._landed.setdefault(request.prompt, threading.Event())
        if not first:
            time.sleep(self.fast_s)
            with self._lock:
                self.n_landed += 1
            landed.set()
            latency = self.fast_s
        elif self.races_won is None:
            time.sleep(self.stall_s)
            latency = self.stall_s
        else:
            deadline = time.monotonic() + self.timeout_s
            landed.wait(self.timeout_s)
            # Races won are read before duplicates landed: once they
            # match, this prompt's race is among those decided.
            while self.races_won() < self.n_landed and time.monotonic() < deadline:
                time.sleep(0.001)
            latency = self.stall_s
        return TransportResponse(
            status=200, text=f"echo:{request.prompt}", latency_s=latency
        )


HEDGE_NOW = HedgePolicy(initial_delay_s=0.02, min_observations=10_000)


@pytest.mark.parametrize(
    "make_executor",
    [
        lambda: FMExecutor(hedge=HEDGE_NOW),
        lambda: FMExecutor(4, hedge=HEDGE_NOW),
    ],
    ids=["serial", "thread"],
)
def test_shadow_wins_the_tail_race(make_executor):
    executor = make_executor()
    try:
        transport = SlowFirstTransport(races_won=lambda: executor.stats.hedges_won)
        client = TransportFMClient(transport)
        requests = [FMRequest(f"p{i}") for i in range(4)]
        results = executor.run(client, requests)
        assert [r.unwrap().text for r in results] == [f"echo:p{i}" for i in range(4)]
        # Every primary stalled past the armed delay: all four hedged,
        # and the fast duplicate won each race.
        assert executor.stats.hedges_issued == 4
        assert executor.stats.hedges_won == 4
        snapshot = client.ledger.snapshot()
        # Exactly one result per logical request reaches the main totals.
        assert snapshot["n_calls"] == 4
        assert snapshot["hedges_issued"] == 4
    finally:
        executor.close()


def test_sync_loser_settles_into_hedge_counters_only():
    executor = FMExecutor(2, hedge=HEDGE_NOW)
    try:
        client = TransportFMClient(SlowFirstTransport(stall_s=0.15))
        results = executor.run(client, [FMRequest("p0")])
        assert results[0].ok
    finally:
        # close() drains the hedge pool, so the abandoned primary has
        # settled by the time we assert.
        executor.close()
    snapshot = client.ledger.snapshot()
    assert snapshot["n_calls"] == 1
    assert snapshot["hedges_issued"] == 1
    assert snapshot["hedges_abandoned"] == 1
    # The loser's completed response is wasted spend, tallied separately
    # and never added to cost_usd.
    assert snapshot["hedge_wasted_cost_usd"] > 0.0
    single_cost = snapshot["cost_usd"]
    assert single_cost == pytest.approx(
        TransportFMClient(SlowFirstTransport()).cost_model.price(
            *_tokens_for("p0")
        ),
        rel=1e-6,
    )


def _tokens_for(prompt: str) -> tuple[int, int]:
    from repro.fm.cost import estimate_tokens

    return estimate_tokens(prompt), estimate_tokens(f"echo:{prompt}")


def test_fast_primary_never_hedges():
    executor = FMExecutor(2, hedge=HedgePolicy(initial_delay_s=5.0))
    try:
        client = TransportFMClient(
            SimulatedHTTPTransport(base_latency_s=0.001, jitter_s=0.0, seed=1)
        )
        results = executor.run(client, [FMRequest(f"p{i}") for i in range(4)])
        assert all(r.ok for r in results)
        assert executor.stats.hedges_issued == 0
        assert client.ledger.snapshot()["hedges_issued"] == 0
    finally:
        executor.close()


def test_stateful_clients_are_never_hedged():
    fm = SimulatedFM(seed=5)
    executor = FMExecutor(4, hedge=HedgePolicy(initial_delay_s=0.0))
    try:
        assert not executor._hedging_active(fm)
        results = executor.run(
            fm, [FMRequest(f"Propose a feature {i}", 0.7) for i in range(6)]
        )
        assert all(r.ok for r in results)
        assert executor.stats.hedges_issued == 0
    finally:
        executor.close()


def test_hedging_enabled_keeps_seeded_results_identical():
    def run(hedge):
        fm = SimulatedFM(seed=9)
        with FMExecutor(4, hedge=hedge) as executor:
            results = executor.run(
                fm, [FMRequest(f"Propose a feature {i}", 0.7) for i in range(8)]
            )
            return [r.unwrap().text for r in results], fm.ledger.snapshot()

    assert run(None) == run(HedgePolicy(initial_delay_s=0.0))


def test_warm_tracker_arms_from_observed_quantile():
    executor = FMExecutor(hedge=HedgePolicy(quantile=0.5, min_observations=3))
    try:
        client = TransportFMClient(
            SimulatedHTTPTransport(base_latency_s=0.01, jitter_s=0.005, seed=2)
        )
        executor.run(client, [FMRequest(f"warm{i}") for i in range(5)])
        assert executor.hedge_tracker.n_observed >= 5
        delay = executor.hedge.delay_s(executor.hedge_tracker)
        assert delay is not None and delay > 0
    finally:
        executor.close()


def test_policy_snapshot_exposes_hedge_state():
    executor = FMExecutor(hedge=HEDGE_NOW)
    try:
        client = TransportFMClient(SlowFirstTransport(stall_s=0.1))
        executor.run(client, [FMRequest("p0")])
        snap = executor.policy_snapshot()
        assert snap["hedge"]["quantile"] == HEDGE_NOW.quantile
        assert snap["hedge"]["issued"] == 1
        assert snap["hedge"]["won"] == 1
    finally:
        executor.close()
