"""Property suites for the production transport features.

1. **Hedged backend identity** — with hedging *enabled*, serial and
   thread pipelines over seeded clients stay bit-identical (frames,
   accepted-feature order, full ledger snapshots including the hedge
   counters, which must all read zero: seeded clients are stateful, so
   the hedge gate must never arm for them).
2. **Kill-and-resume equivalence** — killing a checkpointed run after a
   random number of FM calls and resuming yields the uninterrupted
   run's output bit-identically with zero extra FM calls, for every
   kill point Hypothesis finds.
"""

import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SmartFeat
from repro.dataframe import DataFrame
from repro.fm import (
    HedgePolicy,
    SerialExecutor,
    SimulatedFM,
    ThreadPoolFMExecutor,
)


def small_frame() -> DataFrame:
    return DataFrame(
        {
            "Age": [21, 35, 42, 22, 45, 56, 30, 28] * 6,
            "Income": [10.0, 25.0, 18.5, 40.0, 31.0, 22.0, 15.5, 60.0] * 6,
            "City": ["SF", "LA", "SEA", "SF", "SEA", "LA", "SF", "LA"] * 6,
            "Target": [0, 1, 1, 0, 1, 1, 0, 1] * 6,
        }
    )


DESCRIPTIONS = {
    "Age": "Age of the customer in years",
    "Income": "Annual income in thousands of dollars",
    "City": "City of residence",
}

#: An aggressive policy: zero-delay hedges from the first call.  If the
#: stateless gate ever leaked, this would perturb seeded clients
#: maximally — which is exactly why the identity property uses it.
EAGER_HEDGE = HedgePolicy(initial_delay_s=0.0, min_observations=1, min_delay_s=0.0)


def frame_fingerprint(frame) -> tuple:
    parts = []
    for column in frame.columns:
        values = frame[column].to_numpy()
        # Object arrays hold pointers: compare their elements, not bytes.
        blob = (
            tuple(values.tolist())
            if values.dtype.kind == "O"
            else values.tobytes()
        )
        parts.append((column, values.dtype.str, blob))
    return tuple(parts)


def run_pipeline(executor, seed: int, wave_size: int):
    fm = SimulatedFM(seed=seed, model="gpt-4")
    function_fm = SimulatedFM(seed=seed + 1, model="gpt-3.5-turbo")
    tool = SmartFeat(
        fm=fm,
        function_fm=function_fm,
        downstream_model="decision_tree",
        executor=executor,
        wave_size=wave_size,
    )
    result = tool.fit_transform(
        small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
    )
    return (
        list(result.new_features),  # acceptance order, not just the set
        frame_fingerprint(result.frame),
        result.dropped,
        result.rejections,
        result.errors,
        fm.ledger.snapshot(),
        function_fm.ledger.snapshot(),
    )


@given(
    seed=st.integers(min_value=0, max_value=6),
    wave_size=st.integers(min_value=1, max_value=5),
    concurrency=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hedged_pipeline_identical_across_backends(seed, wave_size, concurrency):
    serial = run_pipeline(SerialExecutor(hedge=EAGER_HEDGE), seed, wave_size)
    with ThreadPoolFMExecutor(concurrency, hedge=EAGER_HEDGE) as pool:
        threaded = run_pipeline(pool, seed, wave_size)
    assert serial == threaded
    # Seeded clients are stateful: the hedge gate must never have armed.
    ledger = serial[5]
    assert ledger["hedges_issued"] == 0
    assert ledger["hedge_wasted_cost_usd"] == 0.0


# ----------------------------------------------------------------------
# Kill-and-resume equivalence
# ----------------------------------------------------------------------
class KillSignal(BaseException):
    """A process kill: no except-Exception path can swallow it."""


def make_tool(seed: int, checkpoint=None, resume=False) -> SmartFeat:
    return SmartFeat(
        fm=SimulatedFM(seed=seed, model="gpt-4"),
        function_fm=SimulatedFM(seed=seed + 1, model="gpt-3.5-turbo"),
        downstream_model="decision_tree",
        checkpoint=checkpoint,
        resume=resume,
    )


def fit(tool: SmartFeat):
    return tool.fit_transform(
        small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
    )


def install_kill_switch(tool: SmartFeat, kill_after: int) -> None:
    count = {"n": 0}
    lock = threading.Lock()
    for client in (tool.fm, tool.function_fm):
        original = client._complete_with_state

        def killer(prompt, temperature, state, _original=original):
            with lock:
                count["n"] += 1
                n = count["n"]
            if n > kill_after:
                raise KillSignal("simulated kill")
            return _original(prompt, temperature, state)

        client._complete_with_state = killer


_BASELINES: dict[int, tuple] = {}


def baseline_for(seed: int) -> tuple:
    if seed not in _BASELINES:
        tool = make_tool(seed)
        result = fit(tool)
        _BASELINES[seed] = (
            list(result.new_features),
            frame_fingerprint(result.frame),
            tool.fm.ledger.n_calls + tool.function_fm.ledger.n_calls,
        )
    return _BASELINES[seed]


@given(
    seed=st.integers(min_value=0, max_value=3),
    kill_fraction=st.floats(min_value=0.05, max_value=0.98),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kill_and_resume_equivalence(tmp_path_factory, seed, kill_fraction):
    features, fingerprint, base_calls = baseline_for(seed)
    kill_after = max(1, int(base_calls * kill_fraction))
    path = tmp_path_factory.mktemp("ckpt") / "run.json"

    killed = make_tool(seed, checkpoint=str(path))
    install_kill_switch(killed, kill_after)
    if kill_after >= base_calls:
        result = fit(killed)  # kill point past the end: run completes
    else:
        try:
            fit(killed)
            raise AssertionError("kill switch did not fire")
        except KillSignal:
            pass
        resumed = make_tool(seed, checkpoint=str(path), resume=True)
        result = fit(resumed)
        total = resumed.fm.ledger.n_calls + resumed.function_fm.ledger.n_calls
        # Zero extra FM calls: restored stages were not re-bought.
        assert total == base_calls
    assert list(result.new_features) == features
    assert frame_fingerprint(result.frame) == fingerprint
