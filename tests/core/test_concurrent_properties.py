"""Property-based serial/threaded equivalence over the concurrency stack.

`tests/core/test_concurrent_pipeline.py` pins fixed-case equivalence;
these properties generalise it: for *random* wave sizes, concurrency
levels, and scripted-client schedules, the serial and thread-pool
executors must yield bit-identical pipeline outputs and ledger totals.
Hypothesis drives the search; example counts are capped because every
example runs a full (small) pipeline.
"""

import json
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SmartFeat
from repro.core.agenda import DataAgenda
from repro.core.function_generator import FunctionGenerator
from repro.core.types import FeatureCandidate, OperatorFamily
from repro.dataframe import DataFrame
from repro.fm import (
    FMExecutor,
    FMRateLimitError,
    FMRequest,
    ScriptedFM,
    SimulatedFM,
)
from repro.serve import frames_identical


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


# ----------------------------------------------------------------------
# Executor-level: random batches against the seeded simulator.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=50),
    concurrency=st.integers(min_value=2, max_value=8),
    batch_sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    temperature_pattern=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_simulator_batches_identical_across_backends(
    seed, concurrency, batch_sizes, temperature_pattern
):
    def run(executor):
        fm = SimulatedFM(seed=seed)
        texts = []
        call = 0
        for size in batch_sizes:
            requests = [
                FMRequest(
                    f"prompt {call + i}",
                    0.0 if (call + i) % temperature_pattern else 0.7,
                )
                for i in range(size)
            ]
            call += size
            texts.extend(r.response.text for r in executor.run(fm, requests))
        return texts, fm.ledger.snapshot(), executor.stats.summed_latency_s

    serial_texts, serial_ledger, serial_latency = run(FMExecutor())
    with FMExecutor(concurrency) as pool:
        threaded_texts, threaded_ledger, threaded_latency = run(pool)
    assert serial_texts == threaded_texts
    assert serial_ledger == threaded_ledger
    assert serial_latency == threaded_latency


# ----------------------------------------------------------------------
# Pipeline-level: random wave sizes and concurrency over the simulator.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=5),
    wave_size=st.integers(min_value=1, max_value=6),
    concurrency=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pipeline_identical_across_backends(seed, wave_size, concurrency):
    def run(executor):
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
            sorted(result.new_features),
            result.dropped,
            result.errors,
            result.rejections,
            fm.ledger.snapshot(),
            function_fm.ledger.snapshot(),
        )

    serial = run(FMExecutor())
    with FMExecutor(concurrency) as pool:
        threaded = run(pool)
    assert serial == threaded


# ----------------------------------------------------------------------
# Scripted schedules: adversarial mixes of valid, duplicate, and garbage
# responses at random positions must fail identically on both backends.
# ----------------------------------------------------------------------
def _binary_candidate(index: int) -> str:
    return json.dumps(
        {
            "operator": "-",
            "columns": ["Age", "Income"],
            "name": f"gap_{index}",
            "description": f"binary[-]: gap variant {index}",
        }
    )


GOOD_CODE = "```python\ndef transform(df):\n    return df['Age'] - df['Income']\n```"


@given(
    schedule=st.lists(
        st.sampled_from(["valid", "garbage", "duplicate"]), min_size=2, max_size=12
    ),
    wave_size=st.integers(min_value=1, max_value=5),
    concurrency=st.integers(min_value=2, max_value=6),
    error_threshold=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scripted_schedules_identical_across_backends(
    schedule, wave_size, concurrency, error_threshold
):
    def responses():
        out = []
        for i, kind in enumerate(schedule):
            if kind == "valid":
                out.append(_binary_candidate(i))
            elif kind == "duplicate":
                out.append(_binary_candidate(0))
            else:
                out.append("garbage that parses to nothing")
        return out

    def run(executor):
        fm = ScriptedFM(responses())
        function_fm = ScriptedFM(lambda prompt: GOOD_CODE)
        tool = SmartFeat(
            fm=fm,
            function_fm=function_fm,
            downstream_model="decision_tree",
            operator_families=(OperatorFamily.BINARY,),
            sampling_budget=len(schedule),
            error_threshold=error_threshold,
            wave_size=wave_size,
            executor=executor,
        )
        result = tool.fit_transform(small_frame(), target="Target")
        return (
            sorted(result.new_features),
            result.errors,
            fm.ledger.n_calls,
            fm.ledger.snapshot(),
        )

    serial = run(FMExecutor())
    with FMExecutor(concurrency) as pool:
        threaded = run(pool)
    assert serial == threaded


# ----------------------------------------------------------------------
# Injected 429s with retries off: a 429 is a deterministic stage error
# that consumes exactly its reserved slot on both backends.  (With
# retries on, serial reserves lazily, so a retry shifts later calls —
# the documented batch-reservation divergence.)
# ----------------------------------------------------------------------
class RateLimitedSimulatedFM(SimulatedFM):
    """SimulatedFM that 429s once per *fail_every*-th reserved call.

    Failures key on the reserved counter value, so both backends (which
    issue the same call sequence) hit identical failures at identical
    positions.
    """

    def __init__(self, fail_every: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fail_every = fail_every
        self._failed: set[int] = set()
        self._failed_lock = threading.Lock()

    def _complete_with_state(self, prompt, temperature, state):
        if isinstance(state, int) and state % self.fail_every == 0:
            with self._failed_lock:
                fresh = state not in self._failed
                self._failed.add(state)
            if fresh:
                raise FMRateLimitError(f"simulated 429 at call {state}")
        return super()._complete_with_state(prompt, temperature, state)


@given(
    seed=st.integers(min_value=0, max_value=3),
    wave_size=st.integers(min_value=1, max_value=4),
    concurrency=st.integers(min_value=2, max_value=6),
    fail_every=st.integers(min_value=3, max_value=9),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_injected_429s_without_retries_identical_across_backends(
    seed, wave_size, concurrency, fail_every
):
    def run(executor):
        fm = RateLimitedSimulatedFM(fail_every, seed=seed, model="gpt-4")
        function_fm = RateLimitedSimulatedFM(
            fail_every, seed=seed + 1, model="gpt-3.5-turbo"
        )
        tool = SmartFeat(
            fm=fm,
            function_fm=function_fm,
            downstream_model="decision_tree",
            executor=executor,
            wave_size=wave_size,
            operator_families=(
                OperatorFamily.UNARY,
                OperatorFamily.BINARY,
                OperatorFamily.HIGH_ORDER,
            ),
        )
        result = tool.fit_transform(
            small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
        )
        fingerprint = (
            list(result.new_features),  # accepted-feature ORDER, not just set
            result.dropped,
            result.errors,
            sorted(result.rejections),
            [(c.ledger.n_calls, c.ledger.cache_hits) for c in (fm, function_fm)],
        )
        return result.frame, fingerprint

    serial_frame, serial_fp = run(FMExecutor())
    with FMExecutor(concurrency) as pool:
        threaded_frame, threaded_fp = run(pool)
    assert serial_fp == threaded_fp
    assert frames_identical(serial_frame, threaded_frame)[0]


# ----------------------------------------------------------------------
# The generator keeps no clock: the stage scheduler times each node.
# ----------------------------------------------------------------------
def _candidate(name: str) -> FeatureCandidate:
    return FeatureCandidate(
        name=name,
        columns=["Age", "Income"],
        description=f"binary[-]: {name}",
        family=OperatorFamily.BINARY,
    )


def test_generator_timer_fallback_removed():
    generator = FunctionGenerator(ScriptedFM(lambda prompt: GOOD_CODE))
    assert not hasattr(generator, "timer")
    assert not hasattr(generator, "_timer_slot")


def test_no_timer_means_no_accounting_anywhere():
    """The generator takes no timer and parks none on shared state: a
    realization needs nothing but the candidate, agenda and frame."""
    generator = FunctionGenerator(ScriptedFM(lambda prompt: GOOD_CODE))
    frame = small_frame()
    agenda = DataAgenda.from_dataframe(frame, target="Target")
    realized = generator.realize(_candidate("gap"), agenda, frame)
    assert "gap" in realized.values
