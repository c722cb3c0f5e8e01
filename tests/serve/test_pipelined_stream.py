"""Shard streams fanned out over caller-side worker threads.

The serve layer runs one shard at a time, but nothing stops a caller
from transforming shards concurrently on its own thread pool (a request
server does exactly that).  The contract: worker threads change *when*
a shard is transformed, never *what* comes out — outputs collected in
shard order are bit-identical to the sequential stream, the
fault-isolation machinery (degrade NaN-fills, shared breakers, strict
errors after the healthy prefix) composes with the threads unchanged,
and independent group-table refreshes running side by side agree with
the sequential refresh for any chunking.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.sandbox import TransformError
from repro.dataframe.io import concat_shards, iter_frame_shards
from repro.eval.serving import build_demo_result
from repro.serve import (
    BreakerBoard,
    FeaturePlan,
    FeatureServer,
    compile_plan,
    frames_identical,
)


@pytest.fixture(scope="module")
def demo():
    result, frame = build_demo_result(600, seed=0)
    plan = FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json())
    return plan, frame, plan.apply(frame)


def _shard_frames(frame, rows):
    return [shard.frame for shard in iter_frame_shards(frame, rows)]


class TestTransformStreamPipelined:
    def test_bit_identical_and_stats_surfaced(self, demo):
        """One server shared by three worker threads serves the same bits
        as its sequential stream, and its counters see every row."""
        plan, frame, base = demo
        sequential = FeatureServer(plan)
        threaded = FeatureServer(plan)
        seq_out = concat_shards(
            list(sequential.transform_stream(iter_frame_shards(frame, 150)))
        )
        with ThreadPoolExecutor(max_workers=3) as pool:
            outs = list(pool.map(threaded.transform, _shard_frames(frame, 150)))
        assert [len(o) for o in outs] == [150, 150, 150, 150]
        merged = concat_shards(outs)
        for other in (seq_out, base):
            identical, detail = frames_identical(merged, other)
            assert identical, detail
        seq_stats, thread_stats = sequential.stats(), threaded.stats()
        assert "pipeline" not in seq_stats
        assert "pipeline" not in thread_stats
        for stats in (seq_stats, thread_stats):
            assert stats["batches"] == 4
            assert stats["rows_in"] == stats["rows_served"] == len(frame)


class TestFaultIsolationComposition:
    """Per-feature fault isolation under caller-side worker threads."""

    @staticmethod
    def _fail_on_small_shard(feature):
        """Deterministic under any worker timing: fails on the one shard
        whose row count differs (the trailing partial shard)."""

        def evaluator(spec, frame, default):
            if spec.name == feature and len(frame) == 100:
                raise TransformError("injected: fails on the partial shard")
            return default()

        return evaluator

    def test_degrade_nan_fills_only_the_failing_shard(self, demo):
        plan, frame, base = demo
        evaluator = self._fail_on_small_shard("Income_z")

        def transform(shard):
            return plan.apply(shard, failure_policy="degrade", evaluator=evaluator)

        with ThreadPoolExecutor(max_workers=3) as pool:
            outs = list(pool.map(transform, _shard_frames(frame, 250)))
        assert [len(o) for o in outs] == [250, 250, 100]
        expect = _shard_frames(base, 250)
        for idx in (0, 1):
            identical, detail = frames_identical(outs[idx], expect[idx])
            assert identical, f"healthy shard {idx} diverged: {detail}"
        assert np.isnan(outs[2]["Income_z"].values).all()
        for name in base.columns:
            if name == "Income_z":
                continue
            assert np.array_equal(
                outs[2][name].values,
                expect[2][name].values,
                equal_nan=outs[2][name].dtype.kind == "f",
            ), name

    def test_strict_raises_after_healthy_prefix(self, demo):
        """Results drained in shard order surface every healthy shard
        before the failing one re-raises on the caller's thread."""
        plan, frame, _ = demo
        evaluator = self._fail_on_small_shard("Income_z")

        def transform(shard):
            return plan.apply(shard, evaluator=evaluator)

        got = []
        with ThreadPoolExecutor(max_workers=3) as pool:
            with pytest.raises(TransformError, match="injected"):
                for out in pool.map(transform, _shard_frames(frame, 250)):
                    got.append(len(out))
        assert got == [250, 250]

    def test_breakers_trip_across_worker_threads(self, demo):
        """One breaker board shared by four threads counts every failure
        and opens, whichever thread trips it."""
        plan, frame, _ = demo

        def always_fail(spec, frame_, default):
            if spec.name == "Income_z":
                raise TransformError("injected: always fails")
            return default()

        breakers = BreakerBoard(failure_threshold=2, cooldown_calls=100)

        def transform(shard):
            return plan.apply(
                shard,
                failure_policy="degrade",
                breakers=breakers,
                evaluator=always_fail,
            )

        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(transform, _shard_frames(frame, 100)))
        assert len(outs) == 6
        assert breakers.snapshot()["Income_z"]["state"] == "open"
        for out in outs:
            assert np.isnan(out["Income_z"].values).all()


class TestRefreshGroupTablesPipelined:
    def test_chunking_and_workers_invariant(self, demo):
        """Independent plan copies refreshed side by side on worker
        threads share no fold state: each lands on the sequential JSON."""
        plan, frame, _ = demo
        baseline = FeaturePlan.from_json(plan.to_json())
        assert baseline.refresh_group_tables(iter_frame_shards(frame, 211)) == 2
        want = json.dumps(json.loads(baseline.to_json()), sort_keys=True)

        def refresh(chunk):
            p = FeaturePlan.from_json(plan.to_json())
            p.refresh_group_tables(iter_frame_shards(frame, chunk))
            return json.dumps(json.loads(p.to_json()), sort_keys=True)

        for chunk, workers in ((1, 2), (211, 4), (10**6, 1)):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                got = list(pool.map(refresh, [chunk] * workers))
            assert got == [want] * workers, f"chunk={chunk} workers={workers}"
