"""Out-of-core serving: ``apply_stream``, memory budgets, streaming
transforms, per-shard fault isolation, and group-table refresh.

The central contract: every frozen op is row-local given its fitted
statistics, so ``concat_shards(plan.apply_stream(shards))`` is
**bit-identical** to ``plan.apply`` over the whole table — for every
codegen form, any chunking, unseen serve keys split across shard
boundaries, and all-NaN shards included.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sandbox import TransformError
from repro.dataframe import DataFrame, Series
from repro.dataframe.io import Shard, concat_shards, iter_frame_shards
from repro.eval.serving import build_demo_result, sharded_identity_report
from repro.serve import (
    BreakerBoard,
    FeaturePlan,
    FeatureServer,
    PlanError,
    compile_plan,
    frames_identical,
)


@pytest.fixture(scope="module")
def demo():
    result, frame = build_demo_result(600, seed=0)
    plan = FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json())
    return plan, frame, plan.apply(frame)


class TestApplyStreamIdentity:
    @pytest.mark.parametrize("chunk", [1, 113, 600, 10**6])
    def test_every_codegen_form_bit_identical(self, demo, chunk):
        plan, frame, base = demo
        merged = concat_shards(
            list(plan.apply_stream(iter_frame_shards(frame, chunk)))
        )
        identical, detail = frames_identical(merged, base)
        assert identical, f"chunk={chunk}: {detail}"

    def test_every_entry_point_yields_the_same_frame(self, demo):
        """``apply``, strict ``apply_with_report`` and a sharded
        ``apply_stream`` all run the one replay loop: same bits."""
        plan, frame, _ = demo
        whole = plan.apply(frame)
        reported, report = plan.apply_with_report(frame, failure_policy="strict")
        streamed = concat_shards(
            list(plan.apply_stream(iter_frame_shards(frame, 113)))
        )
        assert report.ok
        for other in (reported, streamed):
            identical, detail = frames_identical(other, whole)
            assert identical, detail

    def test_accepts_plain_frames_and_shards(self, demo):
        plan, frame, base = demo
        pieces = [s.frame for s in iter_frame_shards(frame, 200)]
        merged = concat_shards(list(plan.apply_stream(pieces)))
        identical, detail = frames_identical(merged, base)
        assert identical, detail

    def test_empty_shards_skipped(self, demo):
        """Zero-row frames vanish from the stream rather than erroring."""
        plan, frame, base = demo
        empty = DataFrame(
            {
                name: Series._from_array(frame[name].values[:0], name)
                for name in frame.columns
            }
        )
        pieces = [s.frame for s in iter_frame_shards(frame, 300)]
        outs = list(plan.apply_stream([pieces[0], empty, pieces[1]]))
        assert len(outs) == 2
        identical, detail = frames_identical(concat_shards(outs), base)
        assert identical, detail

    def test_serve_keys_unseen_at_fit_split_across_shards(self, demo):
        """Hash-path group keys (unseen / hostile) still replay
        identically when the rows land in different shards."""
        plan, frame, _ = demo
        serve = frame.column_view(frame.columns)
        segments = serve["Segment"].tolist()
        # sprinkle unseen groups around shard boundary positions
        for i in range(0, len(segments), 97):
            segments[i] = f"unseen_{i % 5}"
        serve["Segment"] = Series(segments, "Segment")
        base = plan.apply(serve)
        for chunk in (97, 100, 601):
            merged = concat_shards(
                list(plan.apply_stream(iter_frame_shards(serve, chunk)))
            )
            identical, detail = frames_identical(merged, base)
            assert identical, f"chunk={chunk}: {detail}"

    def test_all_nan_shards(self, demo):
        """A shard whose numeric inputs are entirely NaN replays
        identically to the same rows served in-memory."""
        plan, frame, _ = demo
        serve = frame.column_view(frame.columns)
        income = serve["Income"].values.copy()
        balance = serve["Balance"].values.copy()
        income[100:200] = np.nan  # exactly the second chunk-of-100
        balance[100:200] = np.nan
        serve["Income"] = Series._from_array(income, "Income")
        serve["Balance"] = Series._from_array(balance, "Balance")
        base = plan.apply(serve)
        merged = concat_shards(
            list(plan.apply_stream(iter_frame_shards(serve, 100)))
        )
        identical, detail = frames_identical(merged, base)
        assert identical, detail


class TestMemoryBudget:
    def test_budget_forces_rechunking(self, demo):
        plan, frame, base = demo
        pieces = list(
            plan.apply_stream(iter_frame_shards(frame, 10**6), memory_budget_mb=1)
        )
        assert len(pieces) > 1
        identical, detail = frames_identical(concat_shards(pieces), base)
        assert identical, detail

    def test_budget_rows_scales_with_budget(self, demo):
        plan, frame, _ = demo
        small = plan.budget_rows(frame, 1)
        big = plan.budget_rows(frame, 100)
        assert 1 <= small < big

    def test_budget_rows_never_zero(self, demo):
        plan, frame, _ = demo
        assert plan.budget_rows(frame, 0.0001) == 1

    def test_non_positive_budget_raises(self, demo):
        plan, frame, _ = demo
        with pytest.raises(PlanError):
            plan.budget_rows(frame, 0)
        with pytest.raises(PlanError):
            list(plan.apply_stream(iter_frame_shards(frame, 10), memory_budget_mb=-1))


class TestServerStreaming:
    def test_transform_accepts_iterator(self, demo):
        plan, frame, base = demo
        server = FeatureServer(plan=plan)
        out = server.transform(iter_frame_shards(frame, 151))
        identical, detail = frames_identical(out, base)
        assert identical, detail
        assert server.stats()["batches"] == 4

    def test_transform_stream_yields_per_shard(self, demo):
        plan, frame, base = demo
        server = FeatureServer(plan=plan)
        outs = list(server.transform_stream(iter_frame_shards(frame, 200)))
        assert [len(o) for o in outs] == [200, 200, 200]
        identical, detail = frames_identical(concat_shards(outs), base)
        assert identical, detail
        assert server.stats()["rows_in"] == len(frame)

    def test_list_of_dicts_still_goes_through_batch_path(self, demo):
        plan, frame, _ = demo
        server = FeatureServer(plan=plan)
        rows = [
            {name: frame[name].tolist()[i] for name in frame.columns}
            for i in range(3)
        ]
        out = server.transform(rows)  # Sequence, not the stream branch
        assert len(out) == 3
        assert server.stats()["batches"] == 1


class TestPerShardFaultIsolation:
    def _failing_on_second_shard(self, feature):
        calls = {"n": 0}

        def evaluator(spec, frame, default):
            if spec.name == feature:
                calls["n"] += 1
                if calls["n"] == 2:
                    raise TransformError("injected: fails on shard 2 only")
            return default()

        return evaluator

    def test_degrade_nan_fills_only_the_failing_shard(self, demo):
        plan, frame, base = demo
        outs = list(
            plan.apply_stream(
                iter_frame_shards(frame, 200),
                failure_policy="degrade",
                evaluator=self._failing_on_second_shard("Income_z"),
            )
        )
        assert len(outs) == 3
        # shards 1 and 3 are bit-identical to the in-memory rows
        expect = list(iter_frame_shards(base, 200))
        for idx in (0, 2):
            identical, detail = frames_identical(outs[idx], expect[idx].frame)
            assert identical, f"healthy shard {idx} diverged: {detail}"
        # shard 2's failing feature NaN-filled; its other columns intact
        assert np.isnan(outs[1]["Income_z"].values).all()
        for name in base.columns:
            if name == "Income_z":
                continue
            assert np.array_equal(
                outs[1][name].values,
                expect[1].frame[name].values,
                equal_nan=outs[1][name].dtype.kind == "f",
            ), name

    def test_strict_stream_fails_loudly_mid_stream(self, demo):
        plan, frame, _ = demo
        stream = plan.apply_stream(
            iter_frame_shards(frame, 200),
            evaluator=self._failing_on_second_shard("Income_z"),
        )
        next(stream)
        with pytest.raises(TransformError, match="injected"):
            list(stream)

    def test_breakers_accumulate_across_shards(self, demo):
        """A feature failing on every shard trips a shared breaker after
        the threshold, then later shards skip it (NaN) without paying."""
        plan, frame, _ = demo

        def always_fail(spec, frame_, default):
            if spec.name == "Income_z":
                raise TransformError("injected: always fails")
            return default()

        breakers = BreakerBoard(failure_threshold=2, cooldown_calls=100)
        outs = list(
            plan.apply_stream(
                iter_frame_shards(frame, 100),
                failure_policy="degrade",
                breakers=breakers,
                evaluator=always_fail,
            )
        )
        assert len(outs) == 6
        assert breakers.snapshot()["Income_z"]["state"] == "open"
        for out in outs:
            assert np.isnan(out["Income_z"].values).all()


class TestRefreshGroupTables:
    def test_chunk_invariant(self, demo):
        """The streaming fold is a left fold in stream order, so any
        chunking refreshes the plan to the same JSON and the same bits."""
        plan, frame, _ = demo
        refreshed = []
        payloads = set()
        for chunk in (1, 211, 10**6):
            p = FeaturePlan.from_json(plan.to_json())
            assert p.refresh_group_tables(iter_frame_shards(frame, chunk)) == 2
            refreshed.append(p.apply(frame))
            payloads.add(json.dumps(json.loads(p.to_json()), sort_keys=True))
        assert len(payloads) == 1
        for other in refreshed[1:]:
            identical, detail = frames_identical(other, refreshed[0])
            assert identical, detail

    def test_refresh_over_fit_data_is_self_consistent(self, demo):
        """Refreshing over the very data the plan was fitted on leaves
        non-mean lookups bit-exact and mean lookups within round-off
        (sequential fold vs the fit-time pairwise sum)."""
        plan, frame, base = demo
        p = FeaturePlan.from_json(plan.to_json())
        p.refresh_group_tables(iter_frame_shards(frame, 97))
        out = p.apply(frame)
        for name in base.columns:
            a, b = out[name].values, base[name].values
            if name == "Seg_mean_income":
                mask = ~(np.isnan(a) & np.isnan(b))
                assert np.allclose(a[mask], b[mask], rtol=1e-12, atol=0.0)
            else:
                assert a.dtype == b.dtype
                assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name

    def test_refresh_sees_new_data(self, demo):
        """Tables refreshed over a different stream reflect that stream,
        not the fit sample."""
        plan, frame, _ = demo
        serve = frame.column_view(frame.columns)
        income = np.full(len(frame), 7.0)
        serve["Income"] = Series._from_array(income, "Income")
        p = FeaturePlan.from_json(plan.to_json())
        p.refresh_group_tables(iter_frame_shards(serve, 100))
        out = p.apply(serve)
        # mean of log(Income) per segment: log1p? the demo aggregates
        # log-transformed income; constant input => constant per-group mean
        seen = out["Seg_mean_income"].values
        finite = seen[~np.isnan(seen)]
        assert len(finite) and np.allclose(finite, finite[0])

    def test_missing_agg_col_raises_plan_error(self, demo):
        plan, frame, _ = demo
        p = FeaturePlan.from_json(plan.to_json())
        for node in p._group_lookup_nodes():
            node.pop("agg_col", None)
        with pytest.raises(PlanError, match="agg_col"):
            p.refresh_group_tables(iter_frame_shards(frame, 100))

    def test_no_group_tables_consumes_nothing(self, demo):
        plan, frame, _ = demo
        p = FeaturePlan.from_json(plan.to_json())
        p.features = [
            spec
            for spec in p.features
            if "group_lookup" not in json.dumps(spec.expr or {})
        ]
        consumed = []

        def stream():
            consumed.append(True)
            yield frame

        assert p.refresh_group_tables(stream()) == 0
        assert not consumed

    def test_agg_col_survives_json_roundtrip(self, demo):
        plan, _, _ = demo
        replayed = FeaturePlan.from_json(plan.to_json())
        nodes = replayed._group_lookup_nodes()
        assert len(nodes) == 2
        assert all("agg_col" in node for node in nodes)


def test_sharded_identity_report_single_dataset():
    rows = sharded_identity_report(("synthetic",), n_rows=160, chunk_rows=31)
    assert rows[0]["identical"], rows[0]["detail"]
    assert rows[0]["n_shards"] > 1


# ----------------------------------------------------------------------
# Property suite: serve-time chunking never changes bits
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def prop_plan(demo):
    return demo


@settings(max_examples=25, deadline=None)
@given(
    chunk=st.integers(1, 700),
    unseen_every=st.integers(13, 200),
    nan_start=st.integers(0, 500),
    nan_len=st.integers(0, 100),
)
def test_apply_stream_identity_under_mutation(demo, chunk, unseen_every, nan_start, nan_len):
    """Any chunking × unseen-group injection × NaN runs: sharded replay
    stays bit-identical to in-memory replay of the same mutated table."""
    plan, frame, _ = demo
    serve = frame.column_view(frame.columns)
    segments = serve["Segment"].tolist()
    for i in range(0, len(segments), unseen_every):
        segments[i] = f"hash_path_{i}"
    serve["Segment"] = Series(segments, "Segment")
    income = serve["Income"].values.copy()
    income[nan_start : nan_start + nan_len] = np.nan
    serve["Income"] = Series._from_array(income, "Income")
    base = plan.apply(serve)
    merged = concat_shards(list(plan.apply_stream(iter_frame_shards(serve, chunk))))
    identical, detail = frames_identical(merged, base)
    assert identical, f"chunk={chunk}: {detail}"
