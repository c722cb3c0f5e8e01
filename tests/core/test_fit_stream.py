"""Out-of-core fitting: ``fit_transform_stream`` over a shard stream.

The search itself runs on a bounded, seeded reservoir sample — so the
out-of-core fit is **bit-identical** to an in-memory ``fit_transform``
over the same sample, whatever chunking produced the stream — and the
exported plan's group tables are then refreshed over the full stream.
"""

import json

import pytest

from repro.core import SmartFeat
from repro.dataframe import DataFrame, Series
from repro.dataframe.io import iter_frame_shards, reservoir_sample
from repro.eval.serving import make_serving_frame
from repro.fm import SimulatedFM
from repro.serve import frames_identical


def make_tool(**kwargs):
    return SmartFeat(
        fm=SimulatedFM(seed=0, model="gpt-4"),
        function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
        **kwargs,
    )


@pytest.fixture(scope="module")
def frame():
    return make_serving_frame(2000, seed=3)


class TestFitTransformStream:
    def test_matches_in_memory_fit_on_same_sample(self, frame):
        streamed = make_tool().fit_transform_stream(
            lambda: iter_frame_shards(frame, 257),
            "Target",
            fit_sample_rows=500,
            sample_seed=7,
        )
        sample, total = reservoir_sample(
            iter_frame_shards(frame, 257), 500, seed=7
        )
        assert total == len(frame)
        inmem = make_tool().fit_transform(sample, "Target")
        identical, detail = frames_identical(streamed.frame, inmem.frame)
        assert identical, detail
        assert sorted(streamed.new_features) == sorted(inmem.new_features)

    def test_sample_covering_stream_matches_full_fit(self, frame):
        """``fit_sample_rows >= total`` keeps every row in order, so the
        streamed fit equals fitting the whole table in memory."""
        streamed = make_tool().fit_transform_stream(
            lambda: iter_frame_shards(frame, 313),
            "Target",
            fit_sample_rows=10**6,
        )
        inmem = make_tool().fit_transform(frame, "Target")
        identical, detail = frames_identical(streamed.frame, inmem.frame)
        assert identical, detail

    def test_chunk_invariant_including_plan(self, frame):
        results = [
            make_tool().fit_transform_stream(
                lambda: iter_frame_shards(frame, chunk),
                "Target",
                fit_sample_rows=400,
                sample_seed=11,
            )
            for chunk in (101, 500)
        ]
        identical, detail = frames_identical(results[0].frame, results[1].frame)
        assert identical, detail
        assert results[0].plan.to_json() == results[1].plan.to_json()

    def test_stream_metadata_recorded(self, frame):
        result = make_tool().fit_transform_stream(
            lambda: iter_frame_shards(frame, 257),
            "Target",
            fit_sample_rows=500,
            sample_seed=7,
        )
        meta = result.plan.metadata["fit_stream"]
        assert meta["sample_rows"] == 500
        assert meta["requested_sample_rows"] == 500
        assert meta["total_rows"] == len(frame)
        assert meta["seed"] == 7
        assert meta["group_tables_refreshed"] >= 1

    def test_refresh_survives_plan_export(self, frame):
        """The refreshed group tables land in the exported JSON (they
        reflect all rows, not just the fitted sample)."""
        refreshed = make_tool().fit_transform_stream(
            lambda: iter_frame_shards(frame, 257),
            "Target",
            fit_sample_rows=500,
            sample_seed=7,
        )
        unrefreshed = make_tool().fit_transform_stream(
            lambda: iter_frame_shards(frame, 257),
            "Target",
            fit_sample_rows=500,
            sample_seed=7,
            refresh_group_tables=False,
        )
        assert unrefreshed.plan.metadata["fit_stream"]["group_tables_refreshed"] == 0
        a = json.loads(refreshed.plan.to_json())
        b = json.loads(unrefreshed.plan.to_json())
        assert a != b  # tables over 2000 rows vs over the 500-row sample
        # The features keep the expressions fit evaluated on the sample.
        assert [f.expr for f in refreshed.new_features.values()] == [
            s.expr for s in unrefreshed.plan.features
        ]

    def test_refresh_adds_a_none_key_seen_only_outside_the_sample(self, frame):
        """A ``None`` key the sample never drew still streams through the
        refresh pass and joins each table on that key as one group."""
        ids = DataFrame({"row": Series(list(range(len(frame))))})
        drawn, _ = reservoir_sample(iter_frame_shards(ids, 257), 500, seed=7)
        outside = sorted(set(range(len(frame))) - set(drawn["row"].tolist()))[:40]
        blanked = frame.column_view(frame.columns)
        city = blanked["City"].values.copy()
        city[outside] = None
        blanked["City"] = Series._from_array(city, "City")
        result = make_tool().fit_transform_stream(
            lambda: iter_frame_shards(blanked, 257),
            "Target",
            fit_sample_rows=500,
            sample_seed=7,
        )
        assert None not in result.frame["City"].tolist()  # the fitted sample
        nodes = [
            node
            for node in result.plan._group_lookup_nodes()
            if node["keys"] == ["City"]
        ]
        assert nodes
        for node in nodes:
            assert [row[0] for row in node["table"]].count(None) == 1

    def test_one_shot_iterator_with_refresh_raises(self, frame):
        with pytest.raises(ValueError, match="callable shard factory"):
            make_tool().fit_transform_stream(
                iter_frame_shards(frame, 257),
                "Target",
                fit_sample_rows=500,
            )

    def test_one_shot_iterator_without_refresh_ok(self, frame):
        result = make_tool().fit_transform_stream(
            iter_frame_shards(frame, 257),
            "Target",
            fit_sample_rows=500,
            sample_seed=7,
            refresh_group_tables=False,
        )
        assert result.plan.metadata["fit_stream"]["group_tables_refreshed"] == 0

    def test_bad_sample_rows_raises(self, frame):
        with pytest.raises(ValueError, match="fit_sample_rows"):
            make_tool().fit_transform_stream(
                lambda: iter_frame_shards(frame, 100), "Target", fit_sample_rows=0
            )

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError, match="no rows"):
            make_tool().fit_transform_stream(lambda: iter(()), "Target")
