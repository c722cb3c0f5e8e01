"""Plan assembly: statuses, omissions, and the shared-grouping encode
satellite."""

import numpy as np
import pytest

from repro.core.function_generator import freeze_completion, realize_source
from repro.core.sandbox import TransformError
from repro.core.types import GeneratedFeature, OperatorFamily
from repro.dataframe import DataFrame
from repro.dataframe import kernels
from repro.dataframe.series import Series
from repro.eval.serving import (
    ALL_DATASETS,
    build_demo_result,
    fit_and_export,
    sandbox_replay,
)
from repro.serve import FeaturePlan, compile_plan, frames_identical, series_identical
from repro.dataframe.lift import lift_source


def feature(name, columns, description, source, outputs=None, family=OperatorFamily.UNARY):
    return GeneratedFeature(
        name=name,
        family=family,
        input_columns=list(columns),
        description=description,
        output_columns=outputs or [name],
        source_code=source,
    )


def result_of(frame, features):
    """Realize *features* in order through the fit evaluator, the way
    fit_transform would."""
    from repro.core.pipeline import SmartFeatResult

    working = frame.column_view(frame.columns)
    table = {}
    for feat in features:
        feat.expr, out = realize_source(feat.source_code, working)
        if isinstance(out, Series):
            working[feat.output_columns[0]] = out.rename(feat.output_columns[0])
        else:
            for name in feat.output_columns:
                working[name] = out[name]
        table[feat.name] = feat
    return SmartFeatResult(frame=working, new_features=table)


@pytest.fixture
def frame():
    return DataFrame(
        {
            "x": Series([1.0, 2.0, 3.0, 4.0, 5.0]),
            "g": Series(["a", "b", "a", "b", "a"]),
            "Target": Series([0, 1, 0, 1, 0]),
        }
    )


class TestStatuses:
    def test_codegen_source_compiles(self, frame):
        src = (
            "def transform(df):\n"
            "    col = df['x']\n"
            "    return (col - col.mean()) / (col.std() or 1.0)\n"
        )
        result = result_of(frame, [feature("x_z", ["x"], "normalization[zscore]: z", src)])
        plan = compile_plan(result, frame, "Target")
        assert plan.features[0].status == "compiled"
        assert plan.features[0].expr is not None

    def test_unliftable_source_is_rejected_and_never_ships(self, frame):
        src = "def transform(df):\n    return df['x'].apply(lambda v: v * 2)\n"
        with pytest.raises(TransformError, match="^not compilable: "):
            realize_source(src, frame)
        # A feature that reaches assembly with no frozen expression ships
        # omitted, with its reason.
        feat = feature("x_2", ["x"], "x doubled", src)
        feat.omit_reason = "hand-built"
        from repro.core.pipeline import SmartFeatResult

        working = frame.column_view(frame.columns)
        working["x_2"] = frame["x"] * 2
        result = SmartFeatResult(frame=working, new_features={"x_2": feat})
        plan = compile_plan(result, frame, "Target")
        spec = plan.features[0]
        assert (spec.status, spec.expr, spec.reason) == ("omitted", None, "hand-built")
        assert "x_2" not in plan.apply(frame)

    def test_feature_on_vanished_column_is_omitted(self, frame):
        src = "def transform(df):\n    return df['ghost'] * 2\n"
        feat = feature("ghost_x", ["ghost"], "squared: ghost", src)
        feat.expr = lift_source(src)  # no fit-time node: already frozen
        from repro.core.pipeline import SmartFeatResult

        working = frame.column_view(frame.columns)
        working["ghost_x"] = Series([1.0] * len(frame))
        result = SmartFeatResult(frame=working, new_features={"ghost_x": feat})
        plan = compile_plan(result, frame, "Target")
        assert plan.features[0].status == "omitted"
        assert plan.features[0].reason == (
            "expression reads columns absent at serve time: ['ghost']"
        )
        # replay still works, skipping the omitted feature
        out = plan.apply(frame)
        assert "ghost_x" not in out

    def test_row_level_single_column_becomes_dict_map(self, frame):
        feat = feature(
            "g_code",
            ["g"],
            "knowledge lookup",
            "<row-level FM completion>",
        )
        from repro.core.pipeline import SmartFeatResult

        working = frame.column_view(frame.columns)
        working["g_code"] = Series([1, 2, 1, 2, 1])
        freeze_completion(feat, frame, working["g_code"])
        result = SmartFeatResult(frame=working, new_features={"g_code": feat})
        plan = compile_plan(result, frame, "Target")
        assert plan.features[0].status == "compiled"
        assert plan.features[0].expr["op"] == "dict_map"
        out = plan.apply(frame)
        assert series_identical(out["g_code"], working["g_code"])


    def test_row_level_over_several_columns_is_omitted_with_its_reason(self, frame):
        feat = feature("xg_code", ["x", "g"], "knowledge lookup", "<row-level FM completion>")
        from repro.core.pipeline import SmartFeatResult

        working = frame.column_view(frame.columns)
        working["xg_code"] = Series([1, 2, 1, 2, 1])
        freeze_completion(feat, frame, working["xg_code"])
        assert feat.expr is None
        result = SmartFeatResult(frame=working, new_features={"xg_code": feat})
        spec = compile_plan(result, frame, "Target").features[0]
        assert (spec.status, spec.reason) == (
            "omitted",
            "row-level completion reads multiple columns",
        )


class TestDropReplay:
    def test_dropped_columns_removed_at_serve_time(self):
        result, frame = build_demo_result(80, seed=3)
        assert result.dropped  # the demo workload drops single-use originals
        plan = compile_plan(result, frame, "Target")
        out = plan.apply(frame)
        for column in result.dropped:
            assert column not in out
            assert column in frame  # input untouched
        identical, detail = frames_identical(out, result.frame)
        assert identical, detail


class TestSharedGroupingEncode:
    def test_group_features_share_one_key_encode(self, monkeypatch):
        """Two groupby features over the same key column must trigger one
        dictionary encode per batch, not one per feature."""
        frame = DataFrame(
            {
                "g": Series(["a", "b", "a", "b", "c"]),
                "u": Series([1.0, 2.0, 3.0, 4.0, 5.0]),
                "v": Series([5.0, 4.0, 3.0, 2.0, 1.0]),
                "Target": Series([0, 1, 0, 1, 0]),
            }
        )
        features = [
            feature(
                "g_mean_u",
                ["g", "u"],
                "groupby[mean]: mean u per g",
                "def transform(df):\n    return df.groupby(['g'])['u'].transform('mean')\n",
                family=OperatorFamily.HIGH_ORDER,
            ),
            feature(
                "g_max_v",
                ["g", "v"],
                "groupby[max]: max v per g",
                "def transform(df):\n    return df.groupby(['g'])['v'].transform('max')\n",
                family=OperatorFamily.HIGH_ORDER,
            ),
        ]
        result = result_of(frame, features)
        plan = compile_plan(result, frame, "Target")
        assert [s.status for s in plan.features] == ["compiled", "compiled"]

        calls = []
        real = kernels.dictionary_encode

        def counting(values, *known):
            calls.append(values)
            return real(values, *known)

        monkeypatch.setattr(kernels, "dictionary_encode", counting)
        # New Series objects over the same arrays: no cached encodings.
        fresh = DataFrame(
            {c: Series._from_array(frame[c].values, c) for c in frame.columns}
        )
        out = plan.apply(fresh)
        identical, detail = frames_identical(out, result.frame)
        assert identical, detail
        # one encode for the shared "g" key column, despite two features
        g_encodes = [v for v in calls if v is fresh["g"].values]
        assert len(g_encodes) == 1


class TestIncompleteGroupKeys:
    @pytest.mark.parametrize(
        "city",
        [
            ["SF", None, "LA", "SF", None, "LA", "NY"],
            ["SF", 1, "LA", "SF", 1, "SF", "NY"],
        ],
        ids=["none", "mixed"],
    )
    def test_groupby_mean_compiles_and_replays_after_json(self, city):
        frame = DataFrame(
            {
                "City": Series(city),
                "Income": Series([10.0, 20.0, 30.0, 40.0, np.nan, 60.0, 70.0]),
                "Target": Series([0, 1, 0, 1, 0, 1, 0]),
            }
        )
        src = "def transform(df):\n    return df.groupby('City')['Income'].transform('mean')\n"
        result = result_of(
            frame,
            [
                feature(
                    "City_mean_Income",
                    ["City", "Income"],
                    "groupby[mean]: mean Income per City",
                    src,
                    family=OperatorFamily.HIGH_ORDER,
                )
            ],
        )
        plan = compile_plan(result, frame, "Target")
        assert plan.features[0].status == "compiled"
        replayed = FeaturePlan.from_json(plan.to_json())
        identical, detail = frames_identical(replayed.apply(frame), result.frame)
        assert identical, detail


def blank_object_cells(frame, rate, seed):
    """Set about *rate* of every object column's cells to ``None``."""
    rng = np.random.default_rng(seed)
    for column in frame.columns:
        values = frame[column].values
        if values.dtype == object:
            values = values.copy()
            values[rng.random(len(values)) < rate] = None
            frame[column] = Series._from_array(values, column)
    return frame


class TestEndToEnd:
    def test_blanked_object_cells_compile_every_feature(self):
        """Group keys with missing cells freeze into group tables: a fit on
        adult with 2% of its object cells blanked compiles every feature."""
        from repro.core import SmartFeat
        from repro.datasets import load_dataset
        from repro.fm import SimulatedFM

        loaded = load_dataset("adult", seed=0, n_rows=400)
        frame = blank_object_cells(loaded.frame, 0.02, seed=0)
        assert any(
            None in frame[c].tolist() for c in frame.columns if frame[c].dtype == object
        )
        result = SmartFeat(
            SimulatedFM(seed=0, model="gpt-4"),
            function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
        ).fit_transform(
            frame,
            loaded.target,
            descriptions=loaded.descriptions,
            title=loaded.title,
            target_description=loaded.target_description,
        )
        counts = result.plan.counts()
        assert counts == {"compiled": len(result.plan.features), "omitted": 0}
        replayed = FeaturePlan.from_json(result.plan.to_json())
        identical, detail = frames_identical(replayed.apply(frame), result.frame)
        assert identical, detail

    def test_fitted_dataset_roundtrip(self):
        bundle, result = fit_and_export("diabetes", n_rows=240, seed=0)
        plan = FeaturePlan.from_json(result.plan.to_json())
        counts = plan.counts()
        assert counts["omitted"] == 0
        identical, detail = frames_identical(plan.apply(bundle["frame"]), result.frame)
        assert identical, detail

    def test_sandbox_replay_matches_fit(self):
        result, frame = build_demo_result(100, seed=1)
        identical, detail = frames_identical(sandbox_replay(result, frame), result.frame)
        assert identical, detail

    def test_all_datasets_listed(self):
        assert "synthetic" in ALL_DATASETS and len(ALL_DATASETS) == 9

    def test_compile_metadata_records_counts(self):
        result, frame = build_demo_result(60, seed=0)
        plan = compile_plan(result, frame, "Target")
        meta = plan.metadata["compile"]
        assert meta["n_features"] == len(plan.features)
        assert meta["compiled"] == plan.counts()["compiled"]
