"""FeaturePlan serialization: round-trip identity, versioning, migration."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import SmartFeatResult
from repro.core.function_generator import realize_source
from repro.core.types import GeneratedFeature, OperatorFamily
from repro.dataframe import DataFrame, io
from repro.dataframe.series import Series
from repro.eval.serving import build_demo_result
from repro.serve import (
    PLAN_SCHEMA_VERSION,
    FeaturePlan,
    FeatureSpec,
    PlanRegistry,
    PlanSchemaError,
    PlanVersionError,
    compile_plan,
    frames_identical,
    series_identical,
)


def demo_plan(n_rows=60, seed=0):
    result, frame = build_demo_result(n_rows, seed=seed)
    return compile_plan(result, frame, "Target"), result, frame


class TestRoundTrip:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_rows=st.integers(min_value=30, max_value=120),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_every_codegen_form_replays_identically(self, n_rows, seed):
        """fit → compile → JSON → load → replay is bit-identical for a
        workload that exercises every operator form the codegen emits."""
        plan, result, frame = demo_plan(n_rows, seed)
        counts = plan.counts()
        assert counts == {"compiled": len(plan.features), "omitted": 0}, counts
        loaded = FeaturePlan.from_json(plan.to_json())
        identical, detail = frames_identical(loaded.apply(frame), result.frame)
        assert identical, detail

    def test_json_is_valid_and_versioned(self):
        plan, _, _ = demo_plan()
        payload = json.loads(plan.to_json())
        assert payload["schema_version"] == PLAN_SCHEMA_VERSION
        assert payload["fingerprint"] == plan.fingerprint
        assert len(payload["features"]) == len(plan.features)

    def test_save_load_file(self, tmp_path):
        plan, result, frame = demo_plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        loaded = FeaturePlan.load(path)
        assert loaded.fingerprint == plan.fingerprint
        identical, detail = frames_identical(loaded.apply(frame), result.frame)
        assert identical, detail


class TestVersioning:
    def test_newer_schema_version_refused_loudly(self):
        plan, _, _ = demo_plan()
        payload = plan.to_dict()
        payload["schema_version"] = PLAN_SCHEMA_VERSION + 1
        with pytest.raises(PlanVersionError, match="upgrade the reader"):
            FeaturePlan.from_dict(payload)

    def test_missing_schema_version_refused(self):
        plan, _, _ = demo_plan()
        payload = plan.to_dict()
        del payload["schema_version"]
        with pytest.raises(PlanSchemaError, match="schema_version"):
            FeaturePlan.from_dict(payload)

    def test_v1_payload_migrates(self):
        """A simulated pre-release v1 plan (flat ``columns`` mapping, no
        fingerprint) migrates to the current shape and replays."""
        plan, result, frame = demo_plan()
        payload = plan.to_dict()
        payload["schema_version"] = 1
        payload["columns"] = {name: kind for name, kind in payload.pop("input_schema")}
        payload.pop("fingerprint")
        migrated = FeaturePlan.from_dict(payload)
        assert migrated.schema_version == PLAN_SCHEMA_VERSION
        assert migrated.fingerprint == plan.fingerprint
        identical, detail = frames_identical(migrated.apply(frame), result.frame)
        assert identical, detail

    def test_unknown_old_version_fails_loudly(self):
        plan, _, _ = demo_plan()
        payload = plan.to_dict()
        payload["schema_version"] = 0
        with pytest.raises(PlanVersionError, match="no migration"):
            FeaturePlan.from_dict(payload)


class TestTampering:
    def test_fingerprint_mismatch_detected(self):
        plan, _, _ = demo_plan()
        payload = plan.to_dict()
        payload["input_schema"] = payload["input_schema"][:-1]  # drop a column
        with pytest.raises(PlanSchemaError, match="fingerprint mismatch"):
            FeaturePlan.from_dict(payload)

    def test_compiled_spec_requires_expression(self):
        with pytest.raises(PlanSchemaError, match="no expression"):
            FeatureSpec.from_dict(
                {
                    "name": "f",
                    "input_columns": ["a"],
                    "output_columns": ["f"],
                    "status": "compiled",
                }
            )

    def test_fit_node_smuggled_into_plan_rejected(self):
        with pytest.raises(PlanSchemaError):
            FeatureSpec.from_dict(
                {
                    "name": "f",
                    "input_columns": ["a"],
                    "output_columns": ["f"],
                    "status": "compiled",
                    "expr": {"op": "fit_mean", "column": "a"},
                }
            )

    def test_unknown_status_rejected(self):
        with pytest.raises(PlanSchemaError, match="unknown status"):
            FeatureSpec.from_dict(
                {
                    "name": "f",
                    "input_columns": ["a"],
                    "output_columns": ["f"],
                    "status": "mystery",
                }
            )

    def test_schema_mismatch_at_apply_lists_all_problems(self):
        plan, _, frame = demo_plan()
        wrong = frame.column_view([c for c in frame.columns if c != "Age"])
        with pytest.raises(PlanSchemaError, match="Age"):
            plan.apply(wrong)


# ----------------------------------------------------------------------
# Plans written before the fallback status was removed
# ----------------------------------------------------------------------
#: A v2 plan as the previous writer saved it: every feature carries
#: ``"fallback_source": null`` and the compile metadata a fallback count.
OLD_V2_PLAN = """{
  "schema_version": 2,
  "fingerprint": "8605270b8eeaedaa53b11120fecb4f748690734dd82f0732977dd81c117c2af2",
  "target": "Target",
  "input_columns": ["x", "g", "Target"],
  "input_schema": [["x", "numeric"], ["g", "object"]],
  "drop_columns": [],
  "metadata": {"compile": {"n_features": 2, "compiled": 2, "fallback": 0,
                           "omitted": 0, "omitted_features": []}},
  "features": [
    {"name": "x_twice", "family": "unary", "description": "x_twice",
     "input_columns": ["x"], "output_columns": ["x_twice"], "status": "compiled",
     "expr": {"op": "mul", "left": {"op": "col", "name": "x"},
              "right": {"op": "const", "value": 2}},
     "fallback_source": null, "reason": "", "output_kinds": ["numeric"]},
    {"name": "x_by_g", "family": "high_order", "description": "x_by_g",
     "input_columns": ["g", "x"], "output_columns": ["x_by_g"], "status": "compiled",
     "expr": {"op": "group_lookup", "keys": ["g"], "agg": "mean", "agg_col": "x",
              "table": [["a", 3.0], ["b", 3.0]], "value_kind": "float64",
              "fill": null},
     "fallback_source": null, "reason": "", "output_kinds": ["numeric"]}
  ]
}"""

_OLD_SOURCES = {
    "x_twice": (["x"], OperatorFamily.UNARY, "return df['x'] * 2"),
    "x_by_g": (
        ["g", "x"],
        OperatorFamily.HIGH_ORDER,
        "return df.groupby('g')['x'].transform('mean')",
    ),
}


def _old_frame():
    return DataFrame(
        {
            "x": Series([1.0, 2.0, 3.0, 4.0, 5.0]),
            "g": Series(["a", "b", "a", "b", "a"]),
            "Target": Series([0, 1, 0, 1, 0]),
        }
    )


def _fresh_plan(frame):
    """The old plan's features, fitted and compiled by this writer."""
    working = frame.column_view(frame.columns)
    features = {}
    for name, (columns, family, body) in _OLD_SOURCES.items():
        source = f"def transform(df):\n    {body}\n"
        expr, out = realize_source(source, working)
        working[name] = out.rename(name)
        features[name] = GeneratedFeature(
            name=name,
            family=family,
            input_columns=columns,
            description=name,
            output_columns=[name],
            source_code=source,
            expr=expr,
        )
    result = SmartFeatResult(frame=working, new_features=features)
    return compile_plan(result, frame, "Target")


ROUTES = ["from_json", "load", "registry"]


def _loader(route, text, tmp_path):
    """A loader of *text* through ``from_json``, ``FeaturePlan.load`` or a
    registry."""
    if route == "from_json":
        return lambda: FeaturePlan.from_json(text)
    if route == "load":
        path = tmp_path / "plan.json"
        path.write_text(text)
        return lambda: FeaturePlan.load(str(path))
    registry_dir = tmp_path / "registry" / "old"
    os.makedirs(registry_dir)
    (registry_dir / "v1.json").write_text(text)
    return lambda: PlanRegistry(str(tmp_path / "registry")).load("old")


@pytest.mark.parametrize("route", ROUTES)
class TestPlansFromBeforeFallbackRemoval:
    def test_old_v2_plan_loads_and_applies_like_a_fresh_compile(self, route, tmp_path):
        frame = _old_frame()
        fresh = _fresh_plan(frame)
        assert fresh.counts() == {"compiled": 2, "omitted": 0}
        loaded = _loader(route, OLD_V2_PLAN, tmp_path)()
        assert loaded.schema_version == PLAN_SCHEMA_VERSION
        assert loaded.to_dict()["features"] == fresh.to_dict()["features"]
        identical, detail = frames_identical(loaded.apply(frame), fresh.apply(frame))
        assert identical, detail
        fresh_csv = tmp_path / "fresh.csv"
        io.to_csv(fresh.apply(frame), str(fresh_csv))
        out_csv = tmp_path / f"{route}.csv"
        io.to_csv(loaded.apply(frame), str(out_csv))
        assert out_csv.read_bytes() == fresh_csv.read_bytes()

    def test_old_omitted_spec_stays_omitted(self, route, tmp_path):
        # The previous writer put ``"fallback_source": null`` on omitted
        # specs too; they load as omissions with their reason and serve
        # no column.
        payload = json.loads(OLD_V2_PLAN)
        spec = payload["features"][1]
        spec.update(status="omitted", expr=None, reason="column 'g' vanished")
        payload["metadata"]["compile"].update(
            compiled=1, omitted=1, omitted_features=["x_by_g"]
        )
        loaded = _loader(route, json.dumps(payload), tmp_path)()
        assert loaded.counts() == {"compiled": 1, "omitted": 1}
        omitted = loaded.features[1]
        assert (omitted.name, omitted.expr) == ("x_by_g", None)
        assert omitted.reason == "column 'g' vanished"
        frame = _old_frame()
        out = loaded.apply(frame)
        assert "x_by_g" not in out.columns
        fresh = _fresh_plan(frame).apply(frame)
        assert series_identical(out["x_twice"], fresh["x_twice"])

    def test_old_fallback_spec_fails_loudly_naming_the_feature(self, route, tmp_path):
        payload = json.loads(OLD_V2_PLAN)
        spec = payload["features"][1]
        spec.update(
            status="fallback",
            expr=None,
            fallback_source="def transform(df):\n    return df['x'].apply(abs)\n",
        )
        load = _loader(route, json.dumps(payload), tmp_path)
        with pytest.raises(PlanSchemaError, match="'x_by_g'.*fallback"):
            load()
