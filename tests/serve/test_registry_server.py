"""PlanRegistry versioning/pinning and FeatureServer concurrency."""

import json
import threading
from pathlib import Path

import pytest

from repro.eval.serving import build_demo_result
from repro.serve import (
    FeatureServer,
    PlanError,
    PlanNotFoundError,
    PlanRegistry,
    PlanSchemaError,
    compile_plan,
    frames_identical,
)


@pytest.fixture
def plan_and_frame():
    result, frame = build_demo_result(80, seed=0)
    return compile_plan(result, frame, "Target"), result, frame


class TestRegistry:
    def test_save_assigns_increasing_versions(self, tmp_path, plan_and_frame):
        plan, _, _ = plan_and_frame
        registry = PlanRegistry(str(tmp_path))
        assert registry.save(plan, "demo") == 1
        assert registry.save(plan, "demo") == 2
        assert registry.versions("demo") == [1, 2]
        assert registry.names() == ["demo"]

    def test_load_defaults_to_latest(self, tmp_path, plan_and_frame):
        plan, _, _ = plan_and_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        registry.save(plan, "demo")
        loaded = registry.load("demo")
        assert loaded.fingerprint == plan.fingerprint

    def test_pin_overrides_latest(self, tmp_path, plan_and_frame):
        plan, _, _ = plan_and_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        registry.save(plan, "demo")
        registry.pin("demo", 1)
        assert registry.pinned("demo") == 1
        # a fresh registry instance re-reads pins from disk
        again = PlanRegistry(str(tmp_path))
        assert again.pinned("demo") == 1
        again.load("demo")  # resolves the pin without error
        registry.unpin("demo")
        assert registry.pinned("demo") is None

    def test_pin_to_missing_version_refused(self, tmp_path, plan_and_frame):
        plan, _, _ = plan_and_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        with pytest.raises(PlanNotFoundError):
            registry.pin("demo", 7)

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(PlanNotFoundError):
            PlanRegistry(str(tmp_path)).load("nope")

    def test_invalid_name_rejected(self, tmp_path, plan_and_frame):
        plan, _, _ = plan_and_frame
        with pytest.raises(PlanError):
            PlanRegistry(str(tmp_path)).save(plan, "../escape")


def _two_releases(tmp_path, plan_and_frame) -> PlanRegistry:
    """A registry holding v1 and v2 of "demo", told apart by metadata."""
    _, result, frame = plan_and_frame
    registry = PlanRegistry(str(tmp_path))
    for release in (1, 2):
        plan = compile_plan(result, frame, "Target", metadata={"release": release})
        assert registry.save(plan, "demo") == release
    return registry


def _partial_encoder(monkeypatch):
    """JSON encoding emits its first chunk, then dies."""
    real = json.JSONEncoder.iterencode

    def dying(self, o, _one_shot=False):
        yield next(iter(real(self, o, _one_shot)))
        raise OSError("killed mid-write")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", dying)


def _partial_file_write(monkeypatch):
    """Half the text reaches the file, then the write dies."""
    real = Path.write_text

    def dying(self, text, *args, **kwargs):
        real(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("killed mid-write")

    monkeypatch.setattr(Path, "write_text", dying)


class TestPinsDurability:
    def test_corrupt_pins_file_fails_loudly(self, tmp_path, plan_and_frame):
        registry = _two_releases(tmp_path, plan_and_frame)
        registry.pin("demo", 1)
        pins = tmp_path / "pins.json"
        pins.write_text(pins.read_text()[:5])  # torn: not valid JSON
        fresh = PlanRegistry(str(tmp_path))
        # Falling back to the latest (v2) would serve an unpinned plan.
        with pytest.raises(PlanError, match="pins.json"):
            fresh.load("demo")
        with pytest.raises(PlanError, match="pins.json"):
            fresh.pinned("demo")

    @pytest.mark.parametrize("inject", [_partial_encoder, _partial_file_write])
    def test_interrupted_pin_keeps_previous_pin(
        self, tmp_path, plan_and_frame, monkeypatch, inject
    ):
        registry = _two_releases(tmp_path, plan_and_frame)
        registry.pin("demo", 1)
        inject(monkeypatch)
        with pytest.raises(OSError, match="killed mid-write"):
            registry.pin("demo", 2)
        monkeypatch.undo()
        fresh = PlanRegistry(str(tmp_path))
        assert fresh.pinned("demo") == 1
        assert fresh.load("demo").metadata["release"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo", "pins.json"]


class TestServer:
    def test_needs_plan_or_registry(self):
        with pytest.raises(PlanError):
            FeatureServer()

    def test_unknown_failure_policy_is_rejected_at_construction(self, plan_and_frame):
        plan, _, _ = plan_and_frame
        with pytest.raises(PlanError, match="failure_policy"):
            FeatureServer(plan=plan, failure_policy="yolo")

    def test_transform_dataframe(self, plan_and_frame):
        plan, result, frame = plan_and_frame
        server = FeatureServer(plan=plan)
        out = server.transform(frame)
        identical, detail = frames_identical(out, result.frame)
        assert identical, detail

    def test_transform_row_dicts(self, plan_and_frame):
        plan, result, frame = plan_and_frame
        server = FeatureServer(plan=plan)
        rows = [
            {c: frame[c].values[i] for c in frame.columns} for i in range(len(frame))
        ]
        out = server.transform(rows)
        assert out.columns == result.frame.columns

    def test_registry_backed_resolution(self, tmp_path, plan_and_frame):
        plan, result, frame = plan_and_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        server = FeatureServer(registry=registry, name="demo")
        out = server.transform(frame)
        identical, detail = frames_identical(out, result.frame)
        assert identical, detail

    def test_schema_mismatch_is_loud(self, plan_and_frame):
        plan, _, frame = plan_and_frame
        server = FeatureServer(plan=plan)
        wrong = frame.column_view([c for c in frame.columns if c != "City"])
        with pytest.raises(PlanSchemaError, match="City"):
            server.transform(wrong)

    def test_concurrent_callers_agree(self, plan_and_frame):
        plan, result, frame = plan_and_frame
        server = FeatureServer(plan=plan)
        failures = []

        def caller():
            try:
                for _ in range(5):
                    out = server.transform(frame)
                    identical, detail = frames_identical(out, result.frame)
                    assert identical, detail
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[0]

    def test_input_frame_never_mutated(self, plan_and_frame):
        plan, result, frame = plan_and_frame
        columns_before = list(frame.columns)
        FeatureServer(plan=plan).transform(frame)
        assert frame.columns == columns_before
