"""Checkpointed search state: snapshot, restore, and kill-and-resume.

The acceptance bar: kill ``fit_transform`` mid-graph, resume from the
checkpoint, and get a bit-identical output frame with **zero** re-spent
FM calls — the resumed run's ledgers equal the uninterrupted run's,
because the completed stages are restored rather than re-bought and the
clients' per-call state resumes exactly where the paid-for work left it.
"""

import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import CheckpointMismatchError, CheckpointStore, SmartFeat
from repro.core.checkpoint import CHECKPOINT_VERSION, fingerprint
from repro.dataframe import DataFrame
from repro.fm import Budget, SimulatedFM
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


class KillSignal(BaseException):
    """Simulates a process kill: not an ``Exception``, so no error-path
    handling in the pipeline can swallow it."""


def make_tool(checkpoint=None, resume=False, budget=None) -> SmartFeat:
    return SmartFeat(
        fm=SimulatedFM(seed=0, model="gpt-4"),
        function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
        downstream_model="decision_tree",
        checkpoint=checkpoint,
        resume=resume,
        budget=budget,
    )


def fit(tool: SmartFeat):
    return tool.fit_transform(
        small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
    )


def install_kill_switch(tool: SmartFeat, kill_after: int) -> dict:
    """Raise :class:`KillSignal` once *kill_after* total FM calls ran."""
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
    return count


def total_calls(tool: SmartFeat) -> int:
    return tool.fm.ledger.n_calls + tool.function_fm.ledger.n_calls


LEDGER_FIELDS = (
    "n_calls",
    "prompt_tokens",
    "completion_tokens",
    "latency_s",
    "cost_usd",
    "wait_s",
    "cache_hits",
)
BUDGET_FIELDS = ("spent_calls", "spent_cost_usd", "spent_latency_s")


def ledgers(tool: SmartFeat) -> dict:
    """Every client's exact (unrounded) ledger totals."""
    return {
        role: {name: getattr(getattr(tool, role).ledger, name) for name in LEDGER_FIELDS}
        for role in ("fm", "function_fm")
    }


def budget_spent(budget: Budget) -> dict:
    return {name: getattr(budget, name) for name in BUDGET_FIELDS}


@pytest.fixture(scope="module")
def baseline():
    tool = make_tool()
    result = fit(tool)
    return result, total_calls(tool), ledgers(tool)


@pytest.fixture(scope="module")
def budgeted_baseline():
    """The uninterrupted run's spend on a shared (never tripped) budget."""
    tool = make_tool(budget=Budget(max_cost_usd=100.0))
    fit(tool)
    return budget_spent(tool.budget)


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
def test_store_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path / "run.json")
    assert not store.exists()
    assert store.load() is None
    store.save({"version": 1, "completed": ["unary"]})
    assert store.exists()
    assert store.load() == {"version": 1, "completed": ["unary"]}
    store.clear()
    assert store.load() is None
    store.clear()  # idempotent


def test_store_writes_atomically(tmp_path):
    store = CheckpointStore(tmp_path / "run.json")
    store.save({"generation": 1})
    store.save({"generation": 2})
    # No temp residue; the file is always one complete JSON document.
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    assert store.load() == {"generation": 2}


def test_store_creates_parent_directories(tmp_path):
    store = CheckpointStore(tmp_path / "deep" / "nested" / "run.json")
    store.save({"ok": True})
    assert store.load() == {"ok": True}


def test_store_serialises_numpy_scalars(tmp_path):
    store = CheckpointStore(tmp_path / "run.json")
    store.save({"i": np.int64(3), "f": np.float64(1.5), "b": np.bool_(True)})
    assert store.load() == {"i": 3, "f": 1.5, "b": True}


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def test_fingerprint_tracks_schema_rows_target_title():
    frame = small_frame()
    base = fingerprint(frame, "Target", "t")
    assert base == fingerprint(small_frame(), "Target", "t")
    assert base != fingerprint(frame, "Age", "t")
    assert base != fingerprint(frame, "Target", "other")
    shorter = DataFrame({c: frame[c].tolist()[:10] for c in frame.columns})
    assert base != fingerprint(shorter, "Target", "t")


def test_resume_against_different_data_fails_loudly(tmp_path):
    path = tmp_path / "run.json"
    fit(make_tool(checkpoint=str(path)))
    other = small_frame()
    other["Extra"] = [1.0] * len(other)
    tool = make_tool(checkpoint=str(path), resume=True)
    with pytest.raises(CheckpointMismatchError, match="fingerprint"):
        tool.fit_transform(other, target="Target", descriptions=dict(DESCRIPTIONS))


def test_unknown_checkpoint_version_rejected(tmp_path):
    path = tmp_path / "run.json"
    fit(make_tool(checkpoint=str(path)))
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    tool = make_tool(checkpoint=str(path), resume=True)
    with pytest.raises(CheckpointMismatchError, match="version"):
        fit(tool)


# ----------------------------------------------------------------------
# Construction contract
# ----------------------------------------------------------------------
def test_resume_requires_a_checkpoint():
    with pytest.raises(ValueError, match="resume"):
        make_tool(resume=True)


def test_checkpoint_accepts_path_or_store(tmp_path):
    by_path = make_tool(checkpoint=str(tmp_path / "a.json"))
    assert isinstance(by_path.checkpoint, CheckpointStore)
    store = CheckpointStore(tmp_path / "b.json")
    assert make_tool(checkpoint=store).checkpoint is store


# ----------------------------------------------------------------------
# Checkpointing must not perturb the run it rides along with.
# ----------------------------------------------------------------------
def test_checkpointed_run_is_identical_to_plain_run(tmp_path, baseline):
    base_result, base_calls, _ = baseline
    tool = make_tool(checkpoint=str(tmp_path / "run.json"))
    result = fit(tool)
    assert sorted(result.new_features) == sorted(base_result.new_features)
    identical, detail = frames_identical(result.frame, base_result.frame)
    assert identical, detail
    assert total_calls(tool) == base_calls
    store = tool.checkpoint
    payload = store.load()
    assert payload is not None
    # The final checkpoint records every stage node as completed.
    assert "unary" in payload["completed"]


def test_resume_with_no_checkpoint_file_runs_fresh(tmp_path, baseline):
    base_result, base_calls, _ = baseline
    tool = make_tool(checkpoint=str(tmp_path / "absent.json"), resume=True)
    result = fit(tool)
    assert sorted(result.new_features) == sorted(base_result.new_features)
    assert total_calls(tool) == base_calls


# ----------------------------------------------------------------------
# The acceptance test: kill mid-graph, resume, bit-identical, $0 re-spend.
# ----------------------------------------------------------------------
KILL_FRACTIONS = (0.3, 0.6, 0.85)


@pytest.mark.parametrize(
    "fraction, shared_budget",
    [pytest.param(f, False, id=str(f)) for f in KILL_FRACTIONS]
    + [pytest.param(f, True, id=f"{f}-budget") for f in KILL_FRACTIONS],
)
def test_kill_and_resume_is_bit_identical_with_zero_respend(
    tmp_path, baseline, budgeted_baseline, fraction, shared_budget
):
    base_result, base_calls, base_ledgers = baseline
    kill_after = max(1, int(base_calls * fraction))
    path = tmp_path / f"kill{kill_after}.json"

    def budget():
        return Budget(max_cost_usd=100.0) if shared_budget else None

    killed = make_tool(checkpoint=str(path), budget=budget())
    install_kill_switch(killed, kill_after)
    with pytest.raises(KillSignal):
        fit(killed)

    resumed = make_tool(checkpoint=str(path), resume=True, budget=budget())
    result = fit(resumed)

    assert sorted(result.new_features) == sorted(base_result.new_features)
    identical, detail = frames_identical(result.frame, base_result.frame)
    assert identical, detail
    assert result.plan.to_json() == base_result.plan.to_json()
    # Ledger-verified zero re-spend: restored stages were not re-bought,
    # and the checkpoint stores exact ledger state (not the rounded
    # report snapshot), so every resumed total equals the uninterrupted
    # run's under ==, float fields included.
    assert total_calls(resumed) == base_calls
    assert ledgers(resumed) == base_ledgers
    if shared_budget:
        assert budget_spent(resumed.budget) == budgeted_baseline


#: A version-1 checkpoint of the ``small_frame()`` run killed after 16 of
#: its 28 FM calls (``unary`` and ``binary`` completed), written by the
#: format that stored each ledger as its rounded report snapshot.
OLD_FORMAT_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1_kill60.json"


def test_resumes_checkpoint_written_with_rounded_ledgers(tmp_path, baseline):
    base_result, base_calls, base_ledgers = baseline
    path = tmp_path / "run.json"
    shutil.copy(OLD_FORMAT_CHECKPOINT, path)
    payload = json.loads(path.read_text())
    assert payload["version"] == CHECKPOINT_VERSION == 1
    assert payload["completed"], "fixture has no completed stage: weak test"

    resumed = make_tool(checkpoint=str(path), resume=True)
    result = fit(resumed)

    identical, detail = frames_identical(result.frame, base_result.frame)
    assert identical, detail
    # Its features carry no frozen expression: the resume freezes them.
    assert all("expr" not in f for f in payload["context"]["result"]["new_features"])
    assert result.plan.to_json() == base_result.plan.to_json()
    assert total_calls(resumed) == base_calls
    schedule = result.fm_usage["execution"]["schedule"]
    restored = {n["name"] for n in schedule["nodes"] if n["status"] == "restored"}
    assert restored == set(payload["completed"])
    resumed_ledgers = ledgers(resumed)
    for role, expected in base_ledgers.items():
        got = resumed_ledgers[role]
        for name in ("n_calls", "prompt_tokens", "completion_tokens", "cache_hits"):
            assert got[name] == expected[name], (role, name)
        # This fixture predates exact ledger records: it stored cost
        # rounded to 6 places and latency to 3, so only here do the
        # float totals compare within that rounding instead of under ==.
        assert got["cost_usd"] == pytest.approx(expected["cost_usd"], abs=1e-6)
        assert got["latency_s"] == pytest.approx(expected["latency_s"], abs=1e-3)


def test_restored_stages_issue_no_fm_calls(tmp_path, baseline):
    """Kill late enough that whole stages completed, then count only the
    resumed run's own calls: completed stages must contribute zero."""
    base_result, base_calls, _ = baseline
    path = tmp_path / "late_kill.json"
    killed = make_tool(checkpoint=str(path))
    install_kill_switch(killed, base_calls - 4)
    with pytest.raises(KillSignal):
        fit(killed)
    payload = CheckpointStore(path).load()
    assert payload is not None and payload["completed"], (
        "kill point too early: no stage completed, weak test"
    )
    checkpointed_calls = sum(
        record["ledger"]["n_calls"] for record in payload["clients"]
    )
    resumed = make_tool(checkpoint=str(path), resume=True)
    result = fit(resumed)
    # Fresh spend on the resumed run = total - restored: it must equal
    # what the uninterrupted run spent on the remaining stages.
    assert total_calls(resumed) - checkpointed_calls == base_calls - checkpointed_calls
    assert total_calls(resumed) == base_calls
    schedule = result.fm_usage["execution"]["schedule"]
    restored = [
        node for node in schedule["nodes"] if node["status"] == "restored"
    ]
    assert {node["name"] for node in restored} == set(payload["completed"])
    assert all(node["fm_calls"] == 0 for node in restored)
    # Restored nodes never re-enter the dispatch order.
    assert not set(schedule["dispatch_order"]) & set(payload["completed"])


def test_resume_restores_budget_spend(tmp_path):
    budget = Budget(max_cost_usd=100.0)
    path = tmp_path / "budgeted.json"
    killed = make_tool(checkpoint=str(path), budget=budget)
    install_kill_switch(killed, 24)
    with pytest.raises(KillSignal):
        fit(killed)
    payload = CheckpointStore(path).load()
    assert payload["budget"] is not None
    saved_cost = payload["budget"]["spent_cost_usd"]
    assert saved_cost > 0
    fresh_budget = Budget(max_cost_usd=100.0)
    resumed = make_tool(checkpoint=str(path), resume=True, budget=fresh_budget)
    fit(resumed)
    # The resumed budget starts from the checkpointed spend, not zero.
    assert fresh_budget.snapshot()["spent_cost_usd"] >= saved_cost


def test_client_count_mismatch_rejected(tmp_path):
    from repro.core import DataAgenda
    from repro.core.checkpoint import restore_run
    from repro.core.pipeline import ORIGINALS_TAG, SmartFeatResult, StageContext

    path = tmp_path / "run.json"
    fit(make_tool(checkpoint=str(path)))
    payload = CheckpointStore(path).load()
    payload["clients"] = payload["clients"][:1]
    tool = make_tool(checkpoint=str(path), resume=True)
    frame = small_frame()
    working = frame.copy()
    ctx = StageContext(
        working=working,
        agenda=DataAgenda.from_dataframe(
            frame, target="Target", descriptions=dict(DESCRIPTIONS)
        ),
        result=SmartFeatResult(frame=working),
        original_features=[c for c in frame.columns if c != "Target"],
        target="Target",
        column_tags={c: ORIGINALS_TAG for c in frame.columns},
    )
    with pytest.raises(CheckpointMismatchError, match="client"):
        restore_run(
            payload,
            ctx,
            (tool.fm, tool.function_fm),
            None,
            fingerprint(frame, "Target", ""),
        )
