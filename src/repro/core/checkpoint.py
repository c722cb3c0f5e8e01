"""Checkpointed search state: kill a run mid-graph, resume without re-spending.

The FM spend of a SMARTFEAT run is the expensive part; a crash (or an
operator Ctrl-C) that throws away five completed stages re-buys them on
the next attempt.  This module snapshots the run at **stage-node
granularity** — after every node the scheduler completes — and restores
it on resume:

- the working frame's columns (values + dtypes, in column order),
- the data agenda (the evolving prompt context),
- the accumulated :class:`~repro.core.pipeline.SmartFeatResult` payload
  (accepted features, drops, rejections, suggestions, row plans),
- the stage context's bookkeeping (column provenance tags, the drop
  heuristic's sets, planner-granted draw budgets),
- each FM client's ledger and per-call checkpoint state (the
  simulator's sampling counter, a scripted client's cursor), and
- the shared :class:`~repro.fm.base.Budget`'s spend counters.

Every record (features, suggestions, row plans, agenda entries, ledgers,
the budget) goes through the one codec in :mod:`repro.records`: its shape
is its dataclass's fields; a feature's record holds its frozen
expression (older checkpoints get it on resume).  Ledgers and the budget are recorded from
their exact state fields, not their rounded report ``snapshot()``s, so a
resumed run ends with exactly the uninterrupted run's totals.

A resumed run hands the scheduler the completed node names; those nodes
are marked ``"restored"`` and never dispatched, so the resumed run
issues **zero** FM calls for work the killed run already paid for — and,
because the clients' per-call state is restored too, the remaining
stages draw exactly the samples the uninterrupted run would have drawn:
the output frame is bit-identical.

Writes go through :func:`repro.records.write_json_atomic`, so a kill
*during* a checkpoint write leaves the previous checkpoint intact.  A
checkpoint records a fingerprint of the input (column names/dtypes, row
count, target, title); resuming against different data fails loudly.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.function_generator import ROW_LEVEL_SOURCE, freeze_completion, realize_source
from repro.core.sandbox import TransformError
from repro.dataframe import DataFrame, Series
from repro.records import assign_record, to_record, write_json_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import StageContext
    from repro.fm.base import Budget, FMClient

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointMismatchError",
    "CheckpointStore",
    "fingerprint",
    "restore_run",
    "snapshot_run",
]

CHECKPOINT_VERSION = 1


class CheckpointMismatchError(ValueError):
    """The checkpoint does not belong to this (data, target, title) run."""


class CheckpointStore:
    """One checkpoint file with atomic writes.

    ``save`` goes through :func:`~repro.records.write_json_atomic` —
    readers (and a kill mid-write) only ever see a complete previous
    state or a complete new one.  A lock serialises writers: under
    physical stage fan-out two nodes may finish (and checkpoint) at the
    same moment.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict | None:
        """The stored payload, or ``None`` when no checkpoint exists."""
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        return json.loads(raw)

    def save(self, payload: dict) -> None:
        text = json.dumps(payload, default=to_record)
        with self._lock:
            write_json_atomic(self.path, text)

    def clear(self) -> None:
        with self._lock:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def fingerprint(frame: DataFrame, target: str, title: str = "") -> dict:
    """Identity of the (data, task) a checkpoint belongs to."""
    return {
        "columns": [[name, frame[name].dtype.str] for name in frame.columns],
        "n_rows": len(frame),
        "target": target,
        "title": title,
    }


def _unique_clients(clients) -> list:
    seen: dict[int, object] = {}
    for client in clients:
        seen.setdefault(id(client), client)
    return list(seen.values())


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
def snapshot_run(
    ctx: "StageContext",
    clients,
    budget: "Budget | None",
    completed,
    run_fingerprint: dict,
) -> dict:
    """Serialise the run's full restorable state after a node completed.

    Caller holds ``ctx.lock`` (or is the only thread): the frame, agenda,
    and result must not be mid-merge while they are being read.
    """
    frame = ctx.working
    columns = [
        {
            "name": name,
            "dtype": frame[name].dtype.str,
            "values": frame[name].tolist(),
        }
        for name in frame.columns
    ]
    agenda = ctx.agenda
    result = ctx.result
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": run_fingerprint,
        "completed": list(completed),
        "context": {
            "columns": columns,
            "column_tags": dict(ctx.column_tags),
            "unary_transformed": sorted(ctx.unary_transformed),
            "used_by_other_ops": sorted(ctx.used_by_other_ops),
            "granted_draws": dict(ctx.granted_draws),
            # Entries as a list in agenda order (the record's dict keys
            # repeat each entry's name).
            "agenda": {
                **to_record(agenda),
                "entries": to_record(list(agenda.entries.values())),
            },
            "result": to_record(
                {
                    "new_features": list(result.new_features.values()),
                    "dropped": result.dropped,
                    "removed_by_fm": result.removed_by_fm,
                    "rejections": result.rejections,
                    "errors": result.errors,
                    "suggestions": result.suggestions,
                    "row_plans": result.row_plans,
                }
            ),
        },
        # Ledgers and budget by their exact state fields — never the
        # rounded report snapshot(), which would make resume inexact.
        "clients": [
            {
                "model": client.model,
                "state": client.checkpoint_state(),
                "ledger": to_record(client.ledger),
            }
            for client in _unique_clients(clients)
        ],
        "budget": None if budget is None else to_record(budget),
    }


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore_run(
    payload: dict,
    ctx: "StageContext",
    clients,
    budget: "Budget | None",
    run_fingerprint: dict,
    inputs: DataFrame | None = None,
) -> frozenset[str]:
    """Rehydrate *ctx*, *clients*, and *budget* from a checkpoint payload.

    Returns the completed node names for the scheduler's ``completed``
    parameter.  Raises :class:`CheckpointMismatchError` when the payload
    belongs to different data or an incompatible checkpoint version.

    A feature recorded without ``expr`` (an older checkpoint) is frozen
    once against the restored frame plus the run's *inputs*: columns are
    never rewritten after install, so this is the freeze fit made.
    """
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint version {payload.get('version')!r} != "
            f"expected {CHECKPOINT_VERSION}"
        )
    if payload.get("fingerprint") != run_fingerprint:
        raise CheckpointMismatchError(
            "checkpoint fingerprint does not match this run's data/target/title "
            "— refusing to resume against different input"
        )
    context = payload["context"]
    # Working frame: rebuild columns with their recorded dtypes in the
    # recorded order, then swap the rebuilt frame into the context AND
    # the result (they must stay one object — installs mutate it).
    frame = DataFrame()
    for column in context["columns"]:
        values = np.array(column["values"], dtype=np.dtype(column["dtype"]))
        frame[column["name"]] = Series._from_array(values, column["name"])
    ctx.working = frame
    ctx.result.frame = frame
    ctx.column_tags = dict(context["column_tags"])
    ctx.unary_transformed = set(context["unary_transformed"])
    ctx.used_by_other_ops = set(context["used_by_other_ops"])
    ctx.granted_draws = dict(context["granted_draws"])
    # Agenda and result: same objects, fields rebuilt from their records
    # (entries and features keyed by name again).
    spec = context["agenda"]
    entries = {e["name"]: e for e in spec["entries"]}
    assign_record(ctx.agenda, {**spec, "entries": entries})
    spec = context["result"]
    features = {f["name"]: f for f in spec["new_features"]}
    assign_record(ctx.result, {**spec, "new_features": features})
    legacy = [ctx.result.new_features[n] for n, f in features.items() if "expr" not in f]
    _freeze_legacy(legacy, frame, inputs)
    # Clients: ledgers + per-call state, matched positionally (the order
    # snapshot_run serialised is the order the caller passes here).
    unique = _unique_clients(clients)
    saved = payload["clients"]
    if len(saved) != len(unique):
        raise CheckpointMismatchError(
            f"checkpoint has {len(saved)} client records, run has {len(unique)}"
        )
    for client, record in zip(unique, saved):
        assign_record(client.ledger, record["ledger"])
        client.restore_checkpoint_state(record["state"])
    # The budget's limits stay the resumed run's own; only spend resumes.
    saved_budget = payload.get("budget")
    if budget is not None and saved_budget is not None:
        spent = {k: v for k, v in saved_budget.items() if k.startswith("spent_")}
        assign_record(budget, spent)
    return frozenset(payload["completed"])


def _freeze_legacy(features, restored: DataFrame, inputs: DataFrame | None) -> None:
    basis = restored.column_view(restored.columns)
    for name in inputs.columns if inputs is not None else ():
        basis[name] = inputs[name]
    for feature in features:
        try:
            if feature.source_code == ROW_LEVEL_SOURCE:
                freeze_completion(feature, basis, basis[feature.output_columns[0]])
            else:
                feature.expr = realize_source(feature.source_code, basis)[0]
        except (KeyError, TransformError) as exc:  # the plan omits it, with why
            feature.omit_reason = str(exc)
