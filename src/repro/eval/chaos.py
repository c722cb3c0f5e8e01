"""Deterministic chaos harness for the serve-path resilience layer.

Seeded per-feature failure schedules and hostile-row generators, in the
spirit of the transport layer's ``ScriptedTransport``: every fault is
decided by an explicit schedule or a seeded RNG, so a chaos run is a
reproducible *program* of failures, not noise.  The injector plugs into
the ``evaluator`` seam of :meth:`FeaturePlan.apply_with_report` —
``evaluator(spec, frame, default)`` — wrapping the normal evaluation
without touching production code paths.

Failure modes:

* ``raise`` — the evaluation raises :class:`TransformError`, the shape
  of a feature's evaluation blowing up.
* ``bad_output`` — returns a wrong-row-count Series, the shape of a
  transform that aggregated when it should have broadcast; the replay
  loop's install step rejects it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.sandbox import TransformError
from repro.dataframe.series import Series
from repro.serve.plan import coarse_kind

__all__ = ["CHAOS_MODES", "ChaosSchedule", "FaultInjector", "hostile_rows"]

CHAOS_MODES = ("raise", "bad_output")


class ChaosSchedule:
    """Which fault (if any) each feature suffers on each of its calls.

    ``schedules`` maps feature name → {call index (0-based) → mode}.
    Calls advance per feature as :meth:`fault_for` is consulted, so one
    schedule instance narrates one serving timeline.
    """

    def __init__(self, schedules: Mapping[str, Mapping[int, str]]) -> None:
        for feature, plan in schedules.items():
            for call, mode in plan.items():
                if mode not in CHAOS_MODES:
                    raise ValueError(
                        f"unknown chaos mode {mode!r} for {feature!r} call {call}"
                    )
        self._schedules = {
            feature: dict(plan) for feature, plan in schedules.items()
        }
        self._calls: dict[str, int] = {}

    @classmethod
    def seeded(
        cls,
        features: Iterable[str],
        *,
        modes: Sequence[str] = ("raise",),
        rate: float = 0.2,
        n_calls: int = 50,
        seed: int = 0,
    ) -> "ChaosSchedule":
        """A reproducible random schedule: each of *n_calls* calls per
        feature fails with probability *rate*, mode drawn from *modes*."""
        rng = np.random.default_rng(seed)
        schedules: dict[str, dict[int, str]] = {}
        for feature in features:
            plan: dict[int, str] = {}
            for call in range(n_calls):
                if rng.random() < rate:
                    plan[call] = modes[int(rng.integers(len(modes)))]
            schedules[feature] = plan
        return cls(schedules)

    def fault_for(self, feature: str) -> str | None:
        """The fault this feature suffers on its next call (advances it)."""
        call = self._calls.get(feature, 0)
        self._calls[feature] = call + 1
        return self._schedules.get(feature, {}).get(call)

    def reset(self) -> None:
        """Rewind every feature to call 0 (replay the same timeline)."""
        self._calls.clear()


class FaultInjector:
    """The ``evaluator`` seam implementation driven by a schedule."""

    def __init__(self, schedule: ChaosSchedule) -> None:
        self.schedule = schedule
        self.injected: list[tuple[str, str]] = []

    def __call__(self, spec, frame, default) -> Any:
        mode = self.schedule.fault_for(spec.name)
        if mode is None:
            return default()
        self.injected.append((spec.name, mode))
        if mode == "raise":
            raise TransformError(f"chaos: injected failure for {spec.name!r}")
        # mode == "bad_output"
        name = spec.output_columns[0] if spec.output_columns else spec.name
        return Series._from_array(np.zeros(max(len(frame) - 1, 1)), name)


def hostile_rows(
    input_schema: Sequence[tuple[str, str]],
    n_rows: int = 32,
    *,
    hostility: float = 0.3,
    seed: int = 0,
) -> list:
    """A seeded batch of row dicts laced with hostile values.

    Each cell is, with probability *hostility*, replaced by an attack
    drawn from the repertoire of the column's coarse kind (see
    :func:`~repro.serve.plan.coarse_kind`): inf/NaN/numeric strings/
    nested values for numerics, 0/1/None/strings for bools, oversized or
    surrogate (non-UTF-8-encodable) strings and nested values for
    objects.  Whole-row attacks (non-mapping rows, missing keys) are
    sprinkled at the same rate.  The same ``(schema, n_rows, hostility,
    seed)`` always yields the identical batch.
    """
    rng = np.random.default_rng(seed)
    numeric_attacks = [
        float("inf"),
        float("-inf"),
        float("nan"),
        "12.5",
        "not-a-number",
        None,
        {"nested": 1},
        [1, 2],
    ]
    bool_attacks = [0, 1, None, "yes", 2.5]
    object_attacks = [
        "x" * 20_000,
        "\ud800bad-surrogate",
        None,
        {"nested": True},
        ["a", "b"],
        42,
    ]
    rows: list = []
    for _ in range(n_rows):
        if rng.random() < hostility / 4:
            rows.append("not a mapping at all")
            continue
        row: dict[str, Any] = {}
        for name, pinned in input_schema:
            kind = coarse_kind(pinned)
            if rng.random() < hostility / 4:
                continue  # missing key
            if rng.random() < hostility:
                if kind == "numeric":
                    row[name] = numeric_attacks[int(rng.integers(len(numeric_attacks)))]
                elif kind == "bool":
                    row[name] = bool_attacks[int(rng.integers(len(bool_attacks)))]
                else:
                    row[name] = object_attacks[int(rng.integers(len(object_attacks)))]
            else:
                if kind == "numeric":
                    row[name] = float(rng.normal())
                elif kind == "bool":
                    row[name] = bool(rng.random() < 0.5)
                else:
                    row[name] = f"cat{int(rng.integers(4))}"
        rows.append(row)
    return rows
