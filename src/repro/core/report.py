"""Human- and machine-readable summaries of a SMARTFEAT run.

Generated features are code: downstream users need to audit what was
built, from which columns, with which transformation, and at what FM
cost.  :func:`result_summary` renders a terminal-friendly report;
:func:`provenance_json` exports the full lineage for storage alongside
the enriched dataset.
"""

from __future__ import annotations

import json

from repro.core.pipeline import SmartFeatResult
from repro.records import to_record

__all__ = ["provenance_json", "result_summary"]


def result_summary(result: SmartFeatResult) -> str:
    """A terminal-friendly report of one SMARTFEAT run."""
    lines: list[str] = []
    lines.append(f"SMARTFEAT run: {len(result.new_features)} features accepted")
    by_family: dict[str, list[str]] = {}
    for feature in result.new_features.values():
        by_family.setdefault(feature.family.value, []).append(feature.name)
    for family in ("unary", "binary", "high_order", "extractor"):
        names = by_family.get(family, [])
        if names:
            lines.append(f"  {family:10s} ({len(names)}): {', '.join(names)}")
    if result.dropped:
        lines.append(f"Dropped originals: {', '.join(result.dropped)}")
    if result.removed_by_fm:
        lines.append(f"Removed by FM review: {', '.join(result.removed_by_fm)}")
    if result.rejections:
        lines.append(f"Rejected candidates: {len(result.rejections)}")
        for name, reason in list(result.rejections.items())[:5]:
            lines.append(f"  - {name}: {reason}")
        if len(result.rejections) > 5:
            lines.append(f"  ... and {len(result.rejections) - 5} more")
    for plan in result.row_plans:
        lines.append(
            f"Deferred row-level plan {plan.name!r}: {plan.estimated_calls} calls, "
            f"~${plan.estimated_cost_usd:.2f}, ~{plan.estimated_latency_s:.0f}s"
        )
    for suggestion in result.suggestions:
        lines.append(f"Suggested sources for {suggestion.name!r}:")
        for source in suggestion.sources:
            lines.append(f"  - {source}")
    for client, usage in result.fm_usage.items():
        if client == "execution":
            lines.append(
                f"FM execution: concurrency {usage['concurrency']}, "
                f"wave size {usage['wave_size']}, "
                f"{usage['summed_latency_s']:.0f}s summed latency, "
                f"{usage['critical_path_s']:.0f}s critical path"
            )
            continue
        lines.append(
            f"FM usage [{client}]: {usage['n_calls']} calls, "
            f"{usage['prompt_tokens'] + usage['completion_tokens']} tokens, "
            f"${usage['cost_usd']:.4f}, {usage['latency_s']:.0f}s modelled latency"
        )
    return "\n".join(lines)


def provenance_json(result: SmartFeatResult, indent: int = 2) -> str:
    """Full feature lineage as JSON.

    Features, row plans and source suggestions are their full records
    (:func:`~repro.records.to_record`) — the same shape a checkpoint
    stores them in.
    """
    payload = {
        "features": to_record(list(result.new_features.values())),
        "dropped_originals": result.dropped,
        "rejections": result.rejections,
        "row_plans": to_record(result.row_plans),
        "source_suggestions": to_record(result.suggestions),
        "fm_usage": result.fm_usage,
    }
    return json.dumps(payload, indent=indent)
