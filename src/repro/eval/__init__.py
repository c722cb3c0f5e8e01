"""Evaluation harness regenerating every table and figure of the paper.

* :mod:`~repro.eval.methods` — :func:`fit_method`, the one runner that
  fits any method on a dataset bundle with the seeded client pair.
* :mod:`~repro.eval.harness` — feature matrices, per-model cross-validated
  AUC (the Table 4/5 metric).
* :mod:`~repro.eval.runner` — the method × dataset × model sweep with
  time-budget accounting and DNF/failure semantics.
* :mod:`~repro.eval.importance` — Table 6's IG@10 / RFE@10 / FI@10.
* :mod:`~repro.eval.ablation` — Table 7's per-operator-family ablation.
* :mod:`~repro.eval.efficiency` — Figure 1's row-level vs feature-level
  interaction-cost comparison and the Section 4.2 runtime table.
* :mod:`~repro.eval.reporting` — plain-text table renderers shaped like
  the paper's tables.
"""

from repro.eval.chaos import hostile_rows
from repro.eval.harness import evaluate_models, feature_matrix
from repro.eval.methods import MethodRun, fit_method
from repro.eval.runner import MethodOutcome, SweepConfig, SweepResult, run_sweep
from repro.eval.importance import importance_table
from repro.eval.ablation import operator_ablation
from repro.eval.efficiency import (
    concurrency_speedup_report,
    interaction_cost_comparison,
    physical_overlap_report,
    stage_overlap_report,
)
from repro.eval.reporting import (
    render_auc_table,
    render_schedule,
    render_sweep_summary,
    render_table,
)

__all__ = [
    "MethodOutcome",
    "MethodRun",
    "SweepConfig",
    "SweepResult",
    "concurrency_speedup_report",
    "evaluate_models",
    "feature_matrix",
    "fit_method",
    "hostile_rows",
    "importance_table",
    "interaction_cost_comparison",
    "operator_ablation",
    "physical_overlap_report",
    "render_auc_table",
    "render_schedule",
    "render_sweep_summary",
    "render_table",
    "run_sweep",
    "stage_overlap_report",
]
