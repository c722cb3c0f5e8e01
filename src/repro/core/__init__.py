"""SMARTFEAT core: operator-guided, feature-level FM feature construction.

The public entry point is :class:`SmartFeat`:

>>> from repro.core import SmartFeat
>>> from repro.fm import simulated_pair
>>> tool = SmartFeat(*simulated_pair(seed=0), downstream_model="random_forest")
>>> result = tool.fit_transform(df, target="Safe")       # doctest: +SKIP
>>> result.frame.columns                                  # doctest: +SKIP

Components (Section 3 of the paper):

* :class:`~repro.core.agenda.DataAgenda` — the evolving feature-description
  registry serialised into every prompt;
* :class:`~repro.core.operator_selector.OperatorSelector` — proposal and
  sampling prompting over the four operator families;
* :class:`~repro.core.function_generator.FunctionGenerator` — turns selector
  output into executable transformations (or row-level completion plans, or
  external data-source suggestions);
* :mod:`~repro.core.validation` — the feature-quality screens;
* :class:`~repro.core.pipeline.SmartFeat` — the search loop plus the
  original-feature drop heuristic.
"""

from repro.core.agenda import DataAgenda
from repro.core.checkpoint import (
    CheckpointMismatchError,
    CheckpointStore,
    restore_run,
    snapshot_run,
)
from repro.core.operator_selector import OperatorSelector
from repro.core.function_generator import FunctionGenerator
from repro.core.pipeline import (
    SmartFeat,
    SmartFeatResult,
    complete_row_plan,
)
from repro.core.parsing import parse_scalar
from repro.core.types import (
    FeatureCandidate,
    GeneratedFeature,
    OperatorFamily,
    RowCompletionPlan,
    SourceSuggestion,
)
from repro.core.validation import ValidationConfig, validate_output

__all__ = [
    "CheckpointMismatchError",
    "CheckpointStore",
    "DataAgenda",
    "FeatureCandidate",
    "FunctionGenerator",
    "GeneratedFeature",
    "OperatorFamily",
    "OperatorSelector",
    "RowCompletionPlan",
    "SmartFeat",
    "SmartFeatResult",
    "SourceSuggestion",
    "ValidationConfig",
    "complete_row_plan",
    "parse_scalar",
    "restore_run",
    "snapshot_run",
    "validate_output",
]
