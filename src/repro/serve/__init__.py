"""Serving layer: compiled FeaturePlans replayed without FM, sandbox, or scheduler.

``fit_transform`` is the search; this package is what production traffic
touches.  A :class:`FeaturePlan` freezes a fitted run's accepted features
into a versioned JSON artifact of pure-numpy expressions
(:mod:`repro.dataframe.expr`); :class:`PlanRegistry` stores and version-pins
plans on disk; :class:`FeatureServer` is the batched, thread-safe
``transform(rows)`` entry point.
"""

from repro.serve.compiler import compile_plan, frames_identical, series_identical
from repro.serve.plan import (
    PLAN_SCHEMA_VERSION,
    FeaturePlan,
    FeatureSpec,
    PlanError,
    PlanNotFoundError,
    PlanSchemaError,
    PlanVersionError,
    coarse_kind,
    column_kind,
    csv_kind,
    schema_fingerprint,
)
from repro.serve.registry import PlanRegistry
from repro.serve.resilience import (
    FAILURE_POLICIES,
    ApplyReport,
    BatchValidationError,
    FeatureReport,
    QuarantineReport,
    ServerStats,
    validate_rows,
)
from repro.serve.server import FeatureServer, ServeReport

__all__ = [
    "FAILURE_POLICIES",
    "PLAN_SCHEMA_VERSION",
    "ApplyReport",
    "BatchValidationError",
    "FeaturePlan",
    "FeatureReport",
    "FeatureServer",
    "FeatureSpec",
    "PlanError",
    "PlanNotFoundError",
    "PlanRegistry",
    "PlanSchemaError",
    "PlanVersionError",
    "QuarantineReport",
    "ServeReport",
    "ServerStats",
    "coarse_kind",
    "column_kind",
    "compile_plan",
    "csv_kind",
    "frames_identical",
    "schema_fingerprint",
    "series_identical",
    "validate_rows",
]
