"""Feature-quality screens (Section 3.3, "Evaluating generated features").

After a transformation produces values, SMARTFEAT removes features that
are highly null, single-valued, or dummy expansions of high-cardinality
originals.  :func:`validate_output` applies those screens to a transform's
output and returns the surviving columns with per-column verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.agenda import MAX_LISTED_VALUES
from repro.dataframe import DataFrame, Series
from repro.dataframe.kernels import ColumnProfile, column_profile

__all__ = ["ValidationConfig", "ValidationReport", "validate_output"]


@dataclass(frozen=True)
class ValidationConfig:
    """Thresholds for the three screens.

    ``max_null_fraction``: reject columns with more missing than this.
    ``max_dummy_columns``: reject dummy expansions wider than this (the
    high-cardinality screen).
    ``reject_constant``: reject single-valued columns.
    """

    max_null_fraction: float = 0.3
    max_dummy_columns: int = 15
    reject_constant: bool = True


@dataclass
class ValidationReport:
    """Outcome of validating one transformation output."""

    accepted: dict[str, Series]
    rejected: dict[str, str]  # column -> reason
    #: Each accepted column's profile, for the installer's classification.
    profiles: dict[str, ColumnProfile] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.accepted)


def _check_column(
    series: Series, n_rows: int, config: ValidationConfig
) -> tuple[str | None, ColumnProfile | None]:
    """Return ``(rejection reason or None, the column's profile)``."""
    if len(series) != n_rows:
        return f"length {len(series)} does not match dataframe length {n_rows}", None
    if n_rows == 0:
        return "empty dataframe", None
    try:
        profile = column_profile(series.values, MAX_LISTED_VALUES, types=series.cell_types())
    except TypeError:
        if series.encoding() is None:  # a list or dict cell, say
            return "unhashable values", None
        raise
    null_fraction = 1.0 - profile.non_null / n_rows
    if null_fraction > config.max_null_fraction:
        return f"highly null ({null_fraction:.0%} missing)", profile
    if config.reject_constant and profile.single_valued:
        return "single-valued", profile
    return None, profile


def validate_output(
    result: Series | DataFrame,
    n_rows: int,
    config: ValidationConfig | None = None,
    name_hint: str = "feature",
) -> ValidationReport:
    """Screen a transformation output (Series or multi-column DataFrame).

    DataFrame outputs wider than ``max_dummy_columns`` are rejected whole —
    the paper's screen against dummies of high-cardinality originals.
    Otherwise each column is screened independently, so a partially useful
    expansion keeps its good columns.
    """
    config = config or ValidationConfig()
    report = ValidationReport({}, {})
    if isinstance(result, Series):
        columns = [(result.name or name_hint, result)]
    elif len(result.columns) > config.max_dummy_columns:
        for column in result.columns:
            report.rejected[column] = (
                f"expansion of {len(result.columns)} columns exceeds the "
                f"high-cardinality limit ({config.max_dummy_columns})"
            )
        return report
    else:
        columns = [(column, result[column]) for column in result.columns]
    for column, series in columns:
        reason, profile = _check_column(series, n_rows, config)
        if reason is None:
            report.accepted[column] = series
            report.profiles[column] = profile
        else:
            report.rejected[column] = reason
    return report
