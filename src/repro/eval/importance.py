"""Table 6: percentage of new features among the top-10 under three
feature-selection metrics (information gain, RFE, tree importance)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.datasets.schema import DatasetBundle
from repro.dataframe import DataFrame
from repro.eval.harness import feature_matrix
from repro.eval.methods import fit_method
from repro.ml.feature_selection import (
    mutual_info_classif,
    rfe_ranking,
    top_k_features,
    tree_feature_importance,
)

__all__ = ["ImportanceRow", "importance_table", "top_k_new_fraction"]


@dataclass
class ImportanceRow:
    """One method's Table 6 row."""

    method: str
    n_generated: int
    n_selected: int
    ig_at_k: float
    rfe_at_k: float
    fi_at_k: float
    new_columns: list[str] = field(default_factory=list)


def top_k_new_fraction(
    frame: DataFrame,
    target: str,
    new_columns: list[str],
    k: int = 10,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Fraction of new features in the top-*k* under IG / RFE / FI."""
    X, y, names = feature_matrix(frame, target, strict=False)
    new = set(new_columns)

    def fraction(scores: np.ndarray) -> float:
        top = top_k_features(scores, names, k=min(k, len(names)))
        return sum(1 for name in top if name in new) / len(top)

    ig = fraction(mutual_info_classif(X, y))
    ranking = rfe_ranking(X, y)
    rfe = fraction(-ranking.astype(np.float64))  # rank 1 = best
    fi = fraction(tree_feature_importance(X, y, seed=seed))
    return ig, rfe, fi


def importance_table(
    bundle: DatasetBundle,
    methods: tuple[str, ...] = ("smartfeat", "caafe", "featuretools", "autofeat"),
    k: int = 10,
    seed: int = 0,
    downstream_model: str = "random_forest",
) -> list[ImportanceRow]:
    """Run each method on *bundle* and compute its Table 6 row.

    SMARTFEAT's ``n_generated`` counts its rejected candidates too.  CAAFE
    is fitted as this table always fitted it, unlike the sweep: validated
    against its default ``"lr"``, with no target description.
    """
    rows: list[ImportanceRow] = []
    for method in methods:
        if method == "caafe":
            run = fit_method(
                method, replace(bundle, target_description=""), seed=seed, model="lr"
            )
        else:
            run = fit_method(
                method, bundle, seed=seed, model=downstream_model, count_rejections=True
            )
        ig, rfe, fi = top_k_new_fraction(
            run.frame, bundle.target, run.new_columns, k=k, seed=seed
        )
        rows.append(
            ImportanceRow(
                method=method,
                n_generated=run.n_generated,
                n_selected=run.n_selected,
                ig_at_k=ig,
                rfe_at_k=rfe,
                fi_at_k=fi,
                new_columns=list(run.new_columns),
            )
        )
    return rows
