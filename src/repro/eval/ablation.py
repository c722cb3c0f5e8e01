"""Table 7: per-operator-family ablation of SMARTFEAT.

Rows: Initial, +Unary, +Binary, +High-order, +Extractor, all — AUC per
downstream model plus the average, on one dataset (the paper uses
Tennis).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import OperatorFamily
from repro.datasets.schema import DatasetBundle
from repro.eval.harness import evaluate_models
from repro.eval.methods import fit_method
from repro.ml.registry import MODEL_NAMES

__all__ = ["AblationRow", "operator_ablation"]

_FAMILY_ROWS: tuple[tuple[str, tuple[OperatorFamily, ...]], ...] = (
    ("+Unary", (OperatorFamily.UNARY,)),
    ("+Binary", (OperatorFamily.BINARY,)),
    ("+High-order", (OperatorFamily.HIGH_ORDER,)),
    ("+Extractor", (OperatorFamily.EXTRACTOR,)),
    (
        "all",
        (
            OperatorFamily.UNARY,
            OperatorFamily.BINARY,
            OperatorFamily.HIGH_ORDER,
            OperatorFamily.EXTRACTOR,
        ),
    ),
)


@dataclass
class AblationRow:
    """One Table 7 row: a feature-set variant and its per-model AUCs."""

    label: str
    auc_by_model: dict[str, float]
    n_new_features: int

    @property
    def average(self) -> float:
        values = list(self.auc_by_model.values())
        return sum(values) / len(values)


def operator_ablation(
    bundle: DatasetBundle,
    models: tuple[str, ...] = MODEL_NAMES,
    n_splits: int = 5,
    seed: int = 0,
    downstream_model: str = "random_forest",
) -> list[AblationRow]:
    """Compute the Table 7 ablation on *bundle*."""
    rows = [
        AblationRow(
            label="Initial",
            auc_by_model=evaluate_models(
                bundle.frame, bundle.target, models=models, n_splits=n_splits, seed=seed
            ),
            n_new_features=0,
        )
    ]
    for label, families in _FAMILY_ROWS:
        run = fit_method(
            "smartfeat",
            bundle,
            seed=seed,
            model=downstream_model,
            operator_families=families,
            drop_heuristic=False,  # keep originals so rows are comparable
        )
        rows.append(
            AblationRow(
                label=label,
                auc_by_model=evaluate_models(
                    run.frame, bundle.target, models=models, n_splits=n_splits, seed=seed
                ),
                n_new_features=run.n_selected,
            )
        )
    return rows
