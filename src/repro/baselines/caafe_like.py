"""CAAFE-style FM feature engineering with validation-gated acceptance.

CAAFE (Hollmann et al.) prompts an FM for free-form feature code over a
dataframe — no operator guidance — and keeps a generated feature only if
it improves performance on a validation split.  Differences from
SMARTFEAT that the paper calls out, all reproduced here:

* unguided generation drifts toward combinations of numeric attributes;
* sample feature *values* are included in the prompt;
* the validation step trains the downstream model once per iteration —
  effective but expensive, the source of the paper's DNN timeouts on
  large datasets;
* generated code carries no NaN/zero guards.  Non-finite values are
  masked during CAAFE's own validation (so a harmful ratio can still be
  accepted) but remain in the returned frame — the mechanism behind the
  paper's note that CAAFE "failed on the Diabetes dataset … divide-by-
  zero transformations … caused the ML models to fail".
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AFEResult, Deadline
from repro.core.agenda import DataAgenda
from repro.core.parsing import extract_code
from repro.core.prompts import caafe_prompt
from repro.core.sandbox import TransformError, run_script
from repro.dataframe import DataFrame
from repro.fm.base import FMClient
from repro.fm.errors import FMBudgetExceededError, FMError, FMParseError
from repro.ml.base import BaseEstimator, clone
from repro.ml.metrics import roc_auc_score
from repro.ml.model_selection import train_test_split
from repro.ml.registry import make_model

__all__ = ["CAAFELike"]


class CAAFELike:
    """Ten-iteration FM code-generation loop with validation gating.

    Parameters
    ----------
    fm:
        Foundation-model client (the paper runs CAAFE with GPT-4).
    validation_model:
        Downstream model name used for the accept/reject check — CAAFE
        validates against the model it is engineering for.
    iterations:
        Feature-generation rounds (paper setting: 10).
    """

    def __init__(
        self,
        fm: FMClient,
        validation_model: str | BaseEstimator = "lr",
        iterations: int = 10,
        sample_rows: int = 5,
        seed: int = 0,
    ) -> None:
        self.fm = fm
        self.validation_model = validation_model
        self.iterations = iterations
        self.sample_rows = sample_rows
        self.seed = seed

    # ------------------------------------------------------------------
    def fit_transform(
        self,
        frame: DataFrame,
        target: str,
        descriptions: dict[str, str] | None = None,
        title: str = "",
        target_description: str = "",
        deadline: Deadline | None = None,
    ) -> AFEResult:
        deadline = deadline or Deadline()
        working = frame.copy()
        agenda = DataAgenda.from_dataframe(
            working,
            target=target,
            descriptions=descriptions,
            title=title,
            target_description=target_description,
        )
        accepted: list[str] = []
        n_generated = 0
        baseline_auc = self._validation_auc(working, target, deadline)
        for iteration in range(self.iterations):
            deadline.check("CAAFE iteration")
            sample = working.drop(columns=[target]).head(self.sample_rows).to_string()
            prompt = caafe_prompt(agenda, sample, iteration)
            try:
                response = self.fm.complete(prompt, temperature=0.7)
                code = extract_code(response.text)
                candidate_frame = run_script(code, working)
            except FMBudgetExceededError:
                raise  # budget exhaustion ends the whole run, not one round
            except (FMError, FMParseError, TransformError):
                continue
            new_columns = [c for c in candidate_frame.columns if c not in working.columns]
            if not new_columns:
                continue
            n_generated += len(new_columns)
            try:
                candidate_auc = self._validation_auc(candidate_frame, target, deadline)
            except ValueError:
                continue  # validation model could not be fit at all
            if candidate_auc > baseline_auc + 1e-6:
                working = candidate_frame
                baseline_auc = candidate_auc
                accepted.extend(new_columns)
                for column in new_columns:
                    kind = "numeric" if candidate_frame[column].dtype.kind in "ifb" else "categorical"
                    agenda.add(column, kind, f"generated at iteration {iteration}")
        return AFEResult(
            frame=working,
            new_columns=accepted,
            n_generated=n_generated,
            notes={"method": "caafe", "validation_auc": f"{baseline_auc:.4f}"},
        )

    # ------------------------------------------------------------------
    def _validation_auc(self, frame: DataFrame, target: str, deadline: Deadline) -> float:
        """AUC of the validation model on a holdout split.

        CAAFE's validator masks non-finite values (``nan_to_num``) before
        fitting — which is exactly how an unguarded division can pass
        validation and still poison the returned frame for stricter
        downstream consumers.
        """
        deadline.check("CAAFE validation")
        X = self._numeric_matrix(frame, target)
        y = frame[target]._numeric().astype(np.int64)
        X_train, X_val, y_train, y_val = train_test_split(X, y, test_size=0.3, seed=self.seed)
        model = (
            make_model(self.validation_model, seed=self.seed)
            if isinstance(self.validation_model, str)
            else clone(self.validation_model)
        )
        model.fit(X_train, y_train)
        return roc_auc_score(y_val, model.predict_proba(X_val)[:, 1])

    @staticmethod
    def _numeric_matrix(frame: DataFrame, target: str) -> np.ndarray:
        from repro.dataframe.reshape import factorize

        columns = []
        for name in frame.columns:
            if name == target:
                continue
            series = frame[name]
            if series.dtype == object:
                codes, _ = factorize(series)
                columns.append(codes.astype(np.float64))
            else:
                # CAAFE's validator zero-masks non-finite values (TabPFN-style
                # input clipping) — so an unguarded ratio can look great on
                # its valid rows and be accepted despite the infinities.
                columns.append(
                    np.nan_to_num(series._numeric(), nan=0.0, posinf=0.0, neginf=0.0)
                )
        return np.column_stack(columns) if columns else np.zeros((len(frame), 0))
