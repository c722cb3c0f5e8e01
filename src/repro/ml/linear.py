"""Linear models: logistic regression (the paper's "LR") and a least-squares scorer."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator

__all__ = ["LinearRegressionScorer", "LogisticRegression"]


class LogisticRegression(BaseEstimator):
    """L2-regularised binary logistic regression fitted with L-BFGS.

    Matches the scikit-learn default configuration (``C=1.0``, lbfgs,
    intercept).  The paper's "Linear Regression (LR)" downstream model is a
    linear classifier scored with AUC; logistic regression is the
    scikit-learn estimator fitting that description.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        self.C = C
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("LogisticRegression expects binary 0/1 targets")
        n, d = X.shape
        signs = 2.0 * y - 1.0  # {-1, +1}
        alpha = 1.0 / (2.0 * self.C)

        def loss_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
            coef, bias = w[:d], w[d]
            margins = signs * (X @ coef + bias)
            # log(1 + exp(-m)) computed stably.
            loss = np.logaddexp(0.0, -margins).sum() + alpha * coef @ coef
            probs = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))
            weighted = -signs * probs
            grad_coef = X.T @ weighted + 2.0 * alpha * coef
            grad_bias = weighted.sum()
            return float(loss), np.concatenate([grad_coef, [grad_bias]])

        from scipy import optimize  # here, not at import: serving never fits a model

        w0 = np.zeros(d + 1)
        result = optimize.minimize(
            loss_grad,
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LogisticRegression is not fitted")
        return np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)


class LinearRegressionScorer(BaseEstimator):
    """Ordinary least squares on 0/1 targets, scored as a ranking model.

    Provided for completeness against the paper's literal "Linear
    Regression" naming; predicted values serve as AUC-ranking scores with
    probabilities clipped to ``[0, 1]``.
    """

    def __init__(self, ridge: float = 1e-8) -> None:
        self.ridge = ridge
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegressionScorer":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        design = np.column_stack([X, np.ones(n)])
        gram = design.T @ design + self.ridge * np.eye(d + 1)
        weights = np.linalg.solve(gram, design.T @ y)
        self.coef_ = weights[:d]
        self.intercept_ = float(weights[d])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LinearRegressionScorer is not fitted")
        return np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = np.clip(self.decision_function(X), 0.0, 1.0)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.5).astype(np.int64)
