"""Shared machinery for planting label signal in synthetic datasets,
plus scale-parameterised synthetic tables for the data-plane benchmarks.

:func:`make_synthetic_frame` generates a mixed-dtype table (skewed
numerics with missing values, low- and high-cardinality categoricals, a
boolean flag) at any row count — the workload
``benchmarks/bench_dataplane.py`` and the vectorized-equivalence tests
drive through groupby, generated transforms, and ``feature_matrix``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bucket_effect",
    "make_synthetic_bundle",
    "make_synthetic_frame",
    "sample_labels",
    "sigmoid",
    "standardize",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def standardize(x: np.ndarray) -> np.ndarray:
    """Zero-mean/unit-variance a signal component (constant-safe)."""
    x = np.asarray(x, dtype=np.float64)
    scale = x.std()
    return (x - x.mean()) / (scale if scale > 0 else 1.0)


def bucket_effect(values: np.ndarray, edges: list[float], effects: list[float]) -> np.ndarray:
    """A piecewise-constant (threshold) effect: the structure bucketisation
    recovers.  ``effects[i]`` applies on ``(edges[i], edges[i+1]]``."""
    if len(effects) != len(edges) - 1:
        raise ValueError(
            f"need {len(edges) - 1} effects for {len(edges)} edges, got {len(effects)}"
        )
    idx = np.clip(np.searchsorted(edges, values, side="left") - 1, 0, len(effects) - 1)
    return np.asarray(effects, dtype=np.float64)[idx]


def sample_labels(
    rng: np.random.Generator,
    logit: np.ndarray,
    prevalence: float = 0.5,
    noise_scale: float = 1.0,
) -> np.ndarray:
    """Draw binary labels whose Bayes signal is *logit*.

    The logit is standardised and scaled by ``noise_scale`` (higher =
    cleaner separation = higher attainable AUC), then shifted so the
    positive rate is approximately *prevalence*.
    """
    if not 0.0 < prevalence < 1.0:
        raise ValueError("prevalence must lie strictly between 0 and 1")
    score = standardize(logit) * noise_scale
    threshold_shift = float(np.quantile(score, 1.0 - prevalence))
    probs = sigmoid(score - threshold_shift)
    return (rng.uniform(size=len(score)) < probs).astype(np.int64)


_CITIES = (
    "SF", "LA", "SEA", "NYC", "CHI", "HOU", "PHX", "PHL", "DAL", "SD", "SJ", "AUS",
)

_SYNTH_DESCRIPTIONS = {
    "Age": "Age of the customer in years",
    "Income": "Annual income in thousands of dollars",
    "Balance": "Current account balance in dollars",
    "City": "City of residence",
    "Segment": "Fine-grained marketing segment label",
    "SegmentId": "Numeric id of the marketing segment",
    "Active": "Whether the account is currently active",
}


def make_synthetic_frame(n_rows: int, seed: int = 0, missing_rate: float = 0.02):
    """A mixed-dtype synthetic table sized for data-plane benchmarking.

    Columns: ``Age`` (int), ``Income``/``Balance`` (skewed floats with
    ``missing_rate`` NaNs), ``City`` (low-cardinality strings),
    ``Segment``/``SegmentId`` (high-cardinality string labels and their
    integer codes, ~``n_rows/200`` groups), ``Active`` (bool), and a
    planted binary ``Target``.  Key columns are kept complete, so the
    benchmarked group-bys never meet a missing key.  The same ``(n_rows, seed)`` pair always
    produces identical data.
    """
    from repro.dataframe import DataFrame, Series

    rng = np.random.default_rng(seed)
    age = rng.integers(18, 91, size=n_rows)
    income = np.round(np.exp(rng.normal(3.2, 0.8, size=n_rows)), 2)
    balance = np.round(rng.normal(1200.0, 400.0, size=n_rows), 2)
    for column in (income, balance):
        mask = rng.random(n_rows) < missing_rate
        column[mask] = np.nan
    city_codes = rng.integers(0, len(_CITIES), size=n_rows)
    city = np.array(_CITIES, dtype=object)[city_codes]
    n_segments = max(8, n_rows // 200)
    segment_codes = rng.integers(0, n_segments, size=n_rows)
    segment = np.array(
        [f"seg_{i:05d}" for i in range(n_segments)], dtype=object
    )[segment_codes]
    active = rng.random(n_rows) < 0.7
    logit = (
        bucket_effect(age.astype(np.float64), [18, 30, 45, 60, 91], [-0.4, 0.1, 0.5, 0.9])
        + standardize(np.log1p(np.nan_to_num(income, nan=0.0)))
        + 0.3 * standardize(np.nan_to_num(balance, nan=0.0))
        + 0.2 * (city_codes % 3 == 0)
    )
    target = sample_labels(rng, logit, prevalence=0.35, noise_scale=1.4)
    return DataFrame(
        {
            "Age": Series(age),
            "Income": Series(income),
            "Balance": Series(balance),
            "City": Series(city),
            "Segment": Series(segment),
            "SegmentId": Series(segment_codes.astype(np.int64)),
            "Active": Series(active),
            "Target": Series(target),
        }
    )


def make_synthetic_bundle(n_rows: int, seed: int = 0) -> dict:
    """``make_synthetic_frame`` plus the data card ``fit_transform`` wants.

    Returns ``{"frame", "target", "descriptions", "title"}`` — enough to
    drive the full pipeline against a zero-latency simulated client.
    """
    return {
        "frame": make_synthetic_frame(n_rows, seed=seed),
        "target": "Target",
        "descriptions": dict(_SYNTH_DESCRIPTIONS),
        "title": f"Synthetic customer table ({n_rows} rows)",
    }
