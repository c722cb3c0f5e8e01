"""Serving-path evaluation: plan fidelity and the replay benchmark workload.

Two jobs:

* **Fidelity** — :func:`replay_identity_report` fits SMARTFEAT on every
  eval dataset, JSON-round-trips the result's
  :class:`~repro.serve.FeaturePlan`, replays it against the original
  frame, and checks the result is *bit-identical* (dtypes and missingness
  included) to ``fit_transform``'s frame.  This is the CI identity gate.
* **Workload** — :func:`build_demo_result` constructs a synthetic fitted
  run that exercises every codegen operator form at an arbitrary row
  count, realized through the fit evaluator as ``fit_transform`` would,
  so the serving benchmark can compare plan replay against
  :func:`sandbox_replay` (the legacy re-exec baseline) at 10⁵–10⁶ rows
  without paying a million-row fit.
"""

from __future__ import annotations

import numpy as np

from repro.core.function_generator import realize_source
from repro.core.pipeline import SmartFeat, SmartFeatResult
from repro.core.sandbox import run_transform
from repro.core.types import GeneratedFeature, OperatorFamily
from repro.dataframe import DataFrame
from repro.dataframe.series import Series
from repro.datasets import DATASET_NAMES, load_dataset
from repro.datasets.synth import make_synthetic_bundle
from repro.fm import SimulatedFM
from repro.fm.codegen import generate_transform_source
from repro.fm.knowledge import default_knowledge

__all__ = [
    "ALL_DATASETS",
    "build_demo_result",
    "fit_and_export",
    "make_serving_frame",
    "replay_identity_report",
    "sandbox_replay",
    "sharded_identity_report",
]

#: The eval datasets the identity gate covers: the eight paper datasets
#: plus the synthetic table (mixed types, missing values, text, dates).
ALL_DATASETS: tuple[str, ...] = (*DATASET_NAMES, "synthetic")


def _load_bundle(dataset: str, n_rows: int, seed: int) -> dict:
    if dataset == "synthetic":
        bundle = make_synthetic_bundle(n_rows, seed=seed)
        bundle.setdefault("target_description", "")
        return bundle
    loaded = load_dataset(dataset, seed=seed, n_rows=n_rows)
    return {
        "frame": loaded.frame,
        "target": loaded.target,
        "descriptions": loaded.descriptions,
        "title": loaded.title,
        "target_description": loaded.target_description,
    }


def fit_and_export(dataset: str, n_rows: int = 300, seed: int = 0):
    """Fit SMARTFEAT on *dataset*.

    Returns ``(bundle, result)`` where ``result.plan`` is the fitted
    :class:`~repro.serve.FeaturePlan` and ``bundle["frame"]`` is the
    original input frame replay should be checked against.
    """
    bundle = _load_bundle(dataset, n_rows, seed)
    smartfeat = SmartFeat(
        SimulatedFM(seed=seed, model="gpt-4"),
        function_fm=SimulatedFM(seed=seed + 1, model="gpt-3.5-turbo"),
    )
    result = smartfeat.fit_transform(
        bundle["frame"],
        bundle["target"],
        descriptions=bundle["descriptions"],
        title=bundle["title"],
        target_description=bundle.get("target_description", ""),
    )
    return bundle, result


def sandbox_replay(result: SmartFeatResult, frame: DataFrame) -> DataFrame:
    """The legacy serving baseline: re-exec every accepted source.

    Replays ``result``'s features by running each recorded sandbox source
    over a working view of *frame* in install order, then applies the
    drop list — exactly what serving had to do before FeaturePlans.  Used
    as the throughput baseline the plan path is gated against.
    """
    working = frame.column_view(frame.columns)
    for feature in result.new_features.values():
        out = run_transform(feature.source_code, working)
        if isinstance(out, Series):
            working[feature.output_columns[0]] = out.rename(
                feature.output_columns[0]
            )
        else:
            for name in feature.output_columns:
                working[name] = out[name]
    to_drop = [c for c in result.dropped if c in working]
    if to_drop:
        working.drop(columns=to_drop, inplace=True)
    return working


def replay_identity_report(
    datasets: tuple[str, ...] = ALL_DATASETS, n_rows: int = 300, seed: int = 0
) -> list[dict]:
    """Fit → export → JSON round-trip → replay, per dataset.

    Each row reports the plan's compile counts and whether replay is
    bit-identical to the fitted frame (``identical`` plus a first-
    difference ``detail`` when it is not).
    """
    from repro.serve import FeaturePlan, frames_identical

    rows = []
    for dataset in datasets:
        bundle, result = fit_and_export(dataset, n_rows=n_rows, seed=seed)
        plan = FeaturePlan.from_json(result.plan.to_json())
        replayed = plan.apply(bundle["frame"])
        identical, detail = frames_identical(replayed, result.frame)
        rows.append(
            {
                "dataset": dataset,
                "n_rows": len(bundle["frame"]),
                "n_features": len(plan.features),
                **plan.counts(),
                "identical": identical,
                "detail": detail,
            }
        )
    return rows


def sharded_identity_report(
    datasets: tuple[str, ...] = ALL_DATASETS,
    n_rows: int = 300,
    chunk_rows: int = 64,
    seed: int = 0,
) -> list[dict]:
    """Out-of-core identity gate: sharded replay == in-memory replay.

    Per dataset: fit → export → JSON round-trip, then replay the plan
    both ways — ``plan.apply`` over the whole frame, and
    ``plan.apply_stream`` over a *chunk_rows*-row shard stream of the
    same frame, concatenated back.  Every frozen op is row-local given
    its fitted statistics, so the two must be **bit-identical**; each
    report row says whether they are (with a first-difference ``detail``
    when not).
    """
    from repro.dataframe.io import concat_shards, iter_frame_shards
    from repro.serve import FeaturePlan, frames_identical

    rows = []
    for dataset in datasets:
        bundle, result = fit_and_export(dataset, n_rows=n_rows, seed=seed)
        plan = FeaturePlan.from_json(result.plan.to_json())
        frame = bundle["frame"]
        base = plan.apply(frame)
        streamed = concat_shards(
            list(plan.apply_stream(iter_frame_shards(frame, chunk_rows)))
        )
        identical, detail = frames_identical(streamed, base)
        rows.append(
            {
                "dataset": dataset,
                "n_rows": len(frame),
                "chunk_rows": chunk_rows,
                "n_shards": -(-len(frame) // chunk_rows),
                "n_features": len(plan.features),
                **plan.counts(),
                "identical": identical,
                "detail": detail,
            }
        )
    return rows


# ----------------------------------------------------------------------
# The demo workload: every codegen form at arbitrary scale
# ----------------------------------------------------------------------
_CITIES = (
    "SF",
    "NYC",
    "LA",
    "Seattle",
    "Chicago",
    "Houston",
    "Phoenix",
    "Philadelphia",
    "San Francisco",
    "New York",
    "Los Angeles",
    "Boston",
)
_MAKES = ("Toyota", "Honda", "Ford", "BMW", "Subaru", "Tesla")
_MODELS = ("A", "B", "C", "X")
_NOTES = (
    "ok",
    "needs review",
    "priority customer, follow up",
    "",
    "escalated to tier two support after repeated contact",
)


def make_serving_frame(
    n_rows: int, seed: int = 0, n_groups: int | None = None
) -> DataFrame:
    """A mixed-type demo table sized for throughput benchmarking.

    Integer, float-with-missing, categorical, grouped-key, ISO-date,
    free-text, and separable-pair columns — one input column per codegen
    operator family, so :func:`build_demo_result` can exercise the full
    IR surface.  *n_groups* overrides the Segment cardinality (default
    scales with *n_rows*) — the sharded benchmark pins it so a small fit
    frame's group tables cover a much larger serve frame's groups.
    """
    rng = np.random.default_rng(seed)
    if n_groups is None:
        n_groups = max(n_rows // 200, 8)
    income = np.round(rng.lognormal(10.5, 0.6, n_rows), 2)
    income[rng.random(n_rows) < 0.03] = np.nan
    balance = np.round(rng.normal(5_000.0, 3_000.0, n_rows), 2)
    balance[rng.random(n_rows) < 0.05] = np.nan
    days = rng.integers(0, 3650, n_rows)
    dates = (
        np.datetime64("2015-01-01") + days.astype("timedelta64[D]")
    ).astype("datetime64[D]")
    return DataFrame(
        {
            "Age": Series(rng.integers(18, 81, n_rows).tolist()),
            "Income": Series(income),
            "Balance": Series(balance),
            "City": Series(rng.choice(_CITIES, n_rows).tolist()),
            "Segment": Series(
                [f"seg_{i:05d}" for i in rng.integers(0, n_groups, n_rows)]
            ),
            "SignupDate": Series(np.datetime_as_string(dates).tolist()),
            "Notes": Series(rng.choice(_NOTES, n_rows).tolist()),
            "Pair": Series(
                [
                    f"{m},{s}"
                    for m, s in zip(
                        rng.choice(_MAKES, n_rows), rng.choice(_MODELS, n_rows)
                    )
                ]
            ),
            "Target": Series(rng.integers(0, 2, n_rows).tolist()),
        }
    )


#: (name, input columns, tagged description, family) — one per codegen form.
_DEMO_SPECS: tuple[tuple[str, tuple[str, ...], str, OperatorFamily], ...] = (
    ("Age_band", ("Age",), "bucketization[age_insurance]: Age in insurance bands", OperatorFamily.UNARY),
    ("Income_z", ("Income",), "normalization[zscore]: standardized Income", OperatorFamily.UNARY),
    ("Balance_scaled", ("Balance",), "normalization[minmax]: min-max scaled Balance", OperatorFamily.UNARY),
    ("Income_log", ("Income",), "log_transform: log of Income", OperatorFamily.UNARY),
    ("Age_sq", ("Age",), "squared: Age squared", OperatorFamily.UNARY),
    ("City_onehot", ("City",), "get_dummies: one-hot City", OperatorFamily.UNARY),
    ("Signup_parts", ("SignupDate",), "date_split: signup month and day of week", OperatorFamily.EXTRACTOR),
    ("Notes_len", ("Notes",), "text_length: length of Notes", OperatorFamily.EXTRACTOR),
    ("Balance_missing", ("Balance",), "is_missing: Balance missing flag", OperatorFamily.UNARY),
    ("Income_per_Age", ("Income", "Age"), "binary[/]: Income divided by Age", OperatorFamily.BINARY),
    ("Income_plus_Balance", ("Income", "Balance"), "binary[+]: Income plus Balance", OperatorFamily.BINARY),
    ("Seg_mean_income", ("Segment", "Income"), "groupby[mean]: mean Income per Segment", OperatorFamily.HIGH_ORDER),
    ("SegCity_max_balance", ("Segment", "City", "Balance"), "groupby[max]: max Balance per Segment and City", OperatorFamily.HIGH_ORDER),
    ("City_density", ("City",), "knowledge_map[city_population_density]: City population density", OperatorFamily.EXTRACTOR),
    ("Pair_parts", ("Pair",), "split_parts[,]: make and model from Pair", OperatorFamily.EXTRACTOR),
    ("Risk_index", ("Age", "Income", "Balance"), "composite_index: composite risk index", OperatorFamily.HIGH_ORDER),
)

#: Single-use originals the drop heuristic would remove in this workload.
_DEMO_DROPPED = ("Notes", "Pair", "SignupDate")


def build_demo_result(n_rows: int, seed: int = 0, n_groups: int | None = None):
    """A synthetic fitted run covering every codegen form.

    Realizes each :data:`_DEMO_SPECS` source through the fit evaluator in
    install order (exactly what ``fit_transform`` would do) and wraps the
    outcome in a :class:`SmartFeatResult`.  Returns ``(result, frame)``
    with *frame* the untouched input table.  *n_groups* passes through to
    :func:`make_serving_frame`.
    """
    frame = make_serving_frame(n_rows, seed=seed, n_groups=n_groups)
    knowledge = default_knowledge()
    column_values = {"City": sorted(set(frame["City"].tolist()))}
    working = frame.column_view(frame.columns)
    new_features: dict[str, GeneratedFeature] = {}
    for name, columns, description, family in _DEMO_SPECS:
        source = generate_transform_source(
            name, list(columns), description, knowledge, column_values
        )
        expr, out = realize_source(source, working)
        values = {name: out.rename(name)} if isinstance(out, Series) else out
        for column, series in values.items():
            working[column] = series
        new_features[name] = GeneratedFeature(
            name=name,
            family=family,
            input_columns=list(columns),
            description=description,
            output_columns=list(values),
            source_code=source,
            expr=expr,
        )
    dropped = [c for c in _DEMO_DROPPED if c in working]
    working.drop(columns=dropped, inplace=True)
    result = SmartFeatResult(
        frame=working, new_features=new_features, dropped=dropped
    )
    return result, frame
