"""Quickstart: run SMARTFEAT on a built-in dataset in ~20 lines.

Usage::

    python examples/quickstart.py [dataset-name]

Loads one of the eight evaluation datasets (default: tennis), runs the
full SMARTFEAT search (all four operator families), prints the
generated features, their provenance, and the AUC before/after — then
exports the fitted run as a compiled :class:`FeaturePlan`, reloads it
from JSON, and replays it on fresh rows with no FM in the loop.
"""

import sys

from repro.core import SmartFeat
from repro.datasets import load_dataset
from repro.eval.harness import evaluate_models
from repro.fm import SimulatedFM


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "tennis"
    bundle = load_dataset(name, n_rows=800)
    print(f"Dataset: {bundle.title}  ({bundle.frame.shape[0]} rows)")
    print(f"Target:  {bundle.target} — {bundle.target_description}\n")

    tool = SmartFeat(
        fm=SimulatedFM(seed=0, model="gpt-4"),            # operator selector
        function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),  # function generator
        downstream_model="random_forest",
    )
    result = tool.fit_transform(
        bundle.frame,
        target=bundle.target,
        descriptions=bundle.descriptions,
        title=bundle.title,
        target_description=bundle.target_description,
    )

    print(f"Generated {len(result.new_features)} features:")
    for feature in result.new_features.values():
        print(f"  [{feature.family.value:10s}] {feature.name}")
    if result.dropped:
        print(f"\nDropped originals (superseded by unary transforms): {result.dropped}")

    models = ("lr", "nb", "rf")
    before = evaluate_models(bundle.frame, bundle.target, models=models, n_splits=3)
    after = evaluate_models(result.frame, bundle.target, models=models, n_splits=3)
    print("\nCross-validated AUC (initial -> with SMARTFEAT features):")
    for model in models:
        delta = (after[model] - before[model]) / before[model] * 100
        print(f"  {model:4s}: {before[model]:5.2f} -> {after[model]:5.2f}  ({delta:+.1f}%)")

    usage = result.fm_usage["operator_selector"]
    print(
        f"\nFM footprint: {usage['n_calls']} selector calls, "
        f"${usage['cost_usd']:.4f} modelled cost — independent of table size."
    )

    # --- Fit / serve split: the run's compiled plan replays on fresh
    # rows with zero FM calls and no FM-written code. ---
    from repro.serve import FeaturePlan, FeatureServer

    plan = result.plan
    counts = plan.counts()
    print(
        f"\nCompiled plan: {counts['compiled']}/{len(plan.features)} features "
        f"pure-numpy, fingerprint {plan.fingerprint[:12]}…"
    )

    plan = FeaturePlan.from_json(plan.to_json())  # JSON round-trip
    fresh = load_dataset(name, seed=7, n_rows=200).frame  # unseen rows
    served = FeatureServer(plan=plan).transform(fresh)
    print(
        f"Served {len(fresh)} fresh rows -> {len(served.columns)} columns "
        "(same features, no FM in the loop)."
    )


if __name__ == "__main__":
    main()
