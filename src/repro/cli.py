"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the eight built-in evaluation datasets (Table 3).
``run``
    Run SMARTFEAT on a built-in dataset or a CSV file and print the
    generated features, optionally writing the enriched CSV.
``compare``
    Run the method comparison (initial / SMARTFEAT / baselines) on a
    built-in dataset and print the Table 4-style row.
``plan export`` / ``plan apply``
    The fit/serve split: ``export`` fits SMARTFEAT and writes the
    compiled :class:`~repro.serve.FeaturePlan` JSON (or saves it into a
    plan registry); ``apply`` replays a plan over fresh CSV rows with no
    FM client in the loop, whole or ``--chunk-rows`` at a time.
"""

from __future__ import annotations

import argparse
import sys

from repro.datasets import DATASET_NAMES, list_datasets, load_dataset
from repro.fm import (
    Budget,
    FMBudgetExceededError,
    FMCache,
    FMExecutor,
    HedgePolicy,
    SimulatedFM,
    live_provider_configured,
    provider_from_env,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMARTFEAT reproduction: FM-guided automated feature engineering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the built-in evaluation datasets")

    run = sub.add_parser("run", help="run SMARTFEAT on a dataset or CSV")
    run.add_argument("source", help=f"dataset name ({', '.join(DATASET_NAMES)}) or a CSV path")
    run.add_argument("--target", help="target column (required for CSV sources)")
    run.add_argument("--rows", type=int, default=800, help="row cap for built-in datasets")
    run.add_argument("--model", default="random_forest", help="downstream model name")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--output", help="write the enriched table to this CSV path")
    run.add_argument("--evaluate", action="store_true", help="print before/after AUC")
    run.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="max in-flight FM calls (default 1 = one at a time; >1 runs them on a worker pool)",
    )
    run.add_argument(
        "--wave-size",
        type=int,
        default=None,
        help=(
            "sampling draws speculatively issued per wave; a semantic knob — "
            "it changes which candidates are drawn (default: --concurrency, "
            "so the pool has work to fan out)"
        ),
    )
    run.add_argument(
        "--fm-cache",
        metavar="PATH",
        default=None,
        help="persistent JSON cache for temperature-0 FM calls (created if missing)",
    )
    run.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "checkpoint the search state to this file after every "
            "completed stage, so a killed run can be resumed"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from --checkpoint: completed stages are restored "
            "(zero re-spent FM calls) and only the remainder runs"
        ),
    )
    run.add_argument(
        "--adaptive-concurrency",
        action="store_true",
        help=(
            "AIMD concurrency control: back off multiplicatively on "
            "429/5xx backpressure, recover additively on success "
            "(bounded above by --concurrency)"
        ),
    )
    run.add_argument(
        "--hedge",
        type=float,
        default=None,
        metavar="QUANTILE",
        help=(
            "hedged requests: once a call outlives this latency quantile "
            "(e.g. 0.95), issue a duplicate and take the first answer "
            "(only applies to stateless clients; the simulated client is "
            "stateful, so this knob matters for transport-backed runs)"
        ),
    )
    _add_stage_plan_flags(run)
    _add_budget_flags(run)

    compare = sub.add_parser("compare", help="compare methods on a built-in dataset")
    compare.add_argument("dataset", choices=DATASET_NAMES)
    compare.add_argument("--rows", type=int, default=900)
    compare.add_argument("--models", default="lr,nb,rf", help="comma-separated model names")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--sweep-concurrency",
        type=int,
        default=1,
        help="max (dataset, method) cells evaluated at once (1 = serial sweep)",
    )
    _add_stage_plan_flags(compare)
    _add_budget_flags(compare, per_cell=True)

    plan = sub.add_parser("plan", help="compile and replay serving FeaturePlans")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    export = plan_sub.add_parser(
        "export", help="fit SMARTFEAT and write the compiled plan JSON"
    )
    export.add_argument(
        "source", help=f"dataset name ({', '.join(DATASET_NAMES)}) or a CSV path"
    )
    export.add_argument("--target", help="target column (required for CSV sources)")
    export.add_argument("--rows", type=int, default=400, help="row cap for built-in datasets")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--out", help="write the plan JSON to this path")
    export.add_argument("--registry", help="plan registry directory to save into")
    export.add_argument(
        "--name", help="plan name inside the registry (default: the source name)"
    )

    apply_ = plan_sub.add_parser(
        "apply", help="replay a compiled plan over fresh CSV rows (no FM)"
    )
    apply_.add_argument("--plan", help="path to a plan JSON file")
    apply_.add_argument("--registry", help="plan registry directory to load from")
    apply_.add_argument("--name", help="plan name inside the registry")
    apply_.add_argument("--version", type=int, default=None, help="registry plan version")
    apply_.add_argument("--csv", required=True, help="CSV of rows to transform")
    apply_.add_argument("--out", help="write the featured rows to this CSV path")
    apply_.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stream the CSV through the plan N rows at a time instead of "
            "loading it whole (out-of-core: bounded memory, incremental "
            "--out writes; not always byte-identical to the unchunked "
            "output, since a feature's output dtype can depend on the chunk)"
        ),
    )
    apply_.add_argument(
        "--failure-policy",
        choices=["strict", "degrade"],
        default="strict",
        help=(
            "strict (default): any failing feature fails the batch; "
            "degrade: failing features yield NaN columns and a health report"
        ),
    )
    return parser


def _add_stage_plan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stage-plan",
        choices=("serial", "overlap"),
        default="serial",
        help=(
            "stage scheduling: 'serial' runs the paper's §3.2 chain "
            "(every stage sees everything so far); 'overlap' cuts each "
            "stage's view to its declared reads so independent stages "
            "schedule side by side (result-identical on seeded clients, "
            "shorter modelled makespan and smaller prompts)"
        ),
    )
    parser.add_argument(
        "--plan-budget",
        action="store_true",
        help=(
            "budget-aware stage planning: right-size sampling budgets and "
            "drop optional stages to fit the remaining FM budget instead "
            "of aborting mid-run (requires --max-cost/--max-fm-calls)"
        ),
    )


def _add_budget_flags(parser: argparse.ArgumentParser, per_cell: bool = False) -> None:
    scope = "per sweep cell" if per_cell else "for the run"
    parser.add_argument(
        "--max-cost",
        type=float,
        default=None,
        metavar="USD",
        help=f"FM dollar budget {scope}; exceeding it stops FM calls",
    )
    parser.add_argument(
        "--max-fm-calls",
        type=int,
        default=None,
        metavar="N",
        help=f"FM call budget {scope}; exceeding it stops FM calls",
    )


def _budget_from_args(args) -> Budget | None:
    if args.max_cost is None and args.max_fm_calls is None:
        return None
    return Budget(max_cost_usd=args.max_cost, max_calls=args.max_fm_calls)


def _cmd_datasets() -> int:
    from repro.eval import render_table

    rows = [
        [s.name, str(s.n_categorical), str(s.n_numeric), str(s.n_rows), s.field, s.target]
        for s in list_datasets()
    ]
    print(render_table(["Dataset", "# cat", "# num", "# rows", "Field", "Target"], rows))
    return 0


def _load_source(args) -> tuple:
    if args.source in DATASET_NAMES:
        bundle = load_dataset(args.source, seed=args.seed, n_rows=args.rows)
        return (
            bundle.frame,
            bundle.target,
            bundle.descriptions,
            bundle.title,
            bundle.target_description,
        )
    from repro.dataframe import read_csv

    if not args.target:
        raise SystemExit("--target is required for CSV sources")
    frame = _read_or_exit(read_csv, args.source)
    if args.target not in frame.columns:
        raise SystemExit(f"target column {args.target!r} not in {args.source}")
    return frame, args.target, None, "", ""


def _read_or_exit(reader, *args):
    """``reader(*args)``, with an unreadable CSV (e.g. a duplicated header
    name or undecodable bytes) reported as a message, not a traceback."""
    try:
        return reader(*args)
    except ValueError as exc:
        raise SystemExit(f"cannot read CSV: {exc}")


def _make_clients(args) -> tuple:
    """The config-selected FM pair: live HTTP transports when the
    environment opts in (``SMARTFEAT_PROVIDER`` + ``SMARTFEAT_API_KEY``),
    the seeded simulator otherwise.  CI never sets the variables, so the
    live path is never exercised there."""
    if live_provider_configured():
        fm = provider_from_env()
        function_fm = provider_from_env()
        print(
            f"Using live provider (model {fm.model}); "
            "unset SMARTFEAT_PROVIDER to run on the simulator",
            file=sys.stderr,
        )
        return fm, function_fm
    return (
        SimulatedFM(seed=args.seed, model="gpt-4"),
        SimulatedFM(seed=args.seed + 1, model="gpt-3.5-turbo"),
    )


def _cmd_run(args) -> int:
    from repro.core import SmartFeat
    from repro.eval import render_schedule
    from repro.eval.harness import evaluate_models

    frame, target, descriptions, title, target_description = _load_source(args)
    if args.concurrency < 1:
        raise SystemExit("--concurrency must be >= 1")
    if args.plan_budget and _budget_from_args(args) is None:
        raise SystemExit(
            "--plan-budget needs a budget to plan against: "
            "pass --max-cost and/or --max-fm-calls"
        )
    if args.wave_size is not None and args.wave_size < 1:
        raise SystemExit("--wave-size must be >= 1")
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    if args.hedge is not None and not (0.0 < args.hedge < 1.0):
        raise SystemExit("--hedge must be a quantile in (0, 1)")
    executor = FMExecutor(
        args.concurrency,
        adaptive=True if args.adaptive_concurrency else None,
        hedge=HedgePolicy(quantile=args.hedge) if args.hedge is not None else None,
    )
    cache = FMCache(path=args.fm_cache) if args.fm_cache else None
    # --wave-size defaults to --concurrency so the pool has sampling
    # work to fan out; pass --wave-size explicitly to fix the search
    # semantics independently of the concurrency.
    wave_size = args.wave_size if args.wave_size is not None else args.concurrency
    fm, function_fm = _make_clients(args)
    tool = SmartFeat(
        fm=fm,
        function_fm=function_fm,
        downstream_model=args.model,
        executor=executor,
        cache=cache,
        wave_size=wave_size,
        budget=_budget_from_args(args),
        stage_plan=args.stage_plan,
        plan_budget=args.plan_budget,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    try:
        result = tool.fit_transform(
            frame,
            target=target,
            descriptions=descriptions,
            title=title,
            target_description=target_description,
        )
    except FMBudgetExceededError as exc:
        if cache is not None:
            cache.save()  # keep what was paid for; a rerun starts warm
        raise SystemExit(f"aborted: {exc}")
    finally:
        executor.close()
    print(f"Generated {len(result.new_features)} features:")
    for feature in result.new_features.values():
        print(f"  [{feature.family.value:10s}] {feature.name}")
    if result.dropped:
        print(f"Dropped originals: {result.dropped}")
    for plan in result.row_plans:
        print(
            f"Deferred row-level feature {plan.name!r}: {plan.estimated_calls} calls, "
            f"~${plan.estimated_cost_usd:.2f}"
        )
    for suggestion in result.suggestions:
        print(f"Data sources for {suggestion.name!r}: {suggestion.sources}")
    if args.evaluate:
        before = evaluate_models(frame, target, models=("lr", "rf"), n_splits=3)
        after = evaluate_models(result.frame, target, models=("lr", "rf"), n_splits=3)
        for model in before:
            print(f"  {model}: {before[model]:.2f} -> {after[model]:.2f}")
    if args.output:
        from repro.dataframe.io import to_csv

        to_csv(result.frame, args.output)
        print(f"Wrote enriched table to {args.output}")
    execution = result.fm_usage["execution"]
    print(
        f"FM execution: concurrency {execution['concurrency']}, "
        f"{execution['summed_latency_s']:.0f}s summed latency, "
        f"{execution['critical_path_s']:.0f}s critical path"
        + (f", {execution['cache_hits']} cache hits" if execution["cache_hits"] else "")
    )
    print(render_schedule(execution["schedule"]))
    if cache is not None:
        cache.save()
        print(f"FM cache: {len(cache)} entries saved to {args.fm_cache}")
    return 0


def _cmd_compare(args) -> int:
    from repro.eval import SweepConfig, render_auc_table, render_sweep_summary, run_sweep

    if args.sweep_concurrency < 1:
        raise SystemExit("--sweep-concurrency must be >= 1")
    if args.plan_budget and _budget_from_args(args) is None:
        raise SystemExit(
            "--plan-budget needs a budget to plan against: "
            "pass --max-cost and/or --max-fm-calls"
        )
    config = SweepConfig(
        datasets=(args.dataset,),
        models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
        n_rows=args.rows,
        n_splits=3,
        time_limit_s=None,
        seed=args.seed,
        sweep_concurrency=args.sweep_concurrency,
        max_cost_usd=args.max_cost,
        max_fm_calls=args.max_fm_calls,
        stage_plan=args.stage_plan,
        plan_budget=args.plan_budget,
    )
    result = run_sweep(config, progress=lambda line: print(f"  {line}", file=sys.stderr))
    print(render_auc_table(result, aggregate="average"))
    print(file=sys.stderr)
    print(render_sweep_summary(result), file=sys.stderr)
    return 0


def _cmd_plan_export(args) -> int:
    from repro.core import SmartFeat
    from repro.serve import PlanRegistry

    if not args.out and not args.registry:
        raise SystemExit("pass --out and/or --registry to store the exported plan")
    frame, target, descriptions, title, target_description = _load_source(args)
    fm, function_fm = _make_clients(args)
    tool = SmartFeat(fm=fm, function_fm=function_fm)
    result = tool.fit_transform(
        frame,
        target=target,
        descriptions=descriptions,
        title=title,
        target_description=target_description,
    )
    plan = result.plan
    counts = plan.counts()
    print(
        f"Compiled plan: {len(plan.features)} features "
        f"({counts['compiled']} compiled, {counts['omitted']} omitted), "
        f"fingerprint {plan.fingerprint[:12]}…"
    )
    for spec in plan.features:
        if spec.status != "compiled":
            print(f"  [{spec.status}] {spec.name}: {spec.reason}")
    if args.out:
        plan.save(args.out)
        print(f"Wrote plan to {args.out}")
    if args.registry:
        name = args.name or (
            args.source if args.source in DATASET_NAMES else "plan"
        )
        version = PlanRegistry(args.registry).save(plan, name)
        print(f"Saved to registry {args.registry} as {name} v{version}")
    return 0


def _cmd_plan_apply(args) -> int:
    """``plan apply``: replay a plan over the CSV's shard stream.

    The unchunked apply is the one-shard case (``sys.maxsize`` rows), as
    ``read_csv`` is of ``read_csv_shards``.  ``--chunk-rows N`` streams N
    rows at a time, never holding more than one chunk plus its featured
    output.  The CSV is read once: every chunk decodes against the plan's
    pinned input kinds (``FeaturePlan.csv_schema``), the columns it does
    not read pass through as text, and a cell that breaks its kind fails
    naming the file's first such row.  Every pinned input column keeps
    the text it was read from, so ``--out`` writes each of its cells as
    read (``1e400``, ``007`` and ``1.50`` stay as they are) and re-applies
    under the same plan.  A v2 plan pins no CSV kinds, so its chunked
    apply scans the file for them first (``io.scan_csv_kinds``) and, as
    its unchunked apply, writes every column as decoded, byte for byte as
    the v2 reader did.  ``--out`` is written chunk by chunk (header
    once) to a temporary file beside it, moved into place once every
    chunk is written: a failure leaves no partial file.  A feature's
    output dtype can still depend on the chunk (``str_len`` is int64
    without missing text, float64 with it), so chunked ``--out`` is not
    always byte-identical to the unchunked one.
    """
    from itertools import chain

    from repro.dataframe import io
    from repro.records import replaced_atomically
    from repro.serve import FeaturePlan, FeatureServer, PlanError, PlanRegistry

    if bool(args.plan) == bool(args.registry):
        raise SystemExit("pass exactly one of --plan or --registry/--name")
    if args.registry and not args.name:
        raise SystemExit("--registry needs --name")
    if args.chunk_rows is not None and args.chunk_rows < 1:
        raise SystemExit("--chunk-rows must be >= 1")

    def read_shards(shards):
        """*shards*, with a read error reported as a message."""
        while True:
            try:
                shard = next(shards, None)
            except io.CsvKindError as exc:
                raise SystemExit(f"plan apply failed: {exc}")
            except ValueError as exc:  # e.g. a duplicated header name
                raise SystemExit(f"cannot read CSV: {exc}")
            if shard is None:
                return
            yield shard

    try:
        server = FeatureServer(
            plan=FeaturePlan.load(args.plan) if args.plan else None,
            registry=PlanRegistry(args.registry) if args.registry else None,
            name=args.name,
            version=args.version,
            failure_policy=args.failure_policy,
        )
        plan = server.plan_for()
        schema, keep_text = plan.csv_schema(), True
        if schema is None and args.chunk_rows:  # a v2 plan: written as decoded
            schema = _read_or_exit(io.scan_csv_kinds, args.csv)
            keep_text = False
        shards = read_shards(
            io.read_csv_shards(
                args.csv, args.chunk_rows or sys.maxsize, schema=schema, keep_text=keep_text
            )
        )
        first = next(shards, None)
        if first is None:
            raise SystemExit(f"plan apply failed: {args.csv} has no data rows")
        chunks = enumerate(server.transform_stream(chain([first], shards)), start=1)
        if args.out:
            with replaced_atomically(args.out) as partial:
                for n_chunks, featured in chunks:
                    io.to_csv(featured, partial, append=n_chunks > 1)
        else:
            for n_chunks, featured in chunks:
                pass
    except PlanError as exc:
        raise SystemExit(f"plan apply failed: {exc}")
    chunking = f" in {n_chunks} chunks of <= {args.chunk_rows}" if args.chunk_rows else ""
    print(
        f"Applied plan ({len(plan.features)} features) to {server.stats()['rows_in']} "
        f"rows{chunking}: {len(featured.columns)} columns out"
    )
    if args.failure_policy == "degrade":
        health = server.health()
        print(
            f"Health: {health['status']} — "
            f"failing features: {health['failing_features'] or 'none'}, "
            f"{health['rows_quarantined']} rows quarantined"
        )
    if args.out:
        print(f"Wrote featured rows to {args.out}")
    else:
        preview = ", ".join(featured.columns[:8])
        more = len(featured.columns) - 8
        print(f"Columns: {preview}" + (f" … +{more} more" if more > 0 else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "plan":
        if args.plan_command == "export":
            return _cmd_plan_export(args)
        return _cmd_plan_apply(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
