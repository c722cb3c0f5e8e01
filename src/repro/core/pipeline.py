"""The SMARTFEAT pipeline: the Section 3 search loop end to end.

Order of exploration (Section 3.2, "Generating the candidate feature set"):

1. unary operators on each original feature (proposal strategy);
2. binary operators over original + unary features (sampling strategy);
3. high-order GroupByThenAgg features (sampling strategy);
4. extractors over the enriched feature set (sampling strategy);
5. the drop heuristic: an original feature that received a unary
   transformation and is used by no other operator is removed.

Each accepted feature's name and description are appended to the data
agenda before the next iteration, so later operators can build on earlier
generated features.

Execution model
---------------
FM interactions are structured as *waves* of independent calls: the unary
stage issues all per-attribute proposal calls as one batch, and each
sampling stage speculatively issues ``min(remaining budget, wave_size)``
draws per wave, then deduplicates, realizes (first attempts batched), and
validates the wave's results in submission order, stopping at the error
threshold.  ``wave_size`` is a *semantic* parameter — it determines which
agenda snapshot each prompt sees — while the executor's concurrency is
pure infrastructure: running the same waves on an
:class:`~repro.fm.executor.FMExecutor` of any concurrency accepts
identical features and records identical ledger totals, only the
critical-path latency changes.  With ``wave_size=1`` the sampling stages
degenerate to the paper's one-call-at-a-time loop; the unary stage is
always one batch (its per-attribute proposals are mutually independent,
so there is no within-stage feedback to preserve).

Stage graph
-----------
The stage sequence itself is no longer hard-coded: ``fit_transform``
builds a :class:`~repro.core.scheduler.StageGraph` whose nodes declare
which column *provenance tags* they read and write (``"originals"``,
``"unary"``, ``"binary"``, …), and one
:class:`~repro.core.scheduler.StageScheduler` call executes it.  Stage
dispatch always follows the canonical §3.2 order — that keeps seeded
clients reproducible — but the graph makes the search's real dependency
structure explicit: under ``stage_plan="overlap"`` each stage sees only
the columns its declared reads cover, the schedule report models the DAG
makespan with independent stages overlapped, and (with
``plan_budget=True``) the scheduler right-sizes each stage's sampling
budget to the remaining :class:`~repro.fm.base.Budget` instead of
aborting mid-flight.  See :mod:`repro.core.scheduler` for the contract.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.core.agenda import DataAgenda, column_kind
from repro.core.checkpoint import (
    CheckpointStore,
    fingerprint as checkpoint_fingerprint,
    restore_run,
    snapshot_run,
)
from repro.core.function_generator import (
    REALIZE_ERRORS,
    ROW_LEVEL_SOURCE,
    FunctionGenerator,
    RealizedFeature,
    freeze_completion,
)
from repro.core.operator_selector import OperatorSelector
from repro.core.scheduler import (
    WILDCARD,
    StageGraph,
    StageNode,
    StageScheduler,
)
from repro.core.types import (
    FeatureCandidate,
    GeneratedFeature,
    OperatorFamily,
    RowCompletionPlan,
    SourceSuggestion,
)
from repro.core.parsing import parse_json_response, parse_scalar
from repro.core.validation import ValidationConfig, validate_output
from repro.dataframe import DataFrame
from repro.fm.base import Budget, FMClient
from repro.fm.cache import FMCache
from repro.fm.errors import FMBudgetExceededError, FMError, FMParseError
from repro.fm.executor import FMExecutor, FMRequest
from repro.serve.compiler import compile_plan as _compile_plan

__all__ = ["SmartFeat", "SmartFeatResult", "StageContext"]

_ALL_FAMILIES = (
    OperatorFamily.UNARY,
    OperatorFamily.BINARY,
    OperatorFamily.HIGH_ORDER,
    OperatorFamily.EXTRACTOR,
)

#: Provenance tag carried by the input table's columns (and the target).
ORIGINALS_TAG = "originals"


@dataclass
class SmartFeatResult:
    """Everything a SMARTFEAT run produced.

    ``frame`` is the transformed dataframe (target column preserved);
    ``new_features`` maps feature name → provenance; ``dropped`` lists
    original features removed by the drop heuristic; ``suggestions`` and
    ``row_plans`` surface the §3.3 scenario-2/3 outputs; ``rejections``
    records validator verdicts; ``fm_usage`` summarises API accounting,
    including the execution layer's summed vs critical-path latency and
    the stage schedule (``fm_usage["execution"]["schedule"]``); ``plan``
    serves the accepted features (:class:`~repro.serve.FeaturePlan`).
    """

    frame: DataFrame
    new_features: dict[str, GeneratedFeature] = field(default_factory=dict)
    dropped: list[str] = field(default_factory=list)
    removed_by_fm: list[str] = field(default_factory=list)
    suggestions: list[SourceSuggestion] = field(default_factory=list)
    row_plans: list[RowCompletionPlan] = field(default_factory=list)
    rejections: dict[str, str] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    fm_usage: dict[str, dict[str, float]] = field(default_factory=dict)
    plan: Any = None

    @property
    def new_columns(self) -> list[str]:
        """All accepted output columns across generated features."""
        out: list[str] = []
        for feature in self.new_features.values():
            out.extend(feature.output_columns)
        return out


@dataclass
class StageContext:
    """Mutable state one ``fit_transform`` run threads through its stages.

    The scheduler owns dispatch; the context owns the data: the working
    frame and agenda every stage merges into (installation order *is*
    the deterministic merge order), the provenance tag per column that
    stage views are cut by, the drop-heuristic bookkeeping sets, and
    the draw budgets the budget planner granted.  The scheduler times
    each stage itself (``NodeRecord``), so the context carries no clock.
    """

    working: DataFrame
    agenda: DataAgenda
    result: SmartFeatResult
    original_features: list[str]
    target: str
    restrict_views: bool = False
    #: Set by the scheduler when independent stages really run
    #: concurrently; views and installs then serialise on ``lock``.
    physical: bool = False
    column_tags: dict[str, str] = field(default_factory=dict)
    unary_transformed: set[str] = field(default_factory=set)
    used_by_other_ops: set[str] = field(default_factory=set)
    granted_draws: dict[str, int] = field(default_factory=dict)
    #: Guards the shared frame/agenda/bookkeeping under physical stage
    #: fan-out.  Re-entrant because an install may re-read shared state;
    #: uncontended (sequential dispatch) it costs nanoseconds.
    lock: threading.RLock = field(default_factory=threading.RLock)

    def view(self, node: StageNode) -> tuple[DataFrame, DataAgenda]:
        """The frame and agenda *node* is allowed to see, per its reads.

        Under the serial plan (and for wildcard readers) this is the
        shared state — the paper's everything-so-far chain semantics.
        Under the overlap plan the view is cut to the node's declared
        reads plus its own writes, which is what makes the declared
        stage independence real information-flow independence.  Views
        share column/entry objects (no copies) and are rebuilt per wave,
        so a stage always sees its own earlier installs.

        Under *physical* fan-out the whole cut happens inside the
        context lock and always materialises a view (never the shared
        objects), so a stage's snapshot cannot change under it while a
        concurrent stage installs.
        """
        with self.lock:
            if not self.restrict_views or WILDCARD in node.reads:
                return self.working, self.agenda
            allowed_tags = set(node.reads) | set(node.writes)
            allowed = [
                name
                for name in self.working.columns
                if name == self.target
                or self.column_tags.get(name, ORIGINALS_TAG) in allowed_tags
            ]
            if not self.physical and len(allowed) == len(self.working.columns):
                return self.working, self.agenda
            return (
                self.working.column_view(allowed),
                self.agenda.subset(allowed),
            )


class SmartFeat:
    """Automated feature construction through feature-level FM interactions.

    Parameters
    ----------
    fm:
        Operator-selector client (the paper uses GPT-4 here).
    function_fm:
        Function-generator client (the paper uses GPT-3.5-turbo for its
        comparable quality at lower cost); defaults to *fm*.
    downstream_model:
        Name of the downstream classifier, included in every prompt so the
        FM tailors features to it (e.g. scaling for DNN/KNN).
    sampling_budget:
        Per-family cap on sampling-strategy calls (paper default: 10).
    error_threshold:
        Per-family cap on generation errors — invalid or repeated
        candidates — before sampling stops early.
    operator_families:
        Which families to explore (ablations switch these off).
    row_level_policy:
        ``"auto"`` — complete small tables, defer large ones to a plan;
        ``"never"`` — always defer; ``"always"`` — complete regardless of
        size (costly, for small-data experiments).
    drop_heuristic:
        Apply the original-feature removal rule.
    repair_retries:
        Error-correction attempts per generated function: on failure the
        FM is re-asked with the failing code and error message (the
        paper's Section 5 error-correction direction).
    binary_strategy:
        ``"sampling"`` (paper default) or ``"proposal"`` — the §3.2
        strategy choice for the binary family, exposed for ablation.
    fm_feature_removal:
        Ask the FM to flag redundant generated features for removal after
        the search (the paper's §3.2 future-work direction; off by
        default).
    executor:
        The :class:`~repro.fm.executor.FMExecutor` every FM call runs
        through; its ``concurrency`` picks inline calls (1) or a worker
        pool (> 1).  Defaults to a per-instance ``FMExecutor()`` at
        concurrency 1.  On seeded clients the concurrency changes only
        wall-clock behaviour, never which features are accepted; with
        stateless clients (e.g.
        :class:`~repro.fm.transport.TransportFMClient`) a concurrency
        above 1 additionally lets ``stage_plan="overlap"`` fan
        independent stages out physically.  The executor stays the
        caller's to close.
    cache:
        Optional :class:`~repro.fm.cache.FMCache` attached to both
        clients: repeated runs over the same data re-issue zero
        temperature-0 calls.  Note the attachment outlives this
        instance — the clients keep serving from the cache until it is
        detached (``fm.cache = None``).
    budget:
        Optional :class:`~repro.fm.base.Budget` attached to both
        clients' ledgers (one shared meter, so it caps their *combined*
        spend).  When a call crosses a limit,
        :class:`~repro.fm.errors.FMBudgetExceededError` propagates out
        of :meth:`fit_transform` — it is never absorbed as a generation
        error, so callers can degrade gracefully (the eval sweep marks
        the cell ``status="budget"``).  With ``plan_budget=True`` the
        stage scheduler instead right-sizes the remaining stages to the
        headroom and the run completes.  Like ``cache``, the attachment
        outlives this instance.
    wave_size:
        Sampling draws speculatively issued per wave (and the agenda
        snapshot granularity).  This is a *semantic* knob: it changes
        which candidates are drawn.  It defaults to 1 — the paper's
        serial loop — independent of the executor, so swapping backends
        alone never changes results; raise it to give a concurrent
        executor sampling work to fan out.
    stage_plan:
        ``"serial"`` (default) — every stage sees the full
        everything-so-far agenda, the paper's chain.  ``"overlap"`` —
        each stage sees only the columns its declared reads cover, so
        stages without read/write conflicts are genuinely independent
        and the schedule models them overlapped.  On seeded clients the
        two plans are result-identical (the reads cover everything the
        FM's answers use — enforced by the equivalence suite); dispatch
        order is canonical either way, so this is the stage-level
        analogue of the executor contract.
    plan_budget:
        Enable budget-aware planning: the scheduler checks the budget's
        remaining headroom before each stage, shrinks sampling budgets
        and drops optional stages to fit, and absorbs a mid-stage budget
        trip into the schedule report instead of raising.  Decisions
        land in ``result.fm_usage["execution"]["schedule"]``.
    checkpoint:
        Path (or :class:`~repro.core.checkpoint.CheckpointStore`) to
        checkpoint the search to: after every completed stage node the
        full restorable state — frame, agenda, result, ledgers, client
        sampling state, budget spend — is written atomically.  ``None``
        (default) disables checkpointing.
    resume:
        With ``checkpoint`` set: restore the stored state before
        scheduling, mark the recorded nodes ``"restored"``, and run only
        what is left — at zero re-spent FM calls, producing a frame
        bit-identical to the uninterrupted run (the checkpoint also
        restores the clients' per-call sampling state).  A checkpoint
        from different data/target/title fails loudly.  When no
        checkpoint file exists yet, the run simply starts fresh.
    """

    def __init__(
        self,
        fm: FMClient,
        function_fm: FMClient | None = None,
        downstream_model: str = "random_forest",
        sampling_budget: int = 10,
        error_threshold: int = 3,
        temperature: float = 0.7,
        validation: ValidationConfig | None = None,
        operator_families: tuple[OperatorFamily, ...] = _ALL_FAMILIES,
        row_level_policy: str = "auto",
        row_limit: int = 200,
        drop_heuristic: bool = True,
        repair_retries: int = 1,
        binary_strategy: str = "sampling",
        fm_feature_removal: bool = False,
        executor: FMExecutor | None = None,
        cache: FMCache | None = None,
        wave_size: int | None = None,
        budget: Budget | None = None,
        stage_plan: str = "serial",
        plan_budget: bool = False,
        checkpoint: "str | CheckpointStore | None" = None,
        resume: bool = False,
    ) -> None:
        if row_level_policy not in ("auto", "never", "always"):
            raise ValueError(f"invalid row_level_policy: {row_level_policy!r}")
        if binary_strategy not in ("sampling", "proposal"):
            raise ValueError(f"invalid binary_strategy: {binary_strategy!r}")
        if wave_size is not None and wave_size < 1:
            raise ValueError(f"wave_size must be >= 1, got {wave_size}")
        if stage_plan not in ("serial", "overlap"):
            raise ValueError(f"invalid stage_plan: {stage_plan!r}")
        self.fm = fm
        self.function_fm = function_fm or fm
        self.downstream_model = downstream_model
        self.sampling_budget = sampling_budget
        self.error_threshold = error_threshold
        self.validation = validation or ValidationConfig()
        self.operator_families = tuple(operator_families)
        self.row_level_policy = row_level_policy
        self.drop_heuristic = drop_heuristic
        self.binary_strategy = binary_strategy
        self.fm_feature_removal = fm_feature_removal
        self.executor = executor or FMExecutor()
        self.cache = cache
        if cache is not None:
            self.fm.cache = cache
            self.function_fm.cache = cache
        self.budget = budget
        if budget is not None:
            self.fm.ledger.budget = budget
            self.function_fm.ledger.budget = budget
        self.wave_size = wave_size if wave_size is not None else 1
        self.stage_plan = stage_plan
        self.plan_budget = plan_budget
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path/store")
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = CheckpointStore(checkpoint)
        self.resume = resume
        self.selector = OperatorSelector(fm, temperature=temperature, executor=self.executor)
        self.generator = FunctionGenerator(
            self.function_fm,
            row_limit={"always": 10**9, "never": -1}.get(row_level_policy, row_limit),
            repair_retries=repair_retries,
            executor=self.executor,
        )

    # ------------------------------------------------------------------
    def fit_transform(
        self,
        frame: DataFrame,
        target: str,
        descriptions: dict[str, str] | None = None,
        title: str = "",
        target_description: str = "",
    ) -> SmartFeatResult:
        """Run the full search and return the enriched dataframe.

        *descriptions* is the data card (column → description).  Omitting
        it reproduces the paper's names-only ablation.

        The search is one scheduler call over the stage graph that
        :meth:`build_stage_graph` declares; ``stage_plan`` and
        ``plan_budget`` (constructor knobs) select the view/overlap
        semantics and the budget planner.
        ``result.plan`` serves the frozen expressions fit evaluated, so it
        replays ``result.frame`` bit-identically.
        """
        working = frame.copy()  # the agenda caches encodings on it, not on frame
        agenda = DataAgenda.from_dataframe(
            working,
            target=target,
            descriptions=descriptions,
            title=title,
            target_description=target_description,
            model=self.downstream_model,
        )
        result = SmartFeatResult(frame=working)
        ctx = StageContext(
            working=working,
            agenda=agenda,
            result=result,
            original_features=[c for c in frame.columns if c != target],
            target=target,
            # restrict_views is derived by the scheduler from its plan —
            # one source of truth for view semantics vs report label.
            column_tags={c: ORIGINALS_TAG for c in frame.columns},
        )
        graph = self.build_stage_graph(ctx)
        completed: frozenset[str] = frozenset()
        on_node_complete = None
        if self.checkpoint is not None:
            run_fingerprint = checkpoint_fingerprint(frame, target, title)
            if self.resume:
                payload = self.checkpoint.load()
                if payload is not None:
                    completed = restore_run(
                        payload,
                        ctx,
                        (self.fm, self.function_fm),
                        self.budget,
                        run_fingerprint,
                        inputs=frame,
                    )
            finished: list[str] = list(completed)
            store = self.checkpoint

            def on_node_complete(node) -> None:
                # Under physical fan-out several nodes finish (and
                # checkpoint) concurrently; the snapshot must not read a
                # mid-merge frame, and the finished list is shared.
                with ctx.lock:
                    if node.name not in finished:
                        finished.append(node.name)
                    store.save(
                        snapshot_run(
                            ctx,
                            (self.fm, self.function_fm),
                            self.budget,
                            finished,
                            run_fingerprint,
                        )
                    )

        scheduler = StageScheduler(
            executor=self.executor,
            clients=(self.fm, self.function_fm),
            plan=self.stage_plan,
            budget=self.budget,
            plan_budget=self.plan_budget,
            completed=completed,
            on_node_complete=on_node_complete,
        )
        schedule = scheduler.execute(graph, ctx)
        result.fm_usage = {
            "operator_selector": self.fm.ledger.snapshot(),
        }
        if self.function_fm is not self.fm:
            result.fm_usage["function_generator"] = self.function_fm.ledger.snapshot()
        execution = dict(self.executor.stats.snapshot())
        execution["concurrency"] = self.executor.concurrency
        execution["wave_size"] = self.wave_size
        execution["schedule"] = schedule.report()
        result.fm_usage["execution"] = execution
        result.plan = _compile_plan(result, frame, target)
        return result

    # ------------------------------------------------------------------
    def fit_transform_stream(
        self,
        shards,
        target: str,
        descriptions: dict[str, str] | None = None,
        title: str = "",
        target_description: str = "",
        *,
        fit_sample_rows: int = 100_000,
        sample_seed: int = 0,
        refresh_group_tables: bool = True,
    ) -> SmartFeatResult:
        """Out-of-core fit: search over a bounded sample of a shard stream.

        *shards* is an iterable of :class:`~repro.dataframe.io.Shard`
        objects / DataFrames, or — when a second pass may be needed — a
        zero-argument callable returning a fresh such iterable each time
        it is called (e.g. ``lambda: read_csv_shards(path, 50_000)``).

        Pass 1 draws a ``fit_sample_rows``-row sample via the seeded
        reservoir (:func:`~repro.dataframe.io.reservoir_sample`), whose
        output depends only on the row stream and seed — never on shard
        boundaries — and holds at most the sample plus one shard in
        memory.  The FM search then runs :meth:`fit_transform` on that
        sample, so the accepted features, ``result.frame``, and the
        plan are bit-identical to fitting in memory on the same sample.

        With *refresh_group_tables* (default), a second pass
        re-aggregates every frozen ``group_lookup`` table of the plan
        over the **full** stream through the two-pass segmented merge
        (:meth:`~repro.serve.FeaturePlan.refresh_group_tables`), so group
        statistics reflect every row even though the search saw only the
        sample.  A one-shot iterator cannot be re-wound: for every stream
        fit whose plan has group tables, a *shards* that is not callable
        raises ``ValueError`` once the search is done, before the plan is
        handed out with sample-only tables it did not ask for.  Pass
        ``refresh_group_tables=False`` to keep sample-only tables.

        The plan records what happened under
        ``plan.metadata["fit_stream"]``: sampled vs total row counts, the
        seed, and whether tables were refreshed.
        """
        from repro.dataframe.io import reservoir_sample

        if fit_sample_rows < 1:
            raise ValueError(
                f"fit_sample_rows must be >= 1, got {fit_sample_rows}"
            )
        factory = shards if callable(shards) else None
        stream = shards() if factory is not None else shards
        sample, total_rows = reservoir_sample(
            stream, fit_sample_rows, seed=sample_seed
        )
        if len(sample) == 0:
            raise ValueError("shard stream produced no rows to fit on")
        result = self.fit_transform(
            sample,
            target,
            descriptions=descriptions,
            title=title,
            target_description=target_description,
        )
        refreshed = 0
        if refresh_group_tables and result.plan._group_lookup_nodes():
            if factory is None:
                raise ValueError(
                    "refreshing group tables needs a second pass over the "
                    "stream: pass a callable shard factory (e.g. "
                    "lambda: read_csv_shards(path, rows)) or set "
                    "refresh_group_tables=False"
                )
            result.plan = copy.deepcopy(result.plan)  # keep features' exprs as fit froze them
            refreshed = result.plan.refresh_group_tables(factory())
        result.plan.metadata["fit_stream"] = {
            "sample_rows": len(sample),
            "requested_sample_rows": fit_sample_rows,
            "total_rows": total_rows,
            "seed": sample_seed,
            "group_tables_refreshed": refreshed,
        }
        return result

    # ------------------------------------------------------------------
    # Stage graph construction
    # ------------------------------------------------------------------
    def build_stage_graph(self, ctx: StageContext) -> StageGraph:
        """Declare the §3.2 search as a stage graph.

        The reads/writes contract (what each stage's prompts and
        transforms may depend on):

        * ``unary`` reads the originals and writes ``unary`` columns.
        * ``binary`` reads originals + unary (the paper: "binary
          operators over original and unary features") and writes
          ``binary`` columns.
        * ``high_order`` reads originals + unary: group keys must
          partition rows (categoricals, bucketisations) and aggregands
          are interpretable base quantities — arithmetic composites are
          neither, so ``binary`` outputs are not read.
        * ``extractor`` reads originals + unary: entity lookups, splits,
          and composites work off interpretable base columns.
        * ``drop`` reads everything (it needs every stage's usage
          bookkeeping) and writes ``originals`` (removal).
        * ``fm_removal`` reads and writes everything, and is optional —
          the budget planner drops it first.

        Declaration order is the canonical dispatch order; the derived
        hazard edges are what the overlap plan schedules by.  To add a
        stage: append a node with honest reads/writes and a runner that
        builds its prompts from ``ctx.view(node)`` and installs through
        ``self._install`` — the scheduler handles dispatch, attribution,
        views, and budget planning.
        """
        graph = StageGraph()
        families = self.operator_families
        unary_on = OperatorFamily.UNARY in families
        base_reads = frozenset(
            {ORIGINALS_TAG, "unary"} if unary_on else {ORIGINALS_TAG}
        )
        if unary_on:
            graph.add(
                StageNode(
                    name="unary",
                    runner=self._run_unary,
                    reads=frozenset({ORIGINALS_TAG}),
                    writes=frozenset({"unary"}),
                    planned_draws=len(ctx.original_features),
                    calls_per_draw=3.0,  # one proposal + ~2 realizations
                )
            )
        if OperatorFamily.BINARY in families:
            runner = (
                self._run_binary_proposal
                if self.binary_strategy == "proposal"
                else self._run_binary_sampling
            )
            graph.add(
                StageNode(
                    name="binary",
                    runner=runner,
                    reads=base_reads,
                    writes=frozenset({"binary"}),
                    shrinkable=True,
                    planned_draws=self.sampling_budget,
                    calls_per_draw=(
                        1.5 if self.binary_strategy == "proposal" else 2.0
                    ),
                )
            )
        if OperatorFamily.HIGH_ORDER in families:
            graph.add(
                StageNode(
                    name="high_order",
                    runner=self._run_high_order,
                    reads=base_reads,
                    writes=frozenset({"high_order"}),
                    shrinkable=True,
                    planned_draws=self.sampling_budget,
                    calls_per_draw=1.0,  # realization needs no FM call
                )
            )
        if OperatorFamily.EXTRACTOR in families:
            graph.add(
                StageNode(
                    name="extractor",
                    runner=self._run_extractor,
                    reads=base_reads,
                    writes=frozenset({"extractor"}),
                    shrinkable=True,
                    planned_draws=self.sampling_budget,
                    calls_per_draw=2.0,
                )
            )
        if self.drop_heuristic:
            graph.add(
                StageNode(
                    name="drop",
                    runner=self._run_drop,
                    reads=frozenset({WILDCARD}),
                    writes=frozenset({ORIGINALS_TAG}),
                    fm=False,
                )
            )
        if self.fm_feature_removal:
            graph.add(
                StageNode(
                    name="fm_removal",
                    runner=self._run_fm_removal,
                    reads=frozenset({WILDCARD}),
                    writes=frozenset({WILDCARD}),
                    optional=True,
                    planned_draws=1,
                )
            )
        return graph

    @staticmethod
    def _write_tag(node: StageNode) -> str:
        """The provenance tag *node* stamps on columns it installs."""
        concrete = [tag for tag in node.writes if tag != WILDCARD]
        return concrete[0] if concrete else node.name

    # ------------------------------------------------------------------
    # Stage runners
    # ------------------------------------------------------------------
    def _run_unary(self, ctx: StageContext, node: StageNode) -> None:
        """Proposal strategy: every attribute's call is independent, so
        the whole stage fans out as one batch, followed by one batch of
        first-attempt function generations."""
        frame_view, agenda_view = ctx.view(node)
        proposals = self.selector.unary_candidates_batch(
            agenda_view, ctx.original_features, executor=self.executor
        )
        result = ctx.result
        ordered: list[tuple[str, FeatureCandidate]] = []
        for attr, outcome in zip(ctx.original_features, proposals):
            if not outcome.ok:
                if isinstance(outcome.error, FMBudgetExceededError):
                    raise outcome.error  # budget exhaustion ends the stage
                if isinstance(outcome.error, (FMError, FMParseError)):
                    result.errors["unary"] = result.errors.get("unary", 0) + 1
                    continue
                raise outcome.error
            ordered.extend((attr, candidate) for candidate in outcome.value)
        realized = self.generator.realize_batch(
            [candidate for _, candidate in ordered],
            agenda_view,
            frame_view,
            executor=self.executor,
        )
        for (attr, candidate), outcome in zip(ordered, realized):
            if self._install(candidate, outcome, ctx, node):
                ctx.unary_transformed.add(attr)

    def _run_binary_sampling(self, ctx: StageContext, node: StageNode) -> None:
        self._sampling_stage(ctx, node, OperatorFamily.BINARY)

    def _run_high_order(self, ctx: StageContext, node: StageNode) -> None:
        self._sampling_stage(ctx, node, OperatorFamily.HIGH_ORDER)

    def _run_extractor(self, ctx: StageContext, node: StageNode) -> None:
        self._sampling_stage(ctx, node, OperatorFamily.EXTRACTOR)

    def _run_binary_proposal(self, ctx: StageContext, node: StageNode) -> None:
        """§3.2 strategy ablation: one proposal call instead of sampling."""
        result = ctx.result
        k = ctx.granted_draws.get(node.name, self.sampling_budget)
        _, agenda_view = ctx.view(node)
        try:
            candidates = self.selector.binary_candidates_proposal(agenda_view, k=k)
        except FMBudgetExceededError:
            raise  # budget exhaustion ends the stage, not just one call
        except (FMError, FMParseError):
            result.errors["binary"] = result.errors.get("binary", 0) + 1
            return
        errors = 0
        try:
            for candidate in candidates:
                frame_view, agenda_view = ctx.view(node)  # sees own installs
                # Name dedupe runs against the *shared* agenda: it is merge
                # bookkeeping (the name came from the FM, nothing flows back
                # into a prompt), and checking the view instead would let a
                # collision with an out-of-view column slip through to a
                # realization call the serial plan never makes.
                if candidate.name in ctx.agenda:
                    errors += 1
                    continue
                if self._accept(candidate, frame_view, agenda_view, ctx, node):
                    ctx.used_by_other_ops.update(candidate.columns)
                else:
                    errors += 1
        finally:
            # Recorded even when a budget trip truncates the stage, so
            # error-rate reporting never mistakes a cut-off stage for a
            # clean one.
            result.errors["binary"] = errors

    def _sampling_stage(
        self, ctx: StageContext, node: StageNode, family: OperatorFamily
    ) -> None:
        """Sampling strategy as speculative waves.

        Each wave issues ``min(remaining budget, wave_size)`` draws from
        the stage's current view, then parses, deduplicates,
        batch-realizes, and validates the results in submission order.
        Once the error count crosses the threshold the stage stops — any
        later results of the in-flight wave are discarded
        (already-spent speculation).  With ``wave_size=1`` this is
        exactly the paper's serial loop.  The draw budget is
        ``sampling_budget`` unless the budget planner granted less.
        """
        result = ctx.result
        draw_budget = ctx.granted_draws.get(node.name, self.sampling_budget)
        errors = 0
        seen: set[str] = set()
        issued = 0
        try:
            while issued < draw_budget and errors < self.error_threshold:
                frame_view, agenda_view = ctx.view(node)  # grows with own installs
                wave = min(self.wave_size, draw_budget - issued)
                samples = self.selector.sample_batch(
                    family, agenda_view, wave, executor=self.executor
                )
                issued += wave
                # Parse/dedupe pass, truncated at the error threshold so the
                # realization batch never pays for candidates we won't keep.
                survivors: list[FeatureCandidate] = []
                for outcome in samples:
                    if errors >= self.error_threshold:
                        break
                    if not outcome.ok:
                        if isinstance(outcome.error, FMBudgetExceededError):
                            raise outcome.error  # budget exhaustion ends the stage
                        if isinstance(outcome.error, (FMError, FMParseError)):
                            errors += 1
                            continue
                        raise outcome.error
                    candidate = outcome.value
                    if candidate is None:
                        errors += 1
                        continue
                    # Name dedupe runs against the *shared* agenda (merge
                    # bookkeeping, not FM input): checking the view would
                    # let a collision with an out-of-view column through to
                    # a realization call the serial plan never makes.
                    if candidate.name in seen or candidate.name in ctx.agenda:
                        errors += 1  # repeated feature counts as a generation error
                        continue
                    seen.add(candidate.name)
                    survivors.append(candidate)
                realized = self.generator.realize_batch(
                    survivors,
                    agenda_view,
                    frame_view,
                    executor=self.executor,
                )
                for candidate, outcome in zip(survivors, realized):
                    if errors >= self.error_threshold:
                        break
                    if self._install(candidate, outcome, ctx, node):
                        ctx.used_by_other_ops.update(candidate.columns)
                    else:
                        errors += 1
        finally:
            # Recorded even when a budget trip truncates the stage mid-wave,
            # so error-rate reporting never mistakes a cut-off stage for a
            # clean one.
            result.errors[family.value] = errors

    # ------------------------------------------------------------------
    def _accept(
        self,
        candidate: FeatureCandidate,
        frame_view: DataFrame,
        agenda_view: DataAgenda,
        ctx: StageContext,
        node: StageNode,
    ) -> bool:
        """Realize, validate, and install one candidate; True on success."""
        try:
            realized = self.generator.realize(candidate, agenda_view, frame_view)
        except FMBudgetExceededError:
            raise  # budget exhaustion ends the stage, not one candidate
        except REALIZE_ERRORS as exc:
            realized = exc
        return self._install(candidate, realized, ctx, node)

    def _install(
        self,
        candidate: FeatureCandidate,
        realized: RealizedFeature | RowCompletionPlan | SourceSuggestion | Exception,
        ctx: StageContext,
        node: StageNode,
    ) -> bool:
        """Validate and install one realized candidate; True on success.

        Installation merges into the *shared* frame and agenda — stages
        run in canonical order, so install order is the deterministic
        merge order — and stamps each accepted column with the node's
        provenance tag, which is what later stages' views are cut by.

        Under physical stage fan-out several stages install concurrently
        (install order then follows completion order — real backends make
        no ordering promise).  The context lock guards only the *merge*:
        a half-merged feature must never be visible to a concurrent
        stage's view.  The O(rows) work — validation screens and the
        accepted columns' kind/values classification — runs before the
        lock, so overlapped stages do not serialize on each other's
        screening.  (The row count is stable for the whole run: stages
        only add or drop columns, so reading it up front is safe.)
        """
        working, agenda, result = ctx.working, ctx.agenda, ctx.result
        if isinstance(realized, Exception):
            with ctx.lock:
                result.rejections[candidate.name] = f"generation failed: {realized}"
            return False
        if isinstance(realized, SourceSuggestion):
            with ctx.lock:
                result.suggestions.append(realized)
            return False
        if isinstance(realized, RowCompletionPlan):
            with ctx.lock:
                result.row_plans.append(realized)
            return False
        assert isinstance(realized, RealizedFeature)
        with ctx.lock:
            n_rows = len(working)
        report = validate_output(
            _merge_columns(realized), n_rows, self.validation, candidate.name
        )
        classified: list[tuple[str, object, str, list[str]]] = []
        for column, series in report.accepted.items():
            kind, values = column_kind(series, report.profiles[column])
            classified.append((column, series, kind, values))
        with ctx.lock:
            for column, reason in report.rejected.items():
                result.rejections[column] = reason
            if not report.ok:
                return False
            accepted_columns: list[str] = []
            tag = self._write_tag(node)
            for column, series, kind, values in classified:
                if column in working.columns:
                    result.rejections[column] = "duplicate column name"
                    continue
                working[column] = series
                ctx.column_tags[column] = tag
                accepted_columns.append(column)
                agenda.add(column, kind, candidate.description, values=values)
            if not accepted_columns:
                return False
            feature = realized.feature
            feature.output_columns = accepted_columns
            result.new_features[feature.name] = feature
            return True

    # ------------------------------------------------------------------
    def _run_fm_removal(self, ctx: StageContext, node: StageNode) -> None:
        """FM-driven removal of redundant generated features (§3.2 future
        work, off by default).  Only generated columns may be removed —
        originals and the target are never eligible."""
        from repro.core import prompts as _prompts

        del node  # wildcard reader: always works on the shared state
        working, agenda, result = ctx.working, ctx.agenda, ctx.result
        generated_columns = set(result.new_columns)
        try:
            response = self.executor.complete(
                self.fm, _prompts.feature_removal_prompt(agenda), temperature=0.0
            )
            payload = parse_json_response(response.text)
        except FMBudgetExceededError:
            raise  # budget exhaustion ends the stage, not just the call
        except (FMError, FMParseError):
            result.errors["removal"] = result.errors.get("removal", 0) + 1
            return
        for name in payload.get("remove") or []:
            if name not in generated_columns or name not in working.columns:
                continue
            drop_inplace(working, name)
            agenda.remove(name)
            result.removed_by_fm.append(name)
            for feature in result.new_features.values():
                if name in feature.output_columns:
                    feature.output_columns.remove(name)
        # Features whose every output column was removed vanish entirely.
        result.new_features = {
            key: feature
            for key, feature in result.new_features.items()
            if feature.output_columns
        }

    # ------------------------------------------------------------------
    def _run_drop(self, ctx: StageContext, node: StageNode) -> None:
        """Remove originals superseded by a unary transform (Section 3.2)."""
        del node
        for attr in ctx.original_features:
            if attr in ctx.unary_transformed and attr not in ctx.used_by_other_ops:
                if attr in ctx.working.columns:
                    drop_inplace(ctx.working, attr)
                    ctx.result.dropped.append(attr)


def drop_inplace(frame: DataFrame, column: str) -> None:
    """Remove *column* from *frame* without copying the other columns."""
    frame.drop(column, errors="ignore", inplace=True)


def complete_row_plan(
    result: SmartFeatResult,
    plan: RowCompletionPlan,
    fm: FMClient,
    relevant_columns: list[str] | None = None,
    executor: FMExecutor | None = None,
) -> SmartFeatResult:
    """Execute a deferred row-level completion plan (the user said yes).

    Section 3.3 defers row-level completion of large tables to the user,
    who weighs the preview against the projected cost.  This helper runs
    the full completion over ``result.frame`` with *fm* — batched through
    *executor* when given — and installs the finished column; the plan is
    removed from ``result.row_plans``.

    The relevant columns come from, in order: the *relevant_columns*
    override, the plan's own ``relevant_columns`` metadata, the preview
    records (plans recorded before the metadata existed), and finally the
    whole frame.
    """
    from repro.core import prompts as _prompts

    if plan not in result.row_plans:
        raise ValueError(f"plan {plan.name!r} is not pending on this result")
    columns = list(relevant_columns) if relevant_columns else list(plan.relevant_columns)
    if not columns and plan.preview:
        preview_record = plan.preview[0][0]
        columns = [c for c in result.frame.columns if c in preview_record]
    if not columns:
        columns = result.frame.columns
    names, rows = result.frame.row_tuples(columns)
    requests = [
        FMRequest(
            _prompts.row_completion_prompt(plan.name, dict(zip(names, vals))), 0.0
        )
        for vals in rows
    ]
    responses = fm.complete_batch(requests, executor)
    values = [parse_scalar(r.unwrap().text) for r in responses]
    from repro.dataframe import Series

    result.frame[plan.name] = Series(values, plan.name)
    feature = result.new_features[plan.name] = GeneratedFeature(
        name=plan.name,
        family=OperatorFamily.EXTRACTOR,
        input_columns=list(columns),
        description=plan.description,
        output_columns=[plan.name],
        source_code=ROW_LEVEL_SOURCE,
        fm_calls=len(values),
    )
    freeze_completion(feature, result.frame, result.frame[plan.name])
    result.row_plans.remove(plan)
    return result


def _merge_columns(realized: RealizedFeature) -> DataFrame:
    """Collect a realized feature's output columns into one frame, each
    named after its key (copy-on-write: no column is copied)."""
    return DataFrame(realized.values)
