"""The stage-graph scheduler: §3.2's stage chain as a dependency DAG.

SMARTFEAT's search (Section 3.2) was written here, as in the paper, as a
hard-coded sequence: unary → binary → high-order → extractor → drop →
fm-removal.  But the sequence is really a *dependency graph* over column
provenance: the binary stage must wait for the unary stage only because
it **reads** unary-produced columns; the high-order and extractor stages
read nothing the binary stage writes, so nothing in the search's
semantics forces them to queue behind it.  This module makes that
structure explicit:

:class:`StageNode`
    One search stage with declared ``reads``/``writes`` — sets of column
    *provenance tags* (``"originals"``, ``"unary"``, … or the wildcard
    ``"*"``).  The tags name where a column came from, so a node's
    declaration is stable across datasets.
:class:`StageGraph`
    Declaration-ordered node list plus the hazard edges derived from the
    declarations (read-after-write, write-after-write, and
    write-after-read conflicts — exactly a compiler's data-dependence
    test, applied to feature-search stages).
:class:`StageScheduler`
    Executes a graph and reports the schedule.

Determinism contract (the PR 1/2 equivalence discipline, one level up)
----------------------------------------------------------------------
Stage *dispatch* always follows the canonical declaration order — the
paper's chain — because the seeded simulator keys sampling entropy on
each client's call counter, so reordering calls across stages would
change the draws and make runs irreproducible.  What the ``plan``
changes is

* which columns each stage **sees** (``plan="overlap"`` hands every
  stage a view restricted to its declared reads plus its own writes;
  ``plan="serial"`` reproduces the chain's everything-so-far views), and
* the **modelled timeline**: serial lays the stages end to end, overlap
  starts each node at the latest finish of its hazard dependencies (the
  classic DAG makespan, each node internally bounded by the executor's
  concurrency).

A seeded serial run and an overlapped run are therefore
result-identical whenever the declared reads really cover everything the
FM's answers depend on — which is precisely what the equivalence suite
verifies.  Against a stateless production FM client the same graph
admits physical stage fan-out through the shared executor; the modelled
overlap makespan reported here is the wall-clock such a deployment
would see.

Budget-aware planning
---------------------
With ``plan_budget=True`` the scheduler consults the shared
:class:`~repro.fm.base.Budget`'s remaining headroom before dispatching
each node and *right-sizes* the work to fit instead of letting the node
trip the meter mid-flight: sampling stages get their draw budgets shrunk
(which shrinks their waves), optional nodes (fm-removal) are dropped,
and a node that still overruns the estimate is truncated at the meter
and recorded as such — ``fit_transform`` completes instead of raising
:class:`~repro.fm.errors.FMBudgetExceededError`.  Every decision lands
in ``result.fm_usage["execution"]["schedule"]``.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.fm.errors import FMBudgetExceededError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fm.base import Budget, FMClient
    from repro.fm.executor import FMExecutor

__all__ = [
    "NodeRecord",
    "StageGraph",
    "StageNode",
    "StageScheduler",
    "StageSchedule",
    "WILDCARD",
]

#: Provenance tag matched by every other tag in hazard tests.
WILDCARD = "*"

#: Fallback per-call estimates for the budget planner, used before any
#: call has been recorded (afterwards the ledger's own averages apply).
#: They mirror a typical selector call under the simulated cost model.
_DEFAULT_CALL_COST_USD = 0.05
_DEFAULT_CALL_LATENCY_S = 3.0


@dataclass(frozen=True)
class StageNode:
    """One search stage and its declared data dependencies.

    ``reads``/``writes`` are column provenance tags.  ``runner`` executes
    the stage against a context object (the pipeline's ``StageContext``)
    and the node itself (so the stage can build its view and tag its
    outputs).  ``fm`` marks nodes that issue FM calls (the budget planner
    ignores pure data-plane nodes); ``optional`` nodes may be dropped by
    the planner; ``shrinkable`` nodes accept a reduced draw budget via
    ``ctx.granted_draws[name]``.  ``planned_draws``/``calls_per_draw``
    feed the planner's spend estimate.
    """

    name: str
    runner: Callable[[Any, "StageNode"], None]
    reads: frozenset[str]
    writes: frozenset[str]
    fm: bool = True
    optional: bool = False
    shrinkable: bool = False
    planned_draws: int = 0
    calls_per_draw: float = 1.0

    @property
    def planned_calls(self) -> int:
        return math.ceil(self.planned_draws * self.calls_per_draw)


def _overlaps(a: frozenset[str], b: frozenset[str]) -> bool:
    if not a or not b:
        return False
    if WILDCARD in a or WILDCARD in b:
        return True
    return bool(a & b)


class StageGraph:
    """Declaration-ordered stage nodes plus derived hazard edges.

    Declaration order is the canonical (serial) execution order, so the
    derived edges always point backwards — the graph is acyclic by
    construction.  :meth:`dependencies` returns, per node, the earlier
    nodes it conflicts with: a read-after-write, write-after-write, or
    write-after-read overlap on the declared tag sets.
    """

    def __init__(self, nodes: Iterable[StageNode] = ()) -> None:
        self.nodes: list[StageNode] = []
        self._by_name: dict[str, StageNode] = {}
        for node in nodes:
            self.add(node)

    def add(self, node: StageNode) -> StageNode:
        if node.name in self._by_name:
            raise ValueError(f"duplicate stage node {node.name!r}")
        self.nodes.append(node)
        self._by_name[node.name] = node
        return node

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> StageNode:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self.nodes)

    @staticmethod
    def conflicts(earlier: StageNode, later: StageNode) -> bool:
        """True when *later* must wait for *earlier* (any data hazard)."""
        return (
            _overlaps(earlier.writes, later.reads)  # read-after-write
            or _overlaps(earlier.writes, later.writes)  # write-after-write
            or _overlaps(earlier.reads, later.writes)  # write-after-read
        )

    def dependencies(self) -> dict[str, tuple[str, ...]]:
        """Per node, the earlier nodes it conflicts with (direct edges)."""
        deps: dict[str, tuple[str, ...]] = {}
        for i, later in enumerate(self.nodes):
            deps[later.name] = tuple(
                earlier.name
                for earlier in self.nodes[:i]
                if self.conflicts(earlier, later)
            )
        return deps


@dataclass
class NodeRecord:
    """One scheduled node's outcome and accounting.

    ``status`` is ``"ran"`` (full size), ``"shrunk"`` (ran at a reduced
    draw budget), ``"truncated"`` (hit the budget meter mid-stage; its
    partial results stand), ``"skipped"`` (never dispatched), or
    ``"restored"`` (completed by an earlier, checkpointed run — its
    outputs were rehydrated, so this run never dispatched it).
    ``critical_path_s`` is the node's modelled FM wall-clock at the
    executor's concurrency; ``dataplane_s`` its measured dataframe time.
    ``start_s``/``end_s`` place the node on the modelled overlap
    timeline.
    """

    name: str
    status: str = "ran"
    reason: str = ""
    depends_on: tuple[str, ...] = ()
    planned_draws: int = 0
    granted_draws: int | None = None
    fm_calls: int = 0
    cache_hits: int = 0
    cost_usd: float = 0.0
    summed_latency_s: float = 0.0
    critical_path_s: float = 0.0
    dataplane_s: float = 0.0
    start_s: float = 0.0
    end_s: float = 0.0
    #: Real (measured) wall-clock span of the stage, as offsets from the
    #: start of the scheduler's ``execute()``.  Distinct from the
    #: modelled start_s/end_s; when stages physically overlap (real FM
    #: backends), the measured windows are where that shows up.
    measured_window: tuple[float, float] | None = None

    @property
    def duration_s(self) -> float:
        """Modelled node duration: FM critical path plus data-plane time."""
        return self.critical_path_s + self.dataplane_s

    @property
    def degraded(self) -> bool:
        return self.status in ("shrunk", "skipped", "truncated")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "depends_on": list(self.depends_on),
            "planned_draws": self.planned_draws,
            "granted_draws": self.granted_draws,
            "fm_calls": self.fm_calls,
            "cache_hits": self.cache_hits,
            "cost_usd": round(self.cost_usd, 6),
            "summed_latency_s": round(self.summed_latency_s, 3),
            "critical_path_s": round(self.critical_path_s, 3),
            "dataplane_s": round(self.dataplane_s, 6),
            "start_s": round(self.start_s, 3),
            "end_s": round(self.end_s, 3),
            "measured_window_s": (
                list(self.measured_window) if self.measured_window else None
            ),
        }


@dataclass
class StageSchedule:
    """A finished schedule: per-node records plus the two makespans.

    ``physical`` marks a run whose independent stages really executed
    concurrently (stateless clients through a shared concurrent
    executor) — there the *measured* per-node windows, not just the
    modelled timeline, show the overlap.
    """

    plan: str
    plan_budget: bool
    physical: bool = False
    records: list[NodeRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Lay the executed nodes on the serial and overlap timelines."""
        ends: dict[str, float] = {}
        cursor = 0.0
        for record in self.records:
            if record.status in ("skipped", "restored"):
                record.start_s = record.end_s = max(
                    (ends.get(dep, 0.0) for dep in record.depends_on), default=0.0
                )
                continue
            record.start_s = max(
                (ends.get(dep, 0.0) for dep in record.depends_on), default=0.0
            )
            record.end_s = record.start_s + record.duration_s
            ends[record.name] = record.end_s
            cursor += record.duration_s
        self._makespan_serial = cursor
        self._makespan_overlap = max(ends.values(), default=0.0)

    @property
    def makespan_serial_s(self) -> float:
        """Modelled duration with the stages laid end to end."""
        return self._makespan_serial

    @property
    def makespan_overlap_s(self) -> float:
        """Modelled DAG makespan with independent stages overlapped."""
        return self._makespan_overlap

    @property
    def overlap_speedup(self) -> float:
        if self._makespan_overlap <= 0:
            return 1.0
        return self._makespan_serial / self._makespan_overlap

    def critical_path(self) -> list[str]:
        """Node names on the overlap timeline's longest chain."""
        by_name = {
            r.name: r
            for r in self.records
            if r.status not in ("skipped", "restored")
        }
        if not by_name:
            return []
        tail = max(by_name.values(), key=lambda r: r.end_s)
        path = [tail.name]
        while True:
            gating = [
                by_name[dep]
                for dep in by_name[path[-1]].depends_on
                if dep in by_name and abs(by_name[dep].end_s - by_name[path[-1]].start_s) < 1e-9
            ]
            if not gating:
                break
            path.append(max(gating, key=lambda r: r.end_s).name)
        path.reverse()
        return path

    def degraded_nodes(self) -> list[str]:
        return [r.name for r in self.records if r.degraded]

    @property
    def measured_makespan_s(self) -> float:
        """Real wall-clock span of the executed stages (first start to
        last end of the measured per-node windows; 0.0 when unmeasured).
        Under physical overlap this is shorter than the sum of the
        windows — the proof the fan-out actually happened."""
        windows = [r.measured_window for r in self.records if r.measured_window]
        if not windows:
            return 0.0
        return max(end for _, end in windows) - min(start for start, _ in windows)

    def report(self) -> dict:
        """The ``execution["schedule"]`` payload."""
        return {
            "plan": self.plan,
            "plan_budget": self.plan_budget,
            "physical_overlap": self.physical,
            "dispatch_order": [
                r.name
                for r in self.records
                if r.status not in ("skipped", "restored")
            ],
            "nodes": [r.as_dict() for r in self.records],
            "makespan_serial_s": round(self._makespan_serial, 3),
            "makespan_overlap_s": round(self._makespan_overlap, 3),
            "overlap_speedup": round(self.overlap_speedup, 3),
            "measured_makespan_s": round(self.measured_makespan_s, 6),
            "critical_path": self.critical_path(),
            "degraded": self.degraded_nodes(),
        }


class StageScheduler:
    """Dispatches a :class:`StageGraph` and assembles the schedule.

    By default nodes run in declaration order on the calling thread.
    Every FM batch a node issues is tagged with the node's name through
    the executor's :meth:`~repro.fm.executor.FMExecutor.stage` scope, and
    the node's spend is summed from those
    :class:`~repro.fm.executor.BatchRecord` entries.  With
    ``plan_budget=True`` the dispatcher consults the budget's headroom
    first (see the module docstring for the policy) and absorbs mid-node
    :class:`~repro.fm.errors.FMBudgetExceededError` into a
    ``"truncated"`` record instead of re-raising.

    **Physical overlap.**  When the plan is ``"overlap"``, the executor's
    concurrency is above 1, and every client reports
    :meth:`~repro.fm.base.FMClient.is_stateless` (e.g. a
    transport-backed HTTP client, whose entropy lives server-side), the
    canonical dispatch order protects nothing — no counter, no cursor —
    so the same dispatch loop starts each node on its own thread as soon
    as its hazard dependencies finish.  All stages share the one executor
    (whose in-flight bound spans them), so the overlap the sequential
    dispatch only *models* becomes measured wall-clock.  Stage-tagged
    batch records keep per-node spend exact when several stages charge
    one ledger at once.  ``plan="serial"`` keeps dispatch sequential.
    """

    def __init__(
        self,
        executor: "FMExecutor",
        clients: tuple["FMClient", ...],
        plan: str = "serial",
        budget: "Budget | None" = None,
        plan_budget: bool = False,
        completed: Iterable[str] = (),
        on_node_complete: Callable[[StageNode], None] | None = None,
    ) -> None:
        if plan not in ("serial", "overlap"):
            raise ValueError(f"invalid stage plan: {plan!r}")
        self.executor = executor
        # Deduplicate while preserving order (fm may be function_fm too).
        seen: "dict[int, FMClient]" = {}
        for client in clients:
            seen.setdefault(id(client), client)
        self.clients = tuple(seen.values())
        self.plan = plan
        self.budget = budget
        self.plan_budget = plan_budget and budget is not None
        #: Node names a checkpointed earlier run already completed: they
        #: are marked ``"restored"`` and never dispatched (their outputs
        #: arrived with the restored context, their spend with the
        #: restored ledgers — re-running would re-spend).
        self.completed = frozenset(completed)
        #: Called after each node this run finishes (any terminal state —
        #: ran/shrunk/truncated/skipped, never a raised failure), on the
        #: thread that completed the node.  The pipeline's checkpoint
        #: writer hangs off this.
        self.on_node_complete = on_node_complete

    def _node_done(self, node: StageNode) -> None:
        if self.on_node_complete is not None:
            self.on_node_complete(node)

    def _physical_overlap(self) -> bool:
        """Whether this run may fan independent stages out for real."""
        if self.plan != "overlap" or self.executor.concurrency <= 1:
            return False
        return all(
            getattr(client, "is_stateless", lambda: False)()
            for client in self.clients
        )

    # ------------------------------------------------------------------
    def execute(self, graph: StageGraph, ctx) -> StageSchedule:
        """Run every node and return the finalized schedule.

        *ctx* is the pipeline's stage context; the scheduler touches only
        its ``granted_draws``, ``restrict_views``, and ``physical``
        fields — the view/physical flags are derived here from the plan
        and client statefulness (single source of truth), so a context
        can never carry chain views under an ``overlap`` label or vice
        versa.  The node runners own the rest.

        One loop dispatches every node whose hazard dependencies are
        done, in declaration order: inline on the calling thread, or on
        a thread of its own under physical overlap.  Budget planning
        (:meth:`_plan_node`) runs on the dispatching thread right before
        a node starts.  A node failure stops further dispatch, lets
        in-flight nodes drain, and re-raises the earliest failure in
        declaration order.

        The scheduler is the fit path's clock: each node's measured
        window is its runner's span as offsets from this call's start.
        """
        origin = time.perf_counter()
        ctx.restrict_views = self.plan == "overlap"
        physical = self._physical_overlap()
        ctx.physical = physical
        schedule = StageSchedule(
            plan=self.plan, plan_budget=self.plan_budget, physical=physical
        )
        deps = graph.dependencies()
        records: dict[str, NodeRecord] = {}
        for node in graph.nodes:
            record = NodeRecord(
                name=node.name,
                depends_on=deps[node.name],
                planned_draws=node.planned_draws,
            )
            if node.name in self.completed:
                record.status = "restored"
                record.reason = "completed by a checkpointed earlier run"
            schedule.records.append(record)
            records[node.name] = record
        done = set(self.completed & set(records))
        launched = set(done)
        failures: dict[str, BaseException] = {}
        threads: list[threading.Thread] = []
        # Re-entrant: a node run inline finishes under the dispatch lock.
        cond = threading.Condition(threading.RLock())

        def run_node(node: StageNode, record: NodeRecord) -> None:
            error = self._run_node(node, record, ctx, origin)
            if error is None:
                self._node_done(node)
            with cond:
                done.add(node.name)
                if error is not None:
                    failures[node.name] = error
                cond.notify_all()

        with cond:
            while True:
                for node in graph.nodes:
                    if failures:
                        break
                    if node.name in launched or any(
                        dep not in done for dep in deps[node.name]
                    ):
                        continue
                    launched.add(node.name)
                    if not self._plan_node(node, records[node.name], ctx):
                        done.add(node.name)
                        self._node_done(node)
                    elif physical:
                        thread = threading.Thread(
                            target=run_node,
                            args=(node, records[node.name]),
                            name=f"stage-{node.name}",
                            daemon=True,
                        )
                        threads.append(thread)
                        thread.start()
                    else:
                        run_node(node, records[node.name])
                if launched <= done and (failures or len(done) == len(graph.nodes)):
                    break
                cond.wait()
        for thread in threads:
            thread.join()
        for node in graph.nodes:  # never-dispatched nodes stay visible
            if node.name not in launched:
                records[node.name].status = "skipped"
                records[node.name].reason = "not dispatched: an earlier stage failed"
        schedule.finalize()
        for node in graph.nodes:  # earliest failure in declaration order
            if node.name in failures:
                raise failures[node.name]
        return schedule

    def _run_node(
        self, node: StageNode, record: NodeRecord, ctx, origin: float
    ) -> BaseException | None:
        """Run one node and account it; returns the failure it raised.

        A mid-node budget trip under ``plan_budget`` is no failure: the
        node is recorded as ``"truncated"`` and its partial results
        stand.

        Spend comes from the executor's batch log, filtered by the
        node's stage tag (thread-local, set by the ``stage()`` scope
        here): ledger deltas would cross-count stages that charge one
        ledger concurrently, and the tag also keeps out batches of any
        other run sharing the executor.
        """
        batches_before = len(self.executor.batch_log)
        error: BaseException | None = None
        start = time.perf_counter()
        try:
            with self.executor.stage(node.name):
                node.runner(ctx, node)
        except FMBudgetExceededError as exc:
            if self.plan_budget:
                record.status = "truncated"
                record.reason = f"budget meter tripped mid-stage: {exc.args[0]}"
            else:
                error = exc
        except BaseException as exc:  # noqa: BLE001 - re-raised by execute()
            error = exc
        end = time.perf_counter()
        batches = [
            batch
            for batch in self.executor.batch_log[batches_before:]
            if batch.stage == node.name
        ]
        record.fm_calls = sum(batch.n_calls for batch in batches)
        record.cache_hits = sum(batch.n_cached for batch in batches)
        record.cost_usd = sum(batch.cost_usd for batch in batches)
        record.summed_latency_s = sum(batch.summed_latency_s for batch in batches)
        record.critical_path_s = sum(batch.critical_path_s for batch in batches)
        # Data-plane time is the stage's wall clock minus the time it sat
        # inside executor.run — otherwise a backend with real latency
        # (HTTP) would be double-counted against the modelled critical
        # path in duration_s.  Near-zero for simulated clients.
        blocked = sum(batch.wall_s for batch in batches)
        # Round the window first and clamp to its rounded length, so the
        # reported data-plane time never exceeds the reported window.
        window = (round(start - origin, 6), round(end - origin, 6))
        record.measured_window = window
        record.dataplane_s = min(max(0.0, end - start - blocked), window[1] - window[0])
        return error

    # ------------------------------------------------------------------
    # Budget-aware planning
    # ------------------------------------------------------------------
    def _plan_node(self, node: StageNode, record: NodeRecord, ctx) -> bool:
        """Decide whether/how large to dispatch *node*; False = skip."""
        if not self.plan_budget or not node.fm:
            return True
        assert self.budget is not None
        affordable = self._affordable_calls()
        if affordable <= 0:
            record.status = "skipped"
            record.reason = "budget exhausted before dispatch"
            return False
        if node.planned_calls <= affordable:
            return True
        if node.shrinkable and node.planned_draws > 0:
            granted = int(affordable / node.calls_per_draw)
            if granted >= 1:
                ctx.granted_draws[node.name] = granted
                record.status = "shrunk"
                record.granted_draws = granted
                record.reason = (
                    f"draw budget right-sized from {node.planned_draws} to "
                    f"{granted} to fit remaining FM budget"
                )
                return True
            record.status = "skipped"
            record.reason = "remaining FM budget affords no sampling draw"
            return False
        if node.optional:
            record.status = "skipped"
            record.reason = "optional stage dropped to preserve FM budget"
            return False
        # Mandatory, unshrinkable, and over the estimate: dispatch anyway;
        # the meter may truncate it, which execute() absorbs and records.
        record.reason = (
            f"estimated {node.planned_calls} calls exceed affordable "
            f"{affordable}; dispatched tight"
        )
        return True

    def _affordable_calls(self) -> int:
        """How many more FM calls the budget's headroom can pay for.

        The calls axis is exact; the cost and latency axes divide the
        headroom by the run's average per-call spend so far (a fixed
        prior before the first call).  Deterministic for seeded runs —
        every input is the meter's exact spend (not its rounded report
        snapshot), never wall-clock.
        """
        budget = self.budget
        assert budget is not None
        headroom = budget.headroom()
        spent_calls = budget.spent_calls
        avg_cost = (
            budget.spent_cost_usd / spent_calls
            if spent_calls
            else _DEFAULT_CALL_COST_USD
        )
        avg_latency = (
            budget.spent_latency_s / spent_calls
            if spent_calls
            else _DEFAULT_CALL_LATENCY_S
        )
        limits: list[float] = []
        if headroom["calls"] is not None:
            limits.append(headroom["calls"])
        if headroom["cost_usd"] is not None:
            limits.append(headroom["cost_usd"] / max(avg_cost, 1e-9))
        if headroom["latency_s"] is not None:
            limits.append(headroom["latency_s"] / max(avg_latency, 1e-9))
        if not limits:
            return 1 << 30
        return int(min(limits))
