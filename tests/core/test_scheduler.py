"""Unit coverage for the stage-graph scheduler layer.

Graph hazard derivation, pipeline graph shape, schedule reporting,
per-stage view restriction, budget-aware planning decisions, and the
scheduler-owned node clock (measured windows and data-plane seconds),
and the supporting pieces (Budget.headroom, Series grouping cache,
executor batch attribution).
"""

import numpy as np
import pytest

from repro.core import SmartFeat
from repro.core.scheduler import StageGraph, StageNode, WILDCARD
from repro.core.types import OperatorFamily
from repro.dataframe import DataFrame, Series
from repro.eval import render_schedule
from repro.fm import (
    Budget,
    FMBudgetExceededError,
    FMExecutor,
    SimulatedFM,
)


def _noop(ctx, node):
    del ctx, node


def _node(name, reads, writes, **kw):
    return StageNode(
        name=name,
        runner=_noop,
        reads=frozenset(reads),
        writes=frozenset(writes),
        **kw,
    )


def small_frame() -> DataFrame:
    return DataFrame(
        {
            "Age": [21, 35, 42, 22, 45, 56, 30, 28] * 6,
            "Income": [10.0, 25.0, 18.5, 40.0, 31.0, 22.0, 15.5, 60.0] * 6,
            "City": ["SF", "LA", "SEA", "SF", "SEA", "LA", "SF", "LA"] * 6,
            "Target": [0, 1, 1, 0, 1, 1, 0, 1] * 6,
        }
    )


DESCRIPTIONS = {
    "Age": "Age of the customer in years",
    "Income": "Annual income in thousands of dollars",
    "City": "City of residence",
}


def run_smartfeat(**kwargs):
    fm = SimulatedFM(seed=0, model="gpt-4")
    function_fm = SimulatedFM(seed=1, model="gpt-3.5-turbo")
    tool = SmartFeat(fm=fm, function_fm=function_fm, **kwargs)
    result = tool.fit_transform(
        small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
    )
    return result, fm, function_fm, tool


# ----------------------------------------------------------------------
# StageGraph hazard derivation
# ----------------------------------------------------------------------
class TestStageGraph:
    def test_read_after_write_is_an_edge(self):
        graph = StageGraph(
            [_node("a", {"originals"}, {"unary"}), _node("b", {"unary"}, {"binary"})]
        )
        assert graph.dependencies() == {"a": (), "b": ("a",)}

    def test_disjoint_stages_are_independent(self):
        graph = StageGraph(
            [
                _node("a", {"originals"}, {"unary"}),
                _node("b", {"originals", "unary"}, {"binary"}),
                _node("c", {"originals", "unary"}, {"high_order"}),
            ]
        )
        deps = graph.dependencies()
        assert deps["b"] == ("a",)
        assert deps["c"] == ("a",)  # no edge to b: reads/writes disjoint

    def test_write_after_write_is_an_edge(self):
        graph = StageGraph(
            [_node("a", set(), {"x"}), _node("b", set(), {"x"})]
        )
        assert graph.dependencies()["b"] == ("a",)

    def test_write_after_read_is_an_edge(self):
        graph = StageGraph(
            [_node("a", {"x"}, {"y"}), _node("b", set(), {"x"})]
        )
        assert graph.dependencies()["b"] == ("a",)

    def test_wildcard_conflicts_with_everything(self):
        graph = StageGraph(
            [
                _node("a", {"originals"}, {"unary"}),
                _node("z", {WILDCARD}, {"originals"}),
            ]
        )
        assert graph.dependencies()["z"] == ("a",)

    def test_duplicate_node_name_rejected(self):
        graph = StageGraph([_node("a", set(), {"x"})])
        with pytest.raises(ValueError, match="duplicate"):
            graph.add(_node("a", set(), {"y"}))


# ----------------------------------------------------------------------
# Pipeline graph shape
# ----------------------------------------------------------------------
class TestPipelineGraph:
    def _graph(self, **kwargs):
        tool = SmartFeat(fm=SimulatedFM(seed=0), **kwargs)
        ctx = type("Ctx", (), {"original_features": ["a", "b", "c"]})()
        return tool.build_stage_graph(ctx)

    def test_default_graph_nodes_and_edges(self):
        graph = self._graph()
        assert [n.name for n in graph.nodes] == [
            "unary",
            "binary",
            "high_order",
            "extractor",
            "drop",
        ]
        deps = graph.dependencies()
        assert deps["binary"] == ("unary",)
        assert deps["high_order"] == ("unary",)  # independent of binary
        assert deps["extractor"] == ("unary",)
        assert set(deps["drop"]) == {"unary", "binary", "high_order", "extractor"}

    def test_fm_removal_is_optional_and_last(self):
        graph = self._graph(fm_feature_removal=True)
        assert graph.nodes[-1].name == "fm_removal"
        assert graph.nodes[-1].optional
        assert "drop" in graph.dependencies()["fm_removal"]

    def test_family_subsets_shrink_the_graph(self):
        graph = self._graph(
            operator_families=(OperatorFamily.BINARY,), drop_heuristic=False
        )
        assert [n.name for n in graph.nodes] == ["binary"]
        assert graph.dependencies()["binary"] == ()

    def test_sampling_nodes_are_shrinkable(self):
        graph = self._graph()
        assert not graph["unary"].shrinkable
        assert all(graph[n].shrinkable for n in ("binary", "high_order", "extractor"))


# ----------------------------------------------------------------------
# Schedule report
# ----------------------------------------------------------------------
class TestScheduleReport:
    def test_report_shape_and_timeline(self):
        result, *_ = run_smartfeat(stage_plan="overlap")
        schedule = result.fm_usage["execution"]["schedule"]
        assert schedule["plan"] == "overlap"
        assert schedule["dispatch_order"] == [
            "unary",
            "binary",
            "high_order",
            "extractor",
            "drop",
        ]
        names = [n["name"] for n in schedule["nodes"]]
        assert names == schedule["dispatch_order"]
        assert schedule["makespan_overlap_s"] <= schedule["makespan_serial_s"]
        assert schedule["overlap_speedup"] >= 1.0
        assert schedule["critical_path"][0] == "unary"
        for node in schedule["nodes"]:
            assert node["end_s"] >= node["start_s"]
            if node["name"] != "unary" and node["name"] != "drop":
                # post-unary stages all start when unary ends
                assert node["depends_on"] == ["unary"]

    def test_serial_plan_reports_chain_semantics(self):
        result, *_ = run_smartfeat(stage_plan="serial")
        schedule = result.fm_usage["execution"]["schedule"]
        assert schedule["plan"] == "serial"
        # Same graph, same hazard edges: the report still shows the DAG
        # (and what overlap would save) even when views were serial.
        assert schedule["makespan_overlap_s"] <= schedule["makespan_serial_s"]

    def test_per_node_attribution_sums_to_ledger(self):
        result, fm, function_fm, _ = run_smartfeat()
        schedule = result.fm_usage["execution"]["schedule"]
        per_node = sum(n["fm_calls"] for n in schedule["nodes"])
        assert per_node == fm.ledger.n_calls + function_fm.ledger.n_calls

    def test_render_schedule_smoke(self):
        result, *_ = run_smartfeat(stage_plan="overlap")
        text = render_schedule(result.fm_usage["execution"]["schedule"])
        assert "dispatch: unary -> binary -> high_order -> extractor -> drop" in text
        assert "critical path:" in text


# ----------------------------------------------------------------------
# View restriction under the overlap plan
# ----------------------------------------------------------------------
class TestOverlapViews:
    def _high_order_prompts(self, plan):
        fm = SimulatedFM(seed=0, model="gpt-4")
        fm.ledger.keep_history = True
        tool = SmartFeat(
            fm=fm,
            function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
            stage_plan=plan,
        )
        result = tool.fit_transform(
            small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
        )
        binary_features = [
            name
            for name, feature in result.new_features.items()
            if feature.family == OperatorFamily.BINARY
        ]
        prompts = [
            prompt
            for prompt, _ in fm.ledger.history
            if "Generate a groupby feature" in prompt
        ]
        return binary_features, prompts

    def test_high_order_view_excludes_binary_columns(self):
        binary_serial, serial_prompts = self._high_order_prompts("serial")
        binary_overlap, overlap_prompts = self._high_order_prompts("overlap")
        assert binary_serial and binary_serial == binary_overlap
        feature = binary_serial[0]
        # The chain's high-order prompts mention the binary feature; the
        # overlap plan's declared-reads view cuts it out.
        assert any(feature in p for p in serial_prompts)
        assert not any(feature in p for p in overlap_prompts)

    def test_serial_plan_views_are_shared_objects(self):
        # plan="serial" must hand stages the shared frame/agenda (the
        # legacy chain), not rebuilt views.
        tool = SmartFeat(fm=SimulatedFM(seed=0), stage_plan="serial")
        result = tool.fit_transform(small_frame(), target="Target")
        assert result.frame is not None  # ran through the graph end to end

    def test_invalid_stage_plan_rejected(self):
        with pytest.raises(ValueError, match="stage_plan"):
            SmartFeat(fm=SimulatedFM(seed=0), stage_plan="zigzag")


# ----------------------------------------------------------------------
# Budget-aware planning
# ----------------------------------------------------------------------
class TestBudgetPlanning:
    def test_without_planning_budget_error_propagates(self):
        with pytest.raises(FMBudgetExceededError):
            run_smartfeat(budget=Budget(max_calls=5))

    def test_planned_run_completes_and_records_decisions(self):
        result, fm, function_fm, tool = run_smartfeat(
            budget=Budget(max_calls=12), plan_budget=True, fm_feature_removal=True
        )
        schedule = result.fm_usage["execution"]["schedule"]
        assert schedule["plan_budget"] is True
        statuses = {n["name"]: n["status"] for n in schedule["nodes"]}
        assert statuses["fm_removal"] == "skipped"  # optional drops first
        assert schedule["degraded"]
        # drop heuristic is data-plane only: never budget-gated.
        assert statuses["drop"] == "ran"

    def test_shrunk_node_records_granted_draws(self):
        # Generous enough for unary, tight enough to shrink binary.
        result, *_ = run_smartfeat(budget=Budget(max_calls=16), plan_budget=True)
        nodes = {n["name"]: n for n in result.fm_usage["execution"]["schedule"]["nodes"]}
        shrunk = [n for n in nodes.values() if n["status"] == "shrunk"]
        assert shrunk
        for node in shrunk:
            assert 1 <= node["granted_draws"] < node["planned_draws"]

    def test_skipped_nodes_make_no_calls(self):
        result, *_ = run_smartfeat(budget=Budget(max_calls=8), plan_budget=True)
        for node in result.fm_usage["execution"]["schedule"]["nodes"]:
            if node["status"] == "skipped":
                assert node["fm_calls"] == 0

    def test_spend_overshoot_bounded_by_one_batch(self):
        budget = Budget(max_calls=6)
        result, fm, function_fm, _ = run_smartfeat(budget=budget, plan_budget=True)
        # Batch-granular enforcement (the PR 2 contract): the overshoot
        # is at most the in-flight batch, here the unary proposal batch.
        assert budget.spent_calls <= 6 + len(DESCRIPTIONS)

    def test_truncated_sampling_stage_still_records_errors(self):
        # Long function-generation completions make actual per-call
        # latency far exceed the planner's estimate, so the stage is
        # dispatched and then truncated by the meter mid-wave — its
        # error count must still land in result.errors.
        import json

        from repro.fm import ScriptedFM

        def candidate(i):
            return json.dumps(
                {
                    "operator": "-",
                    "columns": ["Age", "Income"],
                    "name": f"gap_{i}",
                    "description": f"binary[-]: gap variant {i}",
                }
            )

        padding = "\n".join(f"# padding line {i}" for i in range(120))
        code = (
            f"```python\n{padding}\ndef transform(df):\n"
            "    return df['Age'] - df['Income']\n```"
        )
        fm = ScriptedFM([candidate(i) for i in range(20)])
        function_fm = ScriptedFM(lambda prompt: code)
        tool = SmartFeat(
            fm=fm,
            function_fm=function_fm,
            budget=Budget(max_latency_s=20.0),
            plan_budget=True,
            operator_families=(OperatorFamily.BINARY,),
            drop_heuristic=False,
        )
        result = tool.fit_transform(small_frame(), target="Target")
        statuses = {
            n["name"]: n["status"]
            for n in result.fm_usage["execution"]["schedule"]["nodes"]
        }
        assert statuses["binary"] == "truncated"
        assert "binary" in result.errors

    def test_headroom_axes(self):
        budget = Budget(max_calls=10, max_cost_usd=1.0)
        budget.charge(cost_usd=0.25)
        head = budget.headroom()
        assert head["calls"] == 9
        assert head["cost_usd"] == pytest.approx(0.75)
        assert head["latency_s"] is None


# ----------------------------------------------------------------------
# Supporting pieces
# ----------------------------------------------------------------------
class TestSeriesGroupingCache:
    def test_grouping_is_cached(self):
        s = Series(["x", "y", "x", "z"] * 10, "key")
        first = s.grouping()
        assert first is s.grouping()
        order, starts, inverse = first
        assert not order.flags.writeable  # shared result is frozen

    def test_setitem_invalidates(self):
        s = Series(["x", "y", "x", "z"], "key")
        before = s.grouping()
        s[0] = "z"
        after = s.grouping()
        assert after is not before
        # Correctness after mutation: z,y,x,z -> segments reflect new data.
        frame = DataFrame({"key": ["z", "y", "x", "z"], "v": [1.0, 2.0, 3.0, 4.0]})
        expected = frame.groupby("key")["v"].transform("sum").tolist()
        frame2 = DataFrame({"key": ["x", "y", "x", "z"], "v": [1.0, 2.0, 3.0, 4.0]})
        frame2["key"][0] = "z"  # mutate through the cached Series
        got = frame2.groupby("key")["v"].transform("sum").tolist()
        assert got == expected

    def test_missing_keys_cache_their_grouping(self):
        s = Series(["x", None, "x"], "key")
        first = s.grouping()
        assert first is s.grouping()
        assert first[2].tolist() == [0, 1, 0]  # None is a group of its own

    def test_repeated_groupbys_share_the_index_arrays(self):
        frame = DataFrame({"key": ["a", "b", "a", "c"] * 25, "v": list(range(100))})
        g1 = frame.groupby("key")["v"].transform("mean")
        g2 = frame.groupby("key")["v"].transform("mean")
        assert g1.tolist() == g2.tolist()
        assert frame["key"].grouping() is frame["key"].grouping()


class TestExecutorBatchLog:
    def test_batches_attributed_to_stage_scope(self):
        from repro.fm import FMRequest

        fm = SimulatedFM(seed=0)
        executor = FMExecutor()
        with executor.stage("alpha"):
            executor.run(fm, [FMRequest("p1"), FMRequest("p2")])
        executor.run(fm, [FMRequest("p3")])
        assert [b.stage for b in executor.batch_log] == ["alpha", None]
        assert executor.batch_log[0].n_calls == 2

    def test_stage_scopes_nest(self):
        executor = FMExecutor()
        with executor.stage("outer"):
            with executor.stage("inner"):
                assert executor._stage_tag == "inner"
            assert executor._stage_tag == "outer"
        assert executor._stage_tag is None


# ----------------------------------------------------------------------
# Physical stage fan-out (stateless clients, concurrent executor)
# ----------------------------------------------------------------------
class _Ctx:
    """Minimal stage context for driving StageScheduler directly."""

    def __init__(self):
        self.granted_draws = {}


def _stateless_client():
    from repro.fm import ScriptedTransport, TransportFMClient

    return TransportFMClient(ScriptedTransport([f"r{i}" for i in range(64)]))


class TestPhysicalOverlap:
    def _scheduler(self, executor, clients, **kwargs):
        from repro.core.scheduler import StageScheduler

        return StageScheduler(executor=executor, clients=clients, **kwargs)

    def test_detection_requires_overlap_concurrency_and_statelessness(self):
        stateless = (_stateless_client(),)
        seeded = (SimulatedFM(seed=0),)
        with FMExecutor(2) as pool:
            assert self._scheduler(pool, stateless, plan="overlap")._physical_overlap()
            assert not self._scheduler(pool, stateless, plan="serial")._physical_overlap()
            assert not self._scheduler(pool, seeded, plan="overlap")._physical_overlap()
            mixed = stateless + seeded
            assert not self._scheduler(pool, mixed, plan="overlap")._physical_overlap()
        assert not self._scheduler(
            FMExecutor(), stateless, plan="overlap"
        )._physical_overlap()

    def test_independent_nodes_really_run_concurrently(self):
        """Two hazard-free nodes must pass a 2-party barrier — impossible
        under sequential dispatch."""
        import threading

        barrier = threading.Barrier(2, timeout=10)
        met: list[str] = []

        def meet(ctx, node):
            barrier.wait()
            met.append(node.name)

        graph = StageGraph(
            [
                StageNode(
                    name=name,
                    runner=meet,
                    reads=frozenset({"originals"}),
                    writes=frozenset({name}),
                    fm=False,
                )
                for name in ("left", "right")
            ]
        )
        with FMExecutor(2) as pool:
            scheduler = self._scheduler(pool, (_stateless_client(),), plan="overlap")
            schedule = scheduler.execute(graph, _Ctx())
        assert schedule.physical
        assert sorted(met) == ["left", "right"]
        assert schedule.report()["physical_overlap"] is True

    def test_failure_stops_launches_and_reraises(self):
        ran: list[str] = []

        def ok(ctx, node):
            ran.append(node.name)

        def boom(ctx, node):
            raise RuntimeError("stage died")

        graph = StageGraph(
            [
                StageNode(
                    name="a",
                    runner=boom,
                    reads=frozenset({"originals"}),
                    writes=frozenset({"unary"}),
                    fm=False,
                ),
                StageNode(
                    name="b",
                    runner=ok,
                    reads=frozenset({"unary"}),
                    writes=frozenset({"binary"}),
                    fm=False,
                ),
            ]
        )
        with FMExecutor(2) as pool:
            scheduler = self._scheduler(pool, (_stateless_client(),), plan="overlap")
            with pytest.raises(RuntimeError, match="stage died"):
                scheduler.execute(graph, _Ctx())
        assert ran == []  # b never launched: its dependency failed

    def test_physical_attribution_sums_to_ledger(self):
        """Batch-tag attribution must equal what ledger deltas would have
        said: per-node fm_calls/cost sum to the client ledger totals."""
        from repro.fm import FMRequest

        client = _stateless_client()

        def call_twice(ctx, node):
            # Runs on the node's own thread; the stage scope is set there.
            executor.run(client, [FMRequest(f"{node.name}-1"), FMRequest(f"{node.name}-2")])

        graph = StageGraph(
            [
                StageNode(
                    name=name,
                    runner=call_twice,
                    reads=frozenset({"originals"}),
                    writes=frozenset({name}),
                )
                for name in ("x", "y", "z")
            ]
        )
        with FMExecutor(3) as executor:
            scheduler = self._scheduler(executor, (client,), plan="overlap")
            schedule = scheduler.execute(graph, _Ctx())
        assert schedule.physical
        by_name = {r.name: r for r in schedule.records}
        assert all(by_name[n].fm_calls == 2 for n in ("x", "y", "z"))
        assert sum(r.fm_calls for r in schedule.records) == client.ledger.n_calls
        assert sum(r.cost_usd for r in schedule.records) == pytest.approx(
            client.ledger.cost_usd
        )

    def test_budget_planner_skips_in_physical_mode(self):
        budget = Budget(max_calls=0)
        ran: list[str] = []

        def should_not_run(ctx, node):
            ran.append(node.name)

        graph = StageGraph(
            [
                StageNode(
                    name="fm_stage",
                    runner=should_not_run,
                    reads=frozenset({"originals"}),
                    writes=frozenset({"unary"}),
                    planned_draws=4,
                )
            ]
        )
        with FMExecutor(2) as pool:
            scheduler = self._scheduler(
                pool,
                (_stateless_client(),),
                plan="overlap",
                budget=budget,
                plan_budget=True,
            )
            schedule = scheduler.execute(graph, _Ctx())
        assert ran == []
        assert schedule.records[0].status == "skipped"

    def test_pipeline_physical_run_schedules_and_completes(self):
        """End-to-end: SmartFeat over stateless transport clients with an
        overlap plan reports physical_overlap and produces features."""
        from repro.fm import SimulatedHTTPTransport, TransportFMClient

        selector_server = SimulatedFM(seed=0, model="gpt-4")
        generator_server = SimulatedFM(seed=1, model="gpt-3.5-turbo")
        fm = TransportFMClient(
            SimulatedHTTPTransport(
                responder=lambda req: selector_server._complete_text(
                    req.prompt, req.temperature
                ),
                sleep=False,
            ),
            model="gpt-4",
        )
        function_fm = TransportFMClient(
            SimulatedHTTPTransport(
                responder=lambda req: generator_server._complete_text(
                    req.prompt, req.temperature
                ),
                sleep=False,
            ),
            model="gpt-3.5-turbo",
        )
        with FMExecutor(4) as executor:
            tool = SmartFeat(
                fm=fm,
                function_fm=function_fm,
                executor=executor,
                wave_size=2,
                sampling_budget=4,
                stage_plan="overlap",
            )
            result = tool.fit_transform(
                small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
            )
        schedule = result.fm_usage["execution"]["schedule"]
        assert schedule["physical_overlap"] is True
        assert result.new_features
        total_calls = fm.ledger.n_calls + function_fm.ledger.n_calls
        assert (
            sum(n["fm_calls"] for n in schedule["nodes"]) == total_calls
        )


class TestOneNodeRunner:
    """Sequential and physical dispatch go through the same loop and the
    same node runner; only where a node runs differs."""

    @staticmethod
    def _chain(runners):
        """Nodes ``a`` → ``b`` (b reads a's writes) plus an independent
        ``c``, with the given runner per name."""
        reads = {"a": {"originals"}, "b": {"a"}, "c": {"originals"}}
        return StageGraph(
            [
                StageNode(
                    name=name,
                    runner=runners[name],
                    reads=frozenset(reads[name]),
                    writes=frozenset({name}),
                )
                for name in ("a", "b", "c")
            ]
        )

    @pytest.mark.parametrize("concurrency", [1, 3], ids=["inline", "threads"])
    def test_same_accounting_and_hooks_in_both_modes(self, concurrency):
        from repro.core.scheduler import StageScheduler
        from repro.fm import FMRequest

        client = _stateless_client()
        finished: list[str] = []

        def calls(n):
            def runner(ctx, node):
                executor.run(client, [FMRequest(f"{node.name}{i}") for i in range(n)])

            return runner

        graph = self._chain({"a": calls(1), "b": calls(2), "c": calls(3)})
        with FMExecutor(concurrency) as executor:
            schedule = StageScheduler(
                executor,
                (client,),
                plan="overlap",
                on_node_complete=lambda node: finished.append(node.name),
            ).execute(graph, _Ctx())
        assert schedule.physical is (concurrency > 1)
        assert {r.name: r.fm_calls for r in schedule.records} == {"a": 1, "b": 2, "c": 3}
        assert sum(r.fm_calls for r in schedule.records) == client.ledger.n_calls
        assert sorted(finished) == ["a", "b", "c"]
        if concurrency == 1:
            assert finished == ["a", "b", "c"]  # declaration order, inline

    @pytest.mark.parametrize("concurrency", [1, 3], ids=["inline", "threads"])
    def test_failure_stops_dispatch_and_reraises_in_both_modes(self, concurrency):
        from repro.core.scheduler import StageScheduler

        ran: list[str] = []
        finished: list[str] = []

        def boom(ctx, node):
            raise RuntimeError("stage died")

        def ok(ctx, node):
            ran.append(node.name)

        graph = self._chain({"a": boom, "b": ok, "c": ok})
        with FMExecutor(concurrency) as executor:
            scheduler = StageScheduler(
                executor,
                (_stateless_client(),),
                plan="overlap",
                on_node_complete=lambda node: finished.append(node.name),
            )
            with pytest.raises(RuntimeError, match="stage died"):
                scheduler.execute(graph, _Ctx())
        assert "b" not in ran  # its dependency failed
        assert "a" not in finished  # a failed node is never checkpointed
        if concurrency == 1:
            assert ran == []  # inline dispatch stops at the first failure


class TestNodeClock:
    """The scheduler is the fit path's clock: one ``perf_counter`` pair
    around each runner gives the node's measured window (offsets from the
    start of ``execute()``) and its data-plane seconds."""

    @staticmethod
    def _graph(runner, **kw):
        return StageGraph(
            [
                StageNode(
                    name=name,
                    runner=runner,
                    reads=frozenset({"originals"}),
                    writes=frozenset({name}),
                    **kw,
                )
                for name in ("a", "b", "c")
            ]
        )

    def test_sequential_windows_are_ordered_and_hold_the_dataplane(self):
        import time

        from repro.core.scheduler import StageScheduler
        from repro.fm import FMRequest

        client = _stateless_client()

        def runner(ctx, node):
            time.sleep(0.002)  # data-plane work the clock must count
            executor.run(client, [FMRequest(node.name), FMRequest(node.name + "2")])

        with FMExecutor() as executor:
            scheduler = StageScheduler(executor, (client,), plan="serial")
            started = time.perf_counter()
            schedule = scheduler.execute(self._graph(runner), _Ctx())
            run_wall = time.perf_counter() - started
        windows = [r.measured_window for r in schedule.records]
        assert windows[0][0] >= 0.0 and windows[-1][1] <= run_wall
        for (start, end), (next_start, _) in zip(windows, windows[1:]):
            assert start <= end <= next_start  # ordered, never overlapping
        for record in schedule.records:
            start, end = record.measured_window
            assert 0.0 < record.dataplane_s <= end - start + 1e-6
        report = schedule.report()
        assert [n["measured_window_s"] for n in report["nodes"]] == [
            list(w) for w in windows
        ]
        assert report["measured_makespan_s"] <= run_wall

    def test_skipped_and_restored_nodes_have_no_window(self):
        from repro.core.scheduler import StageScheduler

        ran: list[str] = []
        scheduler = StageScheduler(
            FMExecutor(),
            (SimulatedFM(seed=0),),
            budget=Budget(max_calls=0),
            plan_budget=True,
            completed={"a"},
        )
        schedule = scheduler.execute(
            self._graph(lambda ctx, node: ran.append(node.name), planned_draws=1),
            _Ctx(),
        )
        assert ran == []
        assert [r.status for r in schedule.records] == ["restored", "skipped", "skipped"]
        assert all(r.measured_window is None for r in schedule.records)
        assert all(r.dataplane_s == 0.0 for r in schedule.records)
        assert schedule.report()["measured_makespan_s"] == 0.0

    def test_pipeline_fit_reports_a_window_per_executed_node(self):
        result, *_ = run_smartfeat()
        for node in result.fm_usage["execution"]["schedule"]["nodes"]:
            start, end = node["measured_window_s"]
            assert 0.0 <= start <= end
            assert 0.0 <= node["dataplane_s"] <= end - start + 1e-6
