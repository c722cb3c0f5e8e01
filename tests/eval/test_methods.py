"""The one method runner: ``fit_method``'s FM accounting and its callers.

A ``MethodRun``'s totals are read off its clients' ledgers, summed
operator selector first, and every ledger counts only its own client's
calls; the sweep, Table 6 and the simulated pair keep what their callers
relied on before they shared the runner.
"""

import pytest

from repro.core import SmartFeat
from repro.datasets import load_dataset
from repro.eval import SweepConfig, importance_table, run_sweep
from repro.eval.methods import METHOD_NAMES, fit_method
from repro.fm import CallLedger, SimulatedFM, simulated_pair

FM_METHODS = {"smartfeat": 2, "caafe": 1}


@pytest.fixture(scope="module")
def tennis():
    return load_dataset("tennis", seed=0, n_rows=200)


@pytest.fixture
def recorded(monkeypatch):
    """Every ``CallLedger.record`` call as ``(ledger id, response model)``."""
    calls = []
    original = CallLedger.record

    def spy(self, prompt, response):
        calls.append((id(self), response.model))
        original(self, prompt, response)

    monkeypatch.setattr(CallLedger, "record", spy)
    return calls


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_totals_are_the_sum_of_the_clients_ledgers(method, tennis, recorded):
    run = fit_method(method, tennis, seed=0, model="lr")
    assert len(run.clients) == FM_METHODS.get(method, 0)
    ledgers = [client.ledger for client in run.clients]
    calls = tokens = 0
    cost = latency = 0.0
    for ledger in ledgers:  # selector first, as the runner sums
        calls += ledger.n_calls
        tokens += ledger.prompt_tokens + ledger.completion_tokens
        cost += ledger.cost_usd
        latency += ledger.latency_s
    assert run.fm_calls == calls
    assert run.fm_tokens == tokens
    assert run.fm_cost_usd == cost
    assert run.fm_latency_s == latency
    assert run.fm_cache_hits == sum(ledger.cache_hits for ledger in ledgers)
    if run.clients:
        assert all(ledger.n_calls > 0 for ledger in ledgers)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_no_ledger_counts_another_clients_calls(method, tennis, recorded):
    run = fit_method(method, tennis, seed=0, model="lr")
    owners = {id(client.ledger): client for client in run.clients}
    assert {ledger_id for ledger_id, _ in recorded} <= set(owners)
    for ledger_id, client in owners.items():
        models = [model for owner, model in recorded if owner == ledger_id]
        assert models == [client.model] * len(models)
        assert client.ledger.n_calls == len(models)


def test_frame_and_columns_are_the_methods_own(tennis):
    initial = fit_method("initial", tennis, seed=0, model="lr")
    assert initial.frame is tennis.frame
    assert (initial.new_columns, initial.n_generated, initial.n_selected) == ([], 0, 0)
    assert initial.result is None and initial.schedule is None
    run = fit_method("smartfeat", tennis, seed=0, model="lr")
    assert run.frame is run.result.frame
    assert run.new_columns == run.result.new_columns
    assert run.n_generated == run.n_selected == len(run.new_columns)
    assert run.schedule == run.result.fm_usage["execution"]["schedule"]
    assert fit_method("featuretools", tennis, seed=0, model="lr").schedule is None


def test_unknown_method_raises(tennis):
    with pytest.raises(ValueError, match="unknown method 'mystery'"):
        fit_method("mystery", tennis, seed=0, model="lr")


@pytest.mark.parametrize("seed", [0, 3])
def test_simulated_pair_is_gpt4_then_gpt35(seed):
    selector, generator = simulated_pair(seed)
    assert isinstance(selector, SimulatedFM) and isinstance(generator, SimulatedFM)
    assert (selector.model, selector.seed) == ("gpt-4", seed)
    assert (generator.model, generator.seed) == ("gpt-3.5-turbo", seed + 1)
    assert selector.ledger is not generator.ledger


def test_budgeted_sweep_cell_reports_the_budgets_spend(monkeypatch):
    budgets = []
    original = SweepConfig.cell_budget

    def capture(self):
        budget = original(self)
        budgets.append(budget)
        return budget

    monkeypatch.setattr(SweepConfig, "cell_budget", capture)
    config = SweepConfig(
        datasets=("heart",),
        methods=("smartfeat",),
        models=("lr", "nb"),
        n_rows=200,
        time_limit_s=None,
        max_fm_calls=20,
    )
    outcome = run_sweep(config).get("heart", "smartfeat")
    (budget,) = budgets
    assert outcome.status == "budget"
    assert budget.spent_calls >= 20
    assert outcome.fm_calls == budget.spent_calls
    assert outcome.fm_cost_usd == budget.spent_cost_usd


def test_importance_counts_smartfeat_rejections():
    diabetes = load_dataset("diabetes", seed=0, n_rows=200)
    fm, function_fm = simulated_pair(0)
    reference = SmartFeat(fm, function_fm=function_fm).fit_transform(
        diabetes.frame,
        target=diabetes.target,
        descriptions=diabetes.descriptions,
        title=diabetes.title,
        target_description=diabetes.target_description,
    )
    assert reference.rejections  # the count below must include some
    (row,) = importance_table(diabetes, methods=("smartfeat",))
    assert row.n_selected == len(reference.new_columns)
    assert row.n_generated == len(reference.new_columns) + len(reference.rejections)
    run = fit_method("smartfeat", diabetes, seed=0, model="random_forest")
    assert run.n_generated == run.n_selected == row.n_selected
