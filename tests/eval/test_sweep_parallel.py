"""The parallel sweep engine: serial/parallel equality, per-cell fault
isolation, and budget degradation.

The contract: cells are independent jobs, so a thread-pool sweep must
reproduce the serial sweep cell for cell (statuses, AUCs, ledger
totals — timing fields excepted, since they measure real wall clock),
one crashing method must cost exactly its own cells, and an exhausted FM
budget must cost exactly the offending cell.
"""

import pytest

import repro.eval.methods as methods_module
from repro.eval import (
    SweepConfig,
    render_auc_table,
    render_sweep_summary,
    run_sweep,
)

ALL_METHODS = ("initial", "smartfeat", "caafe", "featuretools", "autofeat")


def outcome_fingerprint(result):
    """Everything that must match across backends (no timing fields)."""
    return {
        cell: (
            outcome.status,
            dict(outcome.model_status),
            {model: round(auc, 9) for model, auc in outcome.auc_by_model.items()},
            outcome.n_generated,
            outcome.n_selected,
            outcome.fm_calls,
            round(outcome.fm_cost_usd, 9),
            outcome.detail,
        )
        for cell, outcome in result.outcomes.items()
    }


@pytest.fixture(scope="module")
def matrix_config():
    return SweepConfig(
        datasets=("tennis", "heart"),
        methods=ALL_METHODS,
        models=("lr", "nb"),
        n_rows=180,
        n_splits=3,
        time_limit_s=None,  # measured-time DNFs would be scheduler noise
    )


@pytest.fixture(scope="module")
def serial_and_parallel(matrix_config):
    serial = run_sweep(matrix_config)
    parallel = run_sweep(matrix_config, sweep_concurrency=4)
    return serial, parallel


class TestSerialParallelEquality:
    def test_full_matrix_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert outcome_fingerprint(serial) == outcome_fingerprint(parallel)

    def test_cells_assembled_in_config_order(self, serial_and_parallel, matrix_config):
        serial, parallel = serial_and_parallel
        expected = [
            (dataset, method)
            for dataset in matrix_config.datasets
            for method in matrix_config.methods
        ]
        assert list(serial.outcomes) == expected
        assert list(parallel.outcomes) == expected

    def test_no_cell_crashed_or_tripped_budget(self, serial_and_parallel):
        """Without a budget configured, only the paper's own outcome
        vocabulary appears (CAAFE's divide-by-zero on small samples is a
        legitimate ``partial``, not an engine failure)."""
        _, parallel = serial_and_parallel
        statuses = set(parallel.status_counts())
        assert statuses <= {"ok", "partial"}
        assert parallel.status_counts().get("ok", 0) >= len(parallel.outcomes) - 1

    def test_progress_lines_identical_as_sets(self, matrix_config):
        serial_lines, parallel_lines = [], []
        run_sweep(matrix_config, progress=serial_lines.append)
        run_sweep(matrix_config, progress=parallel_lines.append, sweep_concurrency=3)
        assert sorted(serial_lines) == sorted(parallel_lines)



class TestFaultIsolation:
    def test_one_crashing_method_costs_only_its_cells(
        self, matrix_config, monkeypatch, serial_and_parallel
    ):
        baseline, _ = serial_and_parallel

        def boom(self, frame, target, deadline=None):
            raise RuntimeError("featuretools exploded")

        monkeypatch.setattr(methods_module.FeaturetoolsDFS, "fit_transform", boom)
        result = run_sweep(matrix_config, sweep_concurrency=4)
        for (dataset, method), outcome in result.outcomes.items():
            if method == "featuretools":
                assert outcome.status == "error"
                assert "RuntimeError: featuretools exploded" in outcome.detail
                assert outcome.auc_by_model == {}
            else:
                # Every other cell is exactly what the healthy sweep produced.
                reference = baseline.get(dataset, method)
                assert outcome.status == reference.status, (dataset, method, outcome.detail)
                assert outcome.auc_by_model == reference.auc_by_model

    def test_crash_parity_between_backends(self, matrix_config, monkeypatch):
        def boom(self, frame, target, deadline=None):
            raise ValueError("autofeat exploded")

        monkeypatch.setattr(methods_module.AutoFeatLike, "fit_transform", boom)
        serial = run_sweep(matrix_config)
        parallel = run_sweep(matrix_config, sweep_concurrency=4)
        assert outcome_fingerprint(serial) == outcome_fingerprint(parallel)
        assert serial.status_counts()["error"] == len(matrix_config.datasets)

    def test_error_cells_render_err(self, matrix_config, monkeypatch):
        def boom(self, frame, target, deadline=None):
            raise RuntimeError("nope")

        monkeypatch.setattr(methods_module.FeaturetoolsDFS, "fit_transform", boom)
        result = run_sweep(matrix_config)
        table = render_auc_table(result)
        featuretools_row = next(
            line for line in table.splitlines() if line.startswith("featuretools")
        )
        assert "ERR" in featuretools_row


class TestBudgetDegradation:
    @pytest.fixture(scope="class")
    def budget_result(self):
        config = SweepConfig(
            datasets=("tennis",),
            methods=ALL_METHODS,
            models=("lr", "nb"),
            n_rows=180,
            time_limit_s=None,
            max_fm_calls=5,  # tight: any FM-driven method blows through it
        )
        return run_sweep(config)

    def test_only_fm_methods_degrade(self, budget_result):
        by_method = {method: o for (_, method), o in budget_result.outcomes.items()}
        assert by_method["smartfeat"].status == "budget"
        assert by_method["caafe"].status == "budget"
        # FM-free cells are untouched by an FM budget.
        assert by_method["initial"].status == "ok"
        assert by_method["featuretools"].status == "ok"
        assert by_method["autofeat"].status == "ok"

    def test_budget_detail_names_the_axis(self, budget_result):
        outcome = budget_result.get("tennis", "smartfeat")
        assert "FM budget exceeded on calls" in outcome.detail
        assert set(outcome.model_status.values()) == {"budget"}

    def test_budget_is_per_cell_not_per_sweep(self, budget_result):
        """Each cell gets a fresh budget: smartfeat exhausting its own
        does not starve caafe's."""
        smartfeat = budget_result.get("tennis", "smartfeat")
        caafe = budget_result.get("tennis", "caafe")
        # Both spent against their own meter (> 0 each), proving caafe
        # was not pre-exhausted by smartfeat's overrun.
        assert smartfeat.fm_calls > 0
        assert caafe.fm_calls > 0
        assert caafe.status == "budget"

    def test_budget_cells_report_their_real_spend(self, budget_result):
        """A tripped cell's accounting comes from the budget meter: the
        spend that crossed the line is reported, not silently zeroed."""
        outcome = budget_result.get("tennis", "smartfeat")
        assert outcome.fm_calls > 5  # the crossing batch is counted too
        assert outcome.fm_cost_usd > 0
        assert budget_result.total_fm_calls >= outcome.fm_calls

    def test_budget_parity_between_backends(self):
        config = SweepConfig(
            datasets=("tennis",),
            methods=("initial", "smartfeat", "featuretools"),
            models=("lr",),
            n_rows=180,
            time_limit_s=None,
            max_fm_calls=5,
        )
        serial = run_sweep(config)
        parallel = run_sweep(config, sweep_concurrency=3)
        assert outcome_fingerprint(serial) == outcome_fingerprint(parallel)

    def test_generous_budget_is_invisible(self):
        base = SweepConfig(
            datasets=("tennis",),
            methods=("initial", "smartfeat"),
            models=("lr",),
            n_rows=180,
            time_limit_s=None,
        )
        unbudgeted = run_sweep(base)
        budgeted = run_sweep(
            SweepConfig(
                **{**base.__dict__, "max_fm_calls": 10**9, "max_cost_usd": 1e9}
            )
        )
        assert outcome_fingerprint(unbudgeted) == outcome_fingerprint(budgeted)

    def test_budget_cells_render_budget(self, budget_result):
        table = render_auc_table(budget_result)
        smartfeat_row = next(
            line for line in table.splitlines() if line.startswith("smartfeat")
        )
        assert "BUDGET" in smartfeat_row
        summary = render_sweep_summary(budget_result)
        assert "2 budget" in summary


class TestSweepAccounting:
    def test_modelled_serial_is_cell_sum(self, serial_and_parallel):
        serial, _ = serial_and_parallel
        assert serial.modelled_serial_s == pytest.approx(
            sum(o.modelled_s for o in serial.outcomes.values())
        )

    def test_modelled_wall_bounded_by_sum_and_max(self, serial_and_parallel):
        serial, _ = serial_and_parallel
        longest = max(o.modelled_s for o in serial.outcomes.values())
        for concurrency in (2, 4, 8):
            makespan = serial.modelled_wall_s(concurrency)
            assert longest <= makespan <= serial.modelled_serial_s + 1e-9

    def test_sweep_wall_recorded(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.wall_s > 0
        assert parallel.wall_s > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(datasets=("tennis",), sweep_concurrency=0))
