"""Shared fixtures for the serving suites."""

import numpy as np
import pytest

import repro.serve.plan as plan_module
from repro.core.sandbox import TransformError
from repro.dataframe import Series

#: The faults ``fail_feature`` injects: a raising evaluation, or an
#: output one row short, which the plan's install check rejects.
FAULT_MODES = ("raise", "bad_output")


@pytest.fixture
def fail_feature(monkeypatch):
    """``fail_feature(spec, when=None, mode="raise")`` injects a fault
    into a plan's evaluation of *spec*: on every batch, or on those whose
    frame ``when(frame)`` accepts.  ``"raise"`` raises
    :class:`TransformError`; ``"bad_output"`` returns a column one row
    short.  Where several rules match, the latest wins.  Every other
    evaluation runs as usual.

    It patches ``repro.serve.plan.evaluate_feature``, the one name the
    replay loop evaluates each feature through.
    """
    real = plan_module.evaluate_feature
    rules = []

    def evaluate(node, frame, dictionaries=None):
        for expr, when, mode in reversed(rules):
            if node is expr and (when is None or when(frame)):
                if mode == "raise":
                    raise TransformError("injected failure")
                return Series(np.zeros(max(len(frame) - 1, 0)), "bad_output")
        return real(node, frame, dictionaries)

    def inject(spec, when=None, mode="raise"):
        if mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {mode!r}")
        rules.append((spec.expr, when, mode))

    monkeypatch.setattr(plan_module, "evaluate_feature", evaluate)
    return inject
