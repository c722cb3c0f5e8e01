"""The one method runner: how each AFE method is fitted on a dataset bundle.

Every eval entry point that fits a method on simulated clients (the
Table 4/5 sweep, Table 6's importance, Table 7's ablation, the Figure 1
and efficiency profiles, the serving fits) goes through
:func:`fit_method`, and every simulated client pair, including the
servers behind the efficiency module's HTTP transports, comes from
:func:`~repro.fm.simulated.simulated_pair`.  A run's FM spend is read
off its clients' ledgers, summed in a fixed order (operator selector
first), never written into another client's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import AutoFeatLike, CAAFELike, Deadline, FeaturetoolsDFS
from repro.core import SmartFeat, SmartFeatResult
from repro.dataframe import DataFrame
from repro.fm import FMClient, simulated_pair
from repro.fm.base import Budget

__all__ = ["METHOD_NAMES", "MethodRun", "fit_method"]

METHOD_NAMES: tuple[str, ...] = ("initial", "smartfeat", "caafe", "featuretools", "autofeat")


@dataclass
class MethodRun:
    """One method fitted on one bundle.

    ``result`` is the method's own result (a ``SmartFeatResult``, an
    ``AFEResult``, or None for ``"initial"``); ``clients`` are the FM
    clients the run called, operator selector first.
    """

    frame: DataFrame
    new_columns: list[str]
    n_generated: int
    result: object = None
    clients: tuple[FMClient, ...] = ()

    @property
    def n_selected(self) -> int:
        return len(self.new_columns)

    def _total(self, name: str):
        return sum(getattr(client.ledger, name) for client in self.clients)

    @property
    def fm_calls(self) -> int:
        return self._total("n_calls")

    @property
    def fm_tokens(self) -> int:
        return self._total("prompt_tokens") + self._total("completion_tokens")

    @property
    def fm_cost_usd(self) -> float:
        return self._total("cost_usd")

    @property
    def fm_latency_s(self) -> float:
        return self._total("latency_s")

    @property
    def fm_cache_hits(self) -> int:
        return self._total("cache_hits")

    @property
    def schedule(self) -> dict | None:
        """SMARTFEAT's stage-schedule report; None for every other method."""
        if isinstance(self.result, SmartFeatResult):
            return self.result.fm_usage["execution"]["schedule"]
        return None


def fit_method(
    method: str,
    bundle,
    *,
    seed: int,
    model: str,
    deadline: Deadline | None = None,
    budget: Budget | None = None,
    count_rejections: bool = False,
    **smartfeat_options,
) -> MethodRun:
    """Fit *method* on *bundle* with seeded simulated FM clients.

    *bundle* is a :class:`~repro.datasets.schema.DatasetBundle` or
    anything with its ``frame``, ``target``, ``descriptions``, ``title``
    and ``target_description`` attributes.  *model* is the downstream
    model the model-aware methods engineer for (SMARTFEAT's
    ``downstream_model``, CAAFE's ``validation_model``).  *deadline*
    bounds the baselines (SMARTFEAT takes none); *budget* caps the FM
    spend of SMARTFEAT and CAAFE.  With *count_rejections*, SMARTFEAT's
    ``n_generated`` also counts the candidates it rejected.
    *smartfeat_options* go to the :class:`~repro.core.SmartFeat`
    constructor and are ignored by every other method.
    """
    if method == "initial":
        return MethodRun(bundle.frame, [], 0)
    if method == "smartfeat":
        fm, function_fm = simulated_pair(seed)
        tool = SmartFeat(
            fm=fm,
            function_fm=function_fm,
            downstream_model=model,
            budget=budget,
            **smartfeat_options,
        )
        result = tool.fit_transform(
            bundle.frame,
            target=bundle.target,
            descriptions=bundle.descriptions,
            title=bundle.title,
            target_description=bundle.target_description,
        )
        n_generated = len(result.new_columns)
        if count_rejections:
            n_generated += len(result.rejections)
        return MethodRun(
            result.frame, result.new_columns, n_generated, result, (fm, function_fm)
        )
    if method == "caafe":
        fm, _ = simulated_pair(seed, budget)
        result = CAAFELike(fm, validation_model=model, seed=seed).fit_transform(
            bundle.frame,
            target=bundle.target,
            descriptions=bundle.descriptions,
            title=bundle.title,
            target_description=bundle.target_description,
            deadline=deadline,
        )
        return MethodRun(result.frame, result.new_columns, result.n_generated, result, (fm,))
    if method in ("featuretools", "autofeat"):
        baseline = FeaturetoolsDFS() if method == "featuretools" else AutoFeatLike()
        result = baseline.fit_transform(bundle.frame, bundle.target, deadline=deadline)
        return MethodRun(result.frame, result.new_columns, result.n_generated, result)
    raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
