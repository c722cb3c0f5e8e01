"""The FM client protocol and per-client call accounting.

The protocol is concurrency-aware: a call is split into *state
reservation* (:meth:`FMClient._reserve_state`, cheap and thread-safe,
always performed in submission order) and *text generation*
(:meth:`FMClient._complete_with_state`, which may run on any thread).
Deterministic backends key their entropy or cursor on the reserved state,
so a batch of calls answers identically whether it runs serially or on a
thread pool — the contract the executor layer builds on.

Cost control rides on the same accounting: a :class:`Budget` caps dollar
cost, call count, and summed latency.  One budget may be shared by
several clients (operator selector + function generator), in which case
it caps their *combined* spend; every charge funnels through the
budget's own lock, so concurrent execution cannot overshoot by more than
the batch already in flight.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fm.cost import CostModel, estimate_tokens
from repro.fm.errors import FMBudgetExceededError
from repro.records import NOT_RECORDED, assign_record, to_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fm.cache import FMCache
    from repro.fm.executor import FMExecutor, FMRequest, FMResult

__all__ = ["Budget", "CallLedger", "FMClient", "FMResponse", "report_view"]


def report_view(record: dict) -> dict:
    """A meter's record rounded for reports: ``*_usd`` to 6 places, other
    floats (seconds) to 3."""
    return {
        key: round(v, 6 if key.endswith("usd") else 3) if isinstance(v, float) else v
        for key, v in record.items()
    }


@dataclass(frozen=True)
class FMResponse:
    """One foundation-model completion with its accounting metadata."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float
    cost_usd: float
    model: str = "simulated"


class _LockedRecord:
    """A record guarded by ``self._lock``.  A lock belongs to one
    process, so a pickled copy carries the fields and gets a fresh one."""

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


@dataclass
class Budget(_LockedRecord):
    """Hard ceilings on FM spend, enforced as calls are recorded.

    ``None`` disables an axis.  The crossing call is *charged* (its cost
    was already incurred) and then raises
    :class:`~repro.fm.errors.FMBudgetExceededError`; :meth:`check` is the
    pre-flight guard executors run before dispatching a batch, so an
    exhausted budget stops new work at batch granularity — identical
    under the serial and thread-pool backends, which is what keeps a
    budgeted run deterministic across executors.

    The spend counters are mutable and lock-protected: one ``Budget``
    instance is a shared meter, not a per-client configuration.  Attach
    the same instance to several ledgers to cap their combined spend.
    """

    max_cost_usd: float | None = None
    max_calls: int | None = None
    max_latency_s: float | None = None
    spent_cost_usd: float = field(default=0.0, init=False)
    spent_calls: int = field(default=0, init=False)
    spent_latency_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        for name in ("max_cost_usd", "max_calls", "max_latency_s"):
            limit = getattr(self, name)
            if limit is not None and limit < 0:
                raise ValueError(f"{name} must be >= 0, got {limit}")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def charge(self, cost_usd: float = 0.0, latency_s: float = 0.0, calls: int = 1) -> None:
        """Record spend; raise if this charge crossed a limit.

        The charge is always applied — the call already happened — so the
        counters stay an exact account of what was spent even when the
        budget trips.
        """
        with self._lock:
            self.spent_cost_usd += cost_usd
            self.spent_latency_s += latency_s
            self.spent_calls += calls
            violation = self._violation_locked(strict=True)
        if violation is not None:
            raise FMBudgetExceededError(*violation)

    def check(self) -> None:
        """Pre-flight guard: raise if there is no headroom left."""
        with self._lock:
            violation = self._violation_locked(strict=False)
        if violation is not None:
            raise FMBudgetExceededError(*violation)

    def exhausted(self) -> bool:
        """True when no headroom remains on some axis."""
        with self._lock:
            return self._violation_locked(strict=False) is not None

    def _violation_locked(self, strict: bool) -> tuple[str, str, float, float] | None:
        """The first exhausted axis as error args, or None.

        ``strict`` distinguishes post-charge (over the limit) from
        pre-flight (at the limit: the next call could only overshoot).
        """
        axes = (
            ("calls", self.max_calls, self.spent_calls),
            ("cost_usd", self.max_cost_usd, self.spent_cost_usd),
            ("latency_s", self.max_latency_s, self.spent_latency_s),
        )
        for axis, limit, spent in axes:
            if limit is None:
                continue
            if spent > limit or (not strict and spent >= limit):
                message = f"FM budget exceeded on {axis}: spent {spent:g} of {limit:g}"
                return (message, axis, float(limit), float(spent))
        return None

    def headroom(self) -> dict[str, float | None]:
        """Remaining spend per axis: ``None`` for unlimited axes, else
        ``max(0, limit - spent)``.

        This is the budget-aware planner's input: the stage scheduler
        reads the headroom before dispatching each stage node and
        right-sizes the node's sampling budget (or skips optional nodes)
        to fit, instead of letting the node trip the meter mid-flight.
        """
        with self._lock:
            return {
                "calls": (
                    None
                    if self.max_calls is None
                    else max(0, self.max_calls - self.spent_calls)
                ),
                "cost_usd": (
                    None
                    if self.max_cost_usd is None
                    else max(0.0, self.max_cost_usd - self.spent_cost_usd)
                ),
                "latency_s": (
                    None
                    if self.max_latency_s is None
                    else max(0.0, self.max_latency_s - self.spent_latency_s)
                ),
            }

    def snapshot(self) -> dict[str, float | None]:
        """Limits and spend, rounded, as a plain dict: the *report* view.

        Nothing plans from or restores from it — the scheduler reads the
        exact ``spent_*`` fields and a checkpoint records them unrounded.
        """
        with self._lock:
            return report_view(to_record(self))


@dataclass
class CallLedger(_LockedRecord):
    """Accumulates per-call accounting across a client's lifetime.

    The evaluation harness reads these totals to reproduce the paper's
    efficiency comparisons without real API access.  Recording is
    thread-safe so batched execution cannot corrupt the totals; cache
    hits are tallied separately and never contribute calls, tokens, or
    cost.

    An attached :class:`Budget` is charged on every recorded call:
    :meth:`record` first updates the totals (the spend is real either
    way), then lets the budget raise
    :class:`~repro.fm.errors.FMBudgetExceededError` if the call crossed a
    limit.
    """

    n_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_s: float = 0.0
    cost_usd: float = 0.0
    cache_hits: int = 0
    #: Dead time spent sleeping between retry attempts (backoff and
    #: server ``Retry-After`` waits).  Charged to the budget's latency
    #: axis when recorded — a 429 storm burns wall-clock even while no
    #: call is in flight, and ``max_latency_s`` must see that.
    wait_s: float = 0.0
    #: Hedged-request accounting: duplicates issued, duplicates
    #: abandoned/cancelled after losing the race, and the dollar spend
    #: of losers that completed anyway (real spend server-side, but
    #: *never* folded into ``cost_usd``/``n_calls`` — exactly one result
    #: per logical request reaches the main totals).
    hedges_issued: int = 0
    hedges_abandoned: int = 0
    hedge_wasted_cost_usd: float = 0.0
    #: Configuration and references, not accounting: left out of the
    #: record a checkpoint stores and restores.
    history: list[tuple[str, str]] = field(default_factory=list, metadata=NOT_RECORDED)
    keep_history: bool = field(default=False, metadata=NOT_RECORDED)
    budget: "Budget | None" = field(default=None, metadata=NOT_RECORDED)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, prompt: str, response: FMResponse) -> None:
        with self._lock:
            self.n_calls += 1
            self.prompt_tokens += response.prompt_tokens
            self.completion_tokens += response.completion_tokens
            self.latency_s += response.latency_s
            self.cost_usd += response.cost_usd
            if self.keep_history:
                self.history.append((prompt, response.text))
        if self.budget is not None:
            self.budget.charge(cost_usd=response.cost_usd, latency_s=response.latency_s)

    def check_budget(self) -> None:
        """Raise if the attached budget (if any) has no headroom left."""
        if self.budget is not None:
            self.budget.check()

    def record_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def record_wait(self, seconds: float) -> None:
        """Account retry/backoff sleep time before it is slept.

        The wait is recorded (and the budget's latency axis charged)
        *before* the executor sleeps, so an exhausted ``max_latency_s``
        surfaces immediately instead of after one more dead wait.  The
        raise, if any, happens after the totals are updated — the time
        will be spent either way once the caller decided to wait.
        """
        if seconds <= 0:
            return
        with self._lock:
            self.wait_s += seconds
        if self.budget is not None:
            self.budget.charge(latency_s=seconds, calls=0)

    def record_hedge_issued(self) -> None:
        with self._lock:
            self.hedges_issued += 1

    def record_hedge_abandoned(self, wasted_cost_usd: float = 0.0) -> None:
        """Tally a losing hedge duplicate (cancelled or raced out).

        ``wasted_cost_usd`` is the loser's spend when it completed anyway
        (a real provider bills both sides of the race); it is tracked
        separately so the main cost totals keep meaning "what produced
        the results".
        """
        with self._lock:
            self.hedges_abandoned += 1
            self.hedge_wasted_cost_usd += wasted_cost_usd

    def snapshot(self) -> dict[str, float]:
        """Totals, rounded, as a plain dict: the *report* view.

        A checkpoint records the exact fields instead (``to_record``).
        """
        with self._lock:
            return report_view(to_record(self))

    def reset(self) -> None:
        with self._lock:
            assign_record(self, to_record(CallLedger()))
            self.history.clear()


class FMClient(abc.ABC):
    """Abstract foundation-model client: text prompt in, text response out.

    Subclasses implement :meth:`_complete_text`; the public
    :meth:`complete` wraps it with token/latency/cost accounting so every
    client — simulated or real — feeds the same efficiency bookkeeping.
    Clients that keep per-call mutable state (a sampling counter, a
    scripted cursor) additionally override :meth:`_reserve_state` and
    :meth:`_complete_with_state` so batched execution stays deterministic.
    """

    def __init__(
        self,
        model: str = "simulated",
        cost_model: CostModel | None = None,
        cache: "FMCache | None" = None,
        budget: "Budget | None" = None,
    ) -> None:
        self.model = model
        self.cost_model = cost_model or CostModel(model=model)
        self.cache = cache
        self.ledger = CallLedger(budget=budget)

    # ------------------------------------------------------------------
    # Generation protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _complete_text(self, prompt: str, temperature: float) -> str:
        """Produce the raw completion text for *prompt* (serial path)."""

    def _reserve_state(self, prompt: str, temperature: float) -> object | None:
        """Thread-safely reserve per-call state in submission order.

        Stateless clients return None.  Stateful clients (seeded
        simulator, scripted cursor) return whatever
        :meth:`_complete_with_state` needs so generation itself is pure.
        """
        return None

    def _complete_with_state(
        self, prompt: str, temperature: float, state: object | None
    ) -> str:
        """Generate text for a call whose state was already reserved."""
        del state
        return self._complete_text(prompt, temperature)

    def _on_cache_hit(self, prompt: str, temperature: float) -> None:
        """Hook invoked when a cache hit replaces a call.  Stateful
        deterministic clients advance their per-call state here so a
        warm-cache run stays on the cold run's trajectory."""

    def is_stateless(self) -> bool:
        """True when completing a call consumes no per-call client state.

        Detected structurally: a client that overrides neither
        :meth:`_reserve_state` nor :meth:`_on_cache_hit` has nothing —
        no sampling counter, no script cursor — that call *order* could
        perturb, so any interleaving of its calls answers identically.
        The stage scheduler uses this to decide when the overlap plan may
        physically fan independent stages out instead of keeping dispatch
        in the canonical chain order that seeded (stateful) clients need.
        Stateful subclasses are free to override this with a cheaper or
        more precise answer.
        """
        return (
            type(self)._reserve_state is FMClient._reserve_state
            and type(self)._on_cache_hit is FMClient._on_cache_hit
        )

    # ------------------------------------------------------------------
    # Checkpoint protocol (resumable runs)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> object | None:
        """The client's per-call mutable state as a JSON-safe value.

        Stateless clients return ``None``.  Stateful deterministic
        clients (the simulator's sampling counter, a scripted cursor)
        return whatever :meth:`restore_checkpoint_state` needs to put a
        *fresh* instance back on the same trajectory — the mechanism that
        makes a resumed run bit-identical to an uninterrupted one.
        """
        return None

    def restore_checkpoint_state(self, state: object | None) -> None:
        """Restore state captured by :meth:`checkpoint_state`.

        The default accepts only ``None``: a stateful client that
        recorded real state into a checkpoint but cannot restore it must
        fail loudly, not resume onto a silently different trajectory.
        """
        if state is not None:
            raise ValueError(
                f"{type(self).__name__} cannot restore checkpoint state "
                f"{state!r}: override restore_checkpoint_state()"
            )

    # ------------------------------------------------------------------
    # Accounting helpers shared with the executor layer
    # ------------------------------------------------------------------
    def build_response(self, prompt: str, text: str) -> FMResponse:
        """Wrap raw completion text with token/latency/cost metadata."""
        prompt_tokens = estimate_tokens(prompt)
        completion_tokens = estimate_tokens(text)
        return FMResponse(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_s=self.cost_model.latency(completion_tokens),
            cost_usd=self.cost_model.price(prompt_tokens, completion_tokens),
            model=self.model,
        )

    def _cache_get(self, prompt: str, temperature: float) -> FMResponse | None:
        if self.cache is None:
            return None
        return self.cache.get(self.model, prompt, temperature)

    def _cache_put(self, prompt: str, temperature: float, response: FMResponse) -> None:
        if self.cache is not None:
            self.cache.put(self.model, prompt, temperature, response)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def complete(self, prompt: str, temperature: float = 0.0) -> FMResponse:
        """Run one completion and record it in the ledger.

        The call goes through a one-call :class:`~repro.fm.executor.FMExecutor`,
        so cache hits, the budget pre-flight and ledger recording follow
        the same rules as every batched call; a failed call raises.
        """
        from repro.fm.executor import FMExecutor

        return FMExecutor().complete(self, prompt, temperature)

    def complete_batch(
        self,
        requests: "list[FMRequest]",
        executor: "FMExecutor | None" = None,
    ) -> "list[FMResult]":
        """Run a batch of requests under one concurrency contract.

        Without an executor the batch runs serially; an
        :class:`~repro.fm.executor.FMExecutor` of any concurrency may be
        substituted and, for deterministic clients, produces identical
        responses and ledger totals.
        """
        from repro.fm.executor import FMExecutor

        return (executor or FMExecutor()).run(self, requests)
