"""Foundation-model substrate.

The paper drives SMARTFEAT with OpenAI GPT-4 (operator selector) and
GPT-3.5-turbo (function generator) through LangChain.  This environment has
no network, so the substrate supplies:

:class:`FMClient`
    The protocol a real API client would implement (``complete(prompt) →
    FMResponse``) with a per-client :class:`CallLedger` tracking calls,
    tokens, simulated latency, and dollar cost.
:class:`SimulatedFM`
    A deterministic, seeded foundation-model simulator.  It reads only the
    prompt text (never the raw data), infers column semantics with a
    lexicon, consults an open-world knowledge store, and answers the
    operator-selector / function-generator / CAAFE prompt shapes with
    plausible natural-text responses, including executable Python.
    :func:`simulated_pair` builds the paper's GPT-4 / GPT-3.5-turbo pair.
:class:`ScriptedFM` / :class:`RecordingFM` / :class:`ReplayFM`
    Test doubles: canned responses, call recording, and replay.
:class:`FMExecutor`
    The execution layer: batches of independent calls run inline at
    ``concurrency=1`` or fanned out over a bounded thread pool above it,
    with per-call retry, summed vs critical-path latency accounting, and
    the same deterministic results at any concurrency.
:class:`TransportFMClient` / :class:`SimulatedHTTPTransport`
    The production client shape: an :class:`FMClient` over a pluggable
    request/response transport with real latency and HTTP-style failure
    modes (429 + ``Retry-After``, 5xx, timeouts, resets), driving the
    :class:`RetryPolicy` backoff schedule end-to-end.  Stateless by
    construction, so the stage scheduler can physically overlap
    independent stages through it.
:class:`FMCache`
    Exact-hit LRU over ``(model, prompt, temperature)`` for the
    deterministic temperature-0 calls, optionally persisted to JSON.

Why the substitution preserves behaviour: SMARTFEAT's contribution is the
*architecture of FM interaction* — what is asked, how often, and how
answers become executable functions.  Every code path (proposal vs
sampling, parsing, codegen, row-level fallback, source suggestion, error
handling) is exercised identically whether the text comes from GPT-4 or
from the simulator.
"""

from repro.fm.adaptive import AIMDController, ConcurrencyGate
from repro.fm.base import Budget, CallLedger, FMClient, FMResponse
from repro.fm.cache import FMCache
from repro.fm.cost import CostModel, critical_path_seconds, estimate_tokens
from repro.fm.errors import (
    FMBudgetExceededError,
    FMConnectionError,
    FMError,
    FMParseError,
    FMRateLimitError,
    FMServerError,
    FMTimeoutError,
    FMTransportError,
)
from repro.fm.executor import (
    DEFAULT_RETRY_AFTER_CAP_S,
    ExecutionStats,
    FMExecutor,
    FMRequest,
    FMResult,
    RetryPolicy,
    SerialExecutor,
    ThreadPoolFMExecutor,
)
from repro.fm.hedging import HedgePolicy, LatencyTracker
from repro.fm.knowledge import KnowledgeStore, default_knowledge
from repro.fm.providers import (
    AnthropicMessagesTransport,
    HTTPProviderTransport,
    OpenAIChatTransport,
    live_provider_configured,
    provider_from_env,
)
from repro.fm.lexicon import ColumnRole, infer_role
from repro.fm.scripted import RecordingFM, ReplayFM, ScriptedFM
from repro.fm.simulated import SimulatedFM, simulated_pair
from repro.fm.transport import (
    ScriptedTransport,
    SimulatedHTTPTransport,
    Transport,
    TransportConnectionReset,
    TransportFMClient,
    TransportRequest,
    TransportResponse,
    TransportTimeout,
)

__all__ = [
    "AIMDController",
    "AnthropicMessagesTransport",
    "Budget",
    "CallLedger",
    "ColumnRole",
    "ConcurrencyGate",
    "CostModel",
    "DEFAULT_RETRY_AFTER_CAP_S",
    "ExecutionStats",
    "FMBudgetExceededError",
    "FMCache",
    "FMClient",
    "FMConnectionError",
    "FMError",
    "FMExecutor",
    "FMParseError",
    "FMRateLimitError",
    "FMRequest",
    "FMResponse",
    "FMResult",
    "FMServerError",
    "FMTimeoutError",
    "FMTransportError",
    "HTTPProviderTransport",
    "HedgePolicy",
    "KnowledgeStore",
    "LatencyTracker",
    "OpenAIChatTransport",
    "RecordingFM",
    "ReplayFM",
    "RetryPolicy",
    "ScriptedFM",
    "ScriptedTransport",
    "SerialExecutor",
    "SimulatedFM",
    "SimulatedHTTPTransport",
    "ThreadPoolFMExecutor",
    "Transport",
    "TransportConnectionReset",
    "TransportFMClient",
    "TransportRequest",
    "TransportResponse",
    "TransportTimeout",
    "critical_path_seconds",
    "default_knowledge",
    "estimate_tokens",
    "infer_role",
    "live_provider_configured",
    "provider_from_env",
    "simulated_pair",
]
