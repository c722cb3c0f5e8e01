"""Exact-hit caching for deterministic FM calls.

SMARTFEAT's proposal-strategy calls run at ``temperature == 0``: the same
prompt always earns the same answer, so re-asking is pure waste.  The
sampling strategy *relies* on fresh draws, so calls with ``temperature >
0`` are never cached.  :class:`FMCache` is a thread-safe LRU keyed on
``(model, prompt, temperature)`` with an optional persistent JSON store,
shared across clients (the operator-selector and function-generator
clients can point at one cache) and across runs (repeated
``fit_transform`` on the same dataset re-issues zero temperature-0
calls).

Each entry is the :func:`~repro.records.to_record` of an
:class:`~repro.fm.base.FMResponse`, and :meth:`FMCache.save` writes the
store through :func:`~repro.records.write_json_atomic`, the writer every
persisted artifact shares.  Loading still validates every entry: the
store is input from outside the program.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.records import from_record, to_record, write_json_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fm.base import FMResponse

__all__ = ["FMCache"]

_KEY_SEP = "\x1f"  # unit separator: never appears in prompts


def _key(model: str, prompt: str, temperature: float) -> str:
    return _KEY_SEP.join((model, repr(float(temperature)), prompt))


class FMCache:
    """Thread-safe exact-hit LRU over ``(model, prompt, temperature)``.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least-recently-used entry is evicted beyond it.
    path:
        Optional JSON store.  Existing entries are loaded eagerly;
        :meth:`save` writes the current contents back (the CLI saves on
        exit so later runs start warm).
    """

    def __init__(self, max_entries: int = 4096, path: str | Path | None = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        if self.path is not None and self.path.exists():
            try:
                self.load()
            except (ValueError, OSError) as exc:
                # A corrupt store should cost a cold start, not a crash.
                import sys

                print(
                    f"warning: ignoring unreadable FM cache {self.path}: {exc}",
                    file=sys.stderr,
                )

    # ------------------------------------------------------------------
    @staticmethod
    def cacheable(temperature: float) -> bool:
        """Only deterministic calls are safe to replay."""
        return temperature == 0.0

    def get(self, model: str, prompt: str, temperature: float) -> "FMResponse | None":
        """Cached response for an exact key, or None (counts hit/miss)."""
        if not self.cacheable(temperature):
            return None
        with self._lock:
            entry = self._entries.get(_key(model, prompt, temperature))
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(_key(model, prompt, temperature))
            self.hits += 1
            from repro.fm.base import FMResponse

            return from_record(FMResponse, entry)

    def put(self, model: str, prompt: str, temperature: float, response: "FMResponse") -> None:
        if not self.cacheable(temperature):
            return
        entry = to_record(response)
        with self._lock:
            key = _key(model, prompt, temperature)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.puts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        """Counter totals for reports and tests."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    def load(self) -> int:
        """Merge entries from :attr:`path`; returns how many were read.

        The store is validated entry by entry — a malformed record is
        skipped rather than poisoning a later :meth:`get`; a store whose
        overall shape is wrong raises :class:`ValueError` (which the
        eager load in ``__init__`` downgrades to a cold start).
        """
        if self.path is None:
            raise ValueError("cache has no persistent path")
        payload = json.loads(self.path.read_text())
        if not isinstance(payload, dict) or not isinstance(payload.get("entries", {}), dict):
            raise ValueError(f"malformed FM cache store: {self.path}")
        entries = payload.get("entries", {})
        loaded = 0
        with self._lock:
            for key, entry in entries.items():
                if not self._valid_entry(entry):
                    continue
                self._entries[key] = entry
                loaded += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return loaded

    _ENTRY_FIELDS = {
        "text": str,
        "prompt_tokens": int,
        "completion_tokens": int,
        "latency_s": (int, float),
        "cost_usd": (int, float),
        "model": str,
    }

    @classmethod
    def _valid_entry(cls, entry: object) -> bool:
        return (
            isinstance(entry, dict)
            and set(entry) == set(cls._ENTRY_FIELDS)
            and all(isinstance(entry[k], t) for k, t in cls._ENTRY_FIELDS.items())
        )

    def save(self) -> None:
        """Write the current entries to :attr:`path` as JSON.

        The write is atomic (:func:`~repro.records.write_json_atomic`): a
        crash mid-save leaves the previous store intact instead of a
        truncated JSON file that would force a cold start on the next run.
        """
        if self.path is None:
            raise ValueError("cache has no persistent path")
        with self._lock:
            payload = {"version": 1, "entries": dict(self._entries)}
        write_json_atomic(self.path, json.dumps(payload))
