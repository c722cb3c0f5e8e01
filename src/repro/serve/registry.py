"""On-disk FeaturePlan store with versioning and pinning.

Layout::

    <root>/
        pins.json                 # {"plan name": pinned version}
        <plan name>/
            v1.json
            v2.json

Saving appends the next version; loading resolves an explicit version,
then the pin, then the latest.  Loaded plans are cached (they are
immutable) and every access is lock-guarded so concurrent servers can
share one registry instance.

Plan files and ``pins.json`` are written through
:func:`~repro.records.write_json_atomic`, so a crash mid-write leaves the
previous file whole.  A ``pins.json`` that still fails to parse raises
:class:`~repro.serve.plan.PlanError` naming the file: silently falling
back to the latest version would serve a plan nobody pinned.
"""

from __future__ import annotations

import json
import os
import re
import threading

from repro.records import write_json_atomic
from repro.serve.plan import FeaturePlan, PlanError, PlanNotFoundError

__all__ = ["PlanRegistry"]

_VERSION_FILE = re.compile(r"^v(\d+)\.json$")
_NAME_OK = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class PlanRegistry:
    """Load/save/pin FeaturePlans under a root directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._lock = threading.Lock()
        self._cache: dict[tuple[str, int], FeaturePlan] = {}
        #: Bumped on every save/pin/unpin through *this* instance; part of
        #: :meth:`state_token` so in-process mutations invalidate server
        #: plan caches immediately even when filesystem mtimes are coarse.
        self._generation = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _plan_dir(self, name: str) -> str:
        if not _NAME_OK.match(name):
            raise PlanError(f"invalid plan name {name!r}")
        return os.path.join(self.root, name)

    def _plan_path(self, name: str, version: int) -> str:
        return os.path.join(self._plan_dir(name), f"v{version}.json")

    @property
    def _pins_path(self) -> str:
        return os.path.join(self.root, "pins.json")

    # ------------------------------------------------------------------
    # Save / enumerate
    # ------------------------------------------------------------------
    def save(self, plan: FeaturePlan, name: str) -> int:
        """Persist *plan* as the next version of *name*; returns the version."""
        with self._lock:
            directory = self._plan_dir(name)
            os.makedirs(directory, exist_ok=True)
            version = (self._versions_unlocked(name) or [0])[-1] + 1
            plan.save(self._plan_path(name, version))
            self._cache[(name, version)] = plan
            self._generation += 1
            return version

    def _versions_unlocked(self, name: str) -> list[int]:
        directory = self._plan_dir(name)
        if not os.path.isdir(directory):
            return []
        found = []
        for entry in os.listdir(directory):
            match = _VERSION_FILE.match(entry)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def versions(self, name: str) -> list[int]:
        """Stored versions of *name*, ascending (empty when unknown)."""
        with self._lock:
            return self._versions_unlocked(name)

    def names(self) -> list[str]:
        """Plan names present in the registry."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry
            for entry in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, entry))
        )

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def _read_pins(self) -> dict[str, int]:
        try:
            with open(self._pins_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return {}
        except ValueError as exc:
            raise PlanError(f"corrupt pins file {self._pins_path!r}: {exc}") from exc
        if not isinstance(data, dict) or any(not isinstance(v, int) for v in data.values()):
            raise PlanError(
                f"corrupt pins file {self._pins_path!r}: expected {{name: version}}"
            )
        return data

    def _write_pins(self, pins: dict[str, int]) -> None:
        write_json_atomic(self._pins_path, json.dumps(pins, indent=2))
        self._generation += 1

    def pin(self, name: str, version: int) -> None:
        """Pin *name* to *version* (must exist); load() then defaults to it."""
        with self._lock:
            if version not in self._versions_unlocked(name):
                raise PlanNotFoundError(
                    f"cannot pin {name!r} to missing version {version}"
                )
            pins = self._read_pins()
            pins[name] = version
            self._write_pins(pins)

    def unpin(self, name: str) -> None:
        with self._lock:
            pins = self._read_pins()
            if pins.pop(name, None) is not None:
                self._write_pins(pins)

    def pinned(self, name: str) -> int | None:
        """The pinned version of *name*, or ``None``."""
        with self._lock:
            return self._read_pins().get(name)

    def state_token(self, name: str) -> tuple:
        """Cheap opaque token that changes whenever *name*'s pin-or-latest
        resolution could change.

        Combines this instance's mutation generation (exact for
        in-process saves/pins) with the pins-file and plan-directory
        ``mtime_ns`` (eventually correct for cross-process writers).  A
        server caching a resolved plan revalidates by comparing tokens —
        two stat calls instead of re-reading plan JSON per batch.
        """
        with self._lock:
            generation = self._generation
        def _mtime(path: str) -> int:
            try:
                return os.stat(path).st_mtime_ns
            except OSError:
                return -1
        return (generation, _mtime(self._pins_path), _mtime(self._plan_dir(name)))

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, name: str, version: int | None = None) -> FeaturePlan:
        """Load a plan: explicit *version* → pin → latest.

        Schema-version migration and fingerprint validation run inside
        :meth:`FeaturePlan.load`; an unreadable or too-new plan raises
        loudly rather than serving stale features.
        """
        with self._lock:
            if version is None:
                version = self._read_pins().get(name)
            if version is None:
                stored = self._versions_unlocked(name)
                if not stored:
                    raise PlanNotFoundError(
                        f"no plan named {name!r} in registry {self.root!r}"
                    )
                version = stored[-1]
            cached = self._cache.get((name, version))
            if cached is not None:
                return cached
            path = self._plan_path(name, version)
        plan = FeaturePlan.load(path)
        with self._lock:
            self._cache[(name, version)] = plan
        return plan
