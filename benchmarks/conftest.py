"""Shared benchmark fixtures.

The heavyweight Table 4/5 sweep runs once per session (``paper_sweep``)
and is shared by the table-4, table-5, and efficiency benches.  Every
bench writes its regenerated table to ``results/`` so the artifacts
survive the run.

Profile note: benches run each dataset at ``n_rows=1200`` with 3-fold CV
and a modelled full-scale time budget of 600 s (the simulator-scale
equivalent of the paper's one-hour limit — see EXPERIMENTS.md).
"""

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.eval import SweepConfig, run_sweep

BENCH_SWEEP_CONFIG = SweepConfig(n_rows=1200, n_splits=3, time_limit_s=600.0, seed=0)


def peak_rss_mb() -> float:
    """Process-lifetime peak resident set size, in MB (10⁶ bytes — the
    same unit ``memory_budget_mb`` uses).

    ``ru_maxrss`` is monotone over the process lifetime: it never goes
    down, so two phases whose peaks should be *compared* (in-memory vs
    sharded) must each run in their own subprocess.  Linux reports the
    counter in KiB, macOS in bytes.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    return peak * scale / 1e6


def environment() -> dict:
    """Where the numbers were measured; ``-dirty`` marks uncommitted edits."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def paper_sweep():
    """The full method × dataset × model sweep (runs once per session)."""
    return run_sweep(BENCH_SWEEP_CONFIG)


def bench_json_path(name: str, smoke: bool) -> Path:
    """Where a benchmark script writes its JSON: ``BENCH_<name>.json`` at
    the repo root for a full run, ``results/BENCH_<name>.smoke.json``
    (gitignored) for ``--smoke``, so a smoke run never overwrites the
    full-mode numbers."""
    root = Path(__file__).resolve().parent.parent
    if not smoke:
        return root / f"BENCH_{name}.json"
    (root / "results").mkdir(exist_ok=True)
    return root / "results" / f"BENCH_{name}.smoke.json"


def write_bench_json(out: Path, payload: dict) -> None:
    """Write a ``BENCH_*.json`` payload stamped with :func:`environment`,
    so every recorded number names the machine and commit it came from."""
    out.write_text(json.dumps({"environment": environment(), **payload}, indent=2) + "\n")
    print(f"wrote {out}")


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a regenerated table and echo it to the terminal."""
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n--- {name} ---\n{text}\n")
