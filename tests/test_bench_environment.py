"""Every ``BENCH_*.json`` writer stamps where its numbers were measured.

The writers live under ``benchmarks/`` and take minutes to run, so the
contract is pinned in two parts: the one writer they share stamps
``environment``, and every bench module that writes a ``BENCH_`` file
writes it through that writer and nothing else.
"""

import ast
import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
WRITERS = sorted(
    path for path in BENCHMARKS.glob("bench_*.py") if "BENCH_" in path.read_text()
)


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """Calls of a function or method called *name*."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_every_bench_writer_writes_through_the_stamping_writer():
    assert [path.stem for path in WRITERS] == [
        "bench_dataplane", "bench_efficiency", "bench_resilience", "bench_scheduler",
        "bench_serve", "bench_sharded", "bench_transport",
    ]
    for path in WRITERS:
        tree = ast.parse(path.read_text())
        assert _calls(tree, "write_bench_json"), path.name
        assert not _calls(tree, "write_text"), f"{path.name} writes a file unstamped"


def test_write_bench_json_stamps_the_environment(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCHMARKS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "BENCH_example.json"
    module.write_bench_json(out, {"rows": 3})
    payload = json.loads(out.read_text())
    assert payload["rows"] == 3
    assert set(payload["environment"]) == {"cpu_count", "python", "numpy", "git_sha"}
