"""Committed ``BENCH_<suite>.json`` files hold only entries a benchmark still writes.

``record_bench_result`` merges one test's entry into its suite file and never
drops the others, so deleting or renaming a benchmark leaves its last entry
behind for good.  This test reads every literal
``record_bench_result("<suite>", "<name>", ...)`` call in ``benchmarks/*.py``
and fails on any top-level key of a committed suite file that no call writes.
"""

from __future__ import annotations

import ast
import json
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def recorded_names() -> dict[str, set[str]]:
    """Suite -> entry names of every literal ``record_bench_result`` call."""
    names: dict[str, set[str]] = defaultdict(set)
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "record_bench_result"
                and len(node.args) >= 2
                and all(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        for arg in node.args[:2])
            ):
                names[node.args[0].value].add(node.args[1].value)
    return names


def test_committed_bench_files_hold_no_stale_entries():
    names = recorded_names()
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no committed BENCH files"
    stale = {}
    for path in paths:
        suite = path.stem.removeprefix("BENCH_")
        extra = set(json.loads(path.read_text(encoding="utf-8"))) - names[suite]
        if extra:
            stale[path.name] = sorted(extra)
    assert not stale, f"entries no benchmark writes: {stale}"
