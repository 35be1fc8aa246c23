"""setup.py describes the package that actually lives under src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_names_the_src_package():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "repro"
    assert (ROOT / "src" / "repro" / "__init__.py").is_file()


def test_importing_one_driver_leaves_the_registry_unloaded():
    """``repro.experiments`` loads its registry, and with it every driver, on first use."""
    code = "\n".join([
        "import sys",
        "import repro.experiments.scenario",
        "loaded = [m for m in sys.modules",
        "          if m == 'repro.experiments.registry' or m.startswith('repro.barometer')]",
        "assert not loaded, loaded",
        "from repro.experiments import EXPERIMENTS, get_experiment, list_experiments",
        "assert list_experiments() == sorted(EXPERIMENTS)",
        "assert get_experiment('table2') is EXPERIMENTS['table2']",
        "assert 'repro.barometer' in sys.modules",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
