"""setup.py describes the package that actually lives under src/."""

from __future__ import annotations

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
