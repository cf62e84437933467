"""The acceptance, T*, extension, linalg and integer-delta suites under
``python -O``: every acceptance claim, every postcondition of the extension
builders, the float refusals of the unchecked Matrix paths and the integrality
checks of the integer tables must rest on checks that raise, not on
``assert`` statements that -O strips."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUITES = [
    "tests/test_acceptance.py",
    "tests/test_tstar.py",
    "tests/test_extensions.py",
    "tests/test_linalg.py",
    "tests/test_delta_assembly.py",
]


def test_acceptance_suite_passes_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *SUITES],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
