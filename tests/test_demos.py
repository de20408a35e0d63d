import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
EXPECTED = pathlib.Path(__file__).parent / "data" / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_python_demos_run(script):
    # the demos print plans and counterexamples, so any drift in their bytes
    # shows here; re-record tests/data/demos/<name>.out only for an
    # intended output change
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (EXPECTED / script).with_suffix(".out").read_text(encoding="utf-8")
    assert proc.stdout == expected


def test_cli_tour_runs():
    # drive the tour with the interpreter running the tests; the script
    # expands $ASTRA unquoted, so an interpreter path with a space would split
    env = {**os.environ, "ASTRA": f"{sys.executable} -m astra"}
    proc = subprocess.run(
        ["sh", str(DEMOS / "05_cli_tour.sh")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "== done" in proc.stdout
