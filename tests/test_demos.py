import pathlib
import re
import subprocess
import sys

import pytest

from conftest import child_env

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
EXPECTED = pathlib.Path(__file__).parent / "data" / "demos"
README = DEMOS.parent / "README.md"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_python_demos_run(script):
    # the demos print plans and counterexamples, so any drift in their bytes
    # shows here; re-record tests/data/demos/<name>.out only for an
    # intended output change
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    expected = (EXPECTED / script).with_suffix(".out").read_text(encoding="utf-8")
    assert proc.stdout == expected


def test_every_recorded_output_has_a_demo():
    # an output left behind by a deleted demo would otherwise go unchecked
    scripts = {p.stem for p in DEMOS.iterdir() if p.suffix in (".py", ".sh")}
    assert [p.name for p in sorted(EXPECTED.glob("*.out")) if p.stem not in scripts] == []


def test_cli_tour_runs(tmp_path):
    # drive the tour with the interpreter running the tests; the script
    # expands $ASTRA unquoted, so an interpreter path with a space would split.
    # Its mktemp work directory lands under tmp_path and is replaced by a
    # fixed token before the byte comparison.
    env = child_env(ASTRA=f"{sys.executable} -m astra", TMPDIR=str(tmp_path))
    proc = subprocess.run(
        ["sh", str(DEMOS / "05_cli_tour.sh")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    stdout = re.sub(re.escape(str(tmp_path)) + r"/[^/\s]+", "$WORKDIR", proc.stdout)
    assert stdout == (EXPECTED / "05_cli_tour.out").read_text(encoding="utf-8")


def test_readme_library_tour_runs():
    # the README's one python block runs as written and prints what it
    # promises; re-record tests/data/readme_tour.out only for an intended
    # output change
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                         re.S)
    proc = subprocess.run(
        [sys.executable, "-c", tour],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    expected = (EXPECTED.parent / "readme_tour.out").read_text(encoding="utf-8")
    assert proc.stdout == expected
