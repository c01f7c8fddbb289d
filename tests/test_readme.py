import doctest
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import marklat

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_as_shown():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def cli_lines():
    """Every ``marklat ...`` line of the README's sh blocks, with the exit
    code its ``# exit N`` comment names, or 0."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    for line in "".join(blocks).splitlines():
        if line.startswith("marklat "):
            code = re.search(r"# exit (\d+)", line)
            yield line, int(code.group(1)) if code else 0


def test_cli_lines_run_as_shown(tmp_path):
    # the weights-eval line reads my_valuation.json: the bundled f85
    package = Path(marklat.__file__).parent
    shutil.copy(package / "data" / "f85.json", tmp_path / "my_valuation.json")
    # the lines run in tmp_path, so the package's own path goes first
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    lines = list(cli_lines())
    assert len(lines) >= 10
    for line, want in lines:
        argv = shlex.split(line, comments=True)[1:]
        proc = subprocess.run(
            [sys.executable, "-m", "marklat.cli", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == want, (line, proc.stderr)
