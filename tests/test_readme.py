"""The README's library quick tour and command-line examples run as written."""
import re
import shlex
from pathlib import Path

import pytest

from symgf.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_quick_tour_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.count("[pass]") == 3, out


def _cli_examples():
    """Every ``symgf`` command of the README's sh blocks, continuation lines joined."""
    text = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S))
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("symgf ")]


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: " ".join(argv[:3]))
def test_cli_example_runs(argv, tmp_path, monkeypatch):
    # data paths are relative to the repository; reports land in tmp_path
    monkeypatch.chdir(tmp_path)
    argv = [str(ROOT / a) if a.startswith("data/") else a for a in argv]
    if argv[0] != "compose":
        argv += ["--grid-n", "4"]
    assert main(argv) == 0
