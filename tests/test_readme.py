"""The README's code examples run and print what the README says."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from latss.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, language: str = "") -> str:
    """The first ```language block under the README heading ``section``."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    return re.search(f"```{language}\n(.*?)```", text[start:], re.DOTALL).group(1)


def test_library_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library quick start", "python"), {})
    assert out.getvalue().splitlines() == [
        "frozenset({0, 1, 2})",
        "frozenset({1})",
        "True",
    ]


def test_command_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    codes, sizes = [], {}
    for line in _block("Command line").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "latss"
        codes.append(main(argv[1:]))
        out = capsys.readouterr().out
        if argv[1] == "solve":
            sizes[argv[argv.index("--method") + 1]] = json.loads(out)["size"]
    # the last line checks a redundant expression, which exits 1
    assert codes == [0, 0, 0, 0, 0, 1]
    assert sorted(sizes) == ["brute", "cwd", "tree"]
    assert len(set(sizes.values())) == 1
