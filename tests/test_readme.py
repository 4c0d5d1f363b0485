"""The README's code examples run and print what the README says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``section``."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    return re.search(r"```python\n(.*?)```", text[start:], re.DOTALL).group(1)


def test_library_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_python_block("Library quick start"), {})
    assert out.getvalue().splitlines() == [
        "frozenset({0, 1, 2})",
        "frozenset({1})",
        "True",
    ]
