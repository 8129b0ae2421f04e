"""README's library sketch runs: renaming or removing a name it uses fails
here, and so does a value its comments show that no longer holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library sketch\n\n```python\n(.*?)```", text,
                      re.S)
    assert match, "README has no Library sketch block"
    return match.group(1)


def _shown_value(comment: str):
    """(value,) of the longest prefix of a comment that is a Python
    literal and does not end in a comma, or None."""
    for cut in range(len(comment), 0, -1):
        if comment[:cut].rstrip().endswith(","):
            continue
        try:
            return (ast.literal_eval(comment[:cut]),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_library_sketch_runs_and_shows_its_values():
    code = _sketch()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, sep, comment = line.partition("  # ")
        if not sep or not expr.strip() or "=" in expr.split("(")[0]:
            continue
        shown = _shown_value(comment.strip())
        if shown is not None:
            assert eval(expr, namespace) == shown[0], line
            checked += 1
    assert checked >= 5
