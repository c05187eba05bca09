"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_commented_answers():
    code = _library_example()
    comments = [line.split("# ", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")][:3]
    assert comments == ["N", "{-1|0,1}", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines()[:3] == comments
