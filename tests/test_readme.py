"""The README's python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_python_blocks_execute(capsys):
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks
    for match in blocks:
        # pad so tracebacks point at README line numbers
        code = "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
