"""README.md's python snippets run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _python_blocks() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(),
                          flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_snippets():
    assert len(_python_blocks()) == 4


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_snippet_runs(index):
    source = _python_blocks()[index]
    exec(compile(source, f"README.md[python block {index}]", "exec"), {})
