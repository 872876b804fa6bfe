"""tools/code_lines.py counts what is neither blank, a comment nor a
docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module
docstring."""

import math  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # A comment line.
    x = """not a
docstring"""

    def f(self):
        """Function
        docstring."""
        def g():
            "Nested docstring."
            return 1
        return math.pi
'''


def test_code_lines_skips_blank_comment_and_docstring_lines():
    # import, class, x = (2 lines), def f, def g, return 1, return math.pi
    assert _load_tool().code_lines(SOURCE) == 8


def test_code_lines_totals_the_package(capsys):
    tool = _load_tool()
    assert tool.main(["code_lines.py"]) == 0
    rows = capsys.readouterr().out.splitlines()
    counts = [int(row.split()[0]) for row in rows]
    assert rows[-1].endswith("total") and counts[-1] == sum(counts[:-1])
    assert any(row.endswith("  quant.py") for row in rows)
