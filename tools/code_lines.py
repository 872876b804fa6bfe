"""Count the code lines of each module of ``src/bitmod``.

A code line is a line that is not blank, not a comment and not part of a
module, class or function docstring.  Prints one ``<lines>  <module>`` row
per module and the total.  Run from anywhere:

    python3 tools/code_lines.py [PACKAGE_DIR]
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bitmod"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers that the module's, classes' and functions' docstrings
    span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(package)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
