"""Every top-level import in the package and the tests is used.

A stdlib-only scan: a name bound by a module-level ``import`` or ``from
... import`` must be read somewhere in its module, or be listed in the
module's ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "bitmod").rglob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {node.lineno})"
                  for name, node in bound.items() if name not in read)


def test_no_unused_top_level_imports():
    assert len(SOURCES) > 20
    unused = {str(path.relative_to(ROOT)): names for path in SOURCES
              if (names := unused_imports(ast.parse(path.read_text())))}
    assert unused == {}
