"""Every top-level import in the package and the tests is used, and every
public top-level definition in the package is used outside the tests.

Stdlib-only scans: a name bound by a module-level ``import`` or ``from
... import`` must be read somewhere in its module, or be listed in the
module's ``__all__``; a public name a package module defines must be read
by the package or named by the benchmark in ``perfbench/``.
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


def _loads(tree: ast.AST) -> set[str]:
    """Names and attributes that ``tree`` reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _public_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_definition_is_read_by_the_package_or_the_benchmark():
    # A name counts as read when the package reads it outside its own
    # definition, or when perfbench names it: as a name, an attribute or a
    # string, since its trace targets name functions in strings.
    named = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        named |= _loads(tree)
        named |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)}
    statements = [(path.stem, stmt, _loads(stmt))
                  for path in sorted((ROOT / "src" / "bitmod").glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    unread = []
    for module, stmt, _ in statements:
        for name in _public_names(stmt):
            if name not in named and not any(
                    name in reads for _, other, reads in statements
                    if other is not stmt):
                unread.append(f"{module}.{name}")
    assert len(statements) > 100
    assert unread == []
