"""The package ships only names that something uses."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "spinscatter").glob("*.py") if path.name != "__init__.py")
USERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree):
    """(name, node) of each module-level def, class and assigned name, and of each public method or property."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node


def uses(node):
    """Names that code under node reads: identifiers, attributes, and strings that are exactly a name.

    Strings count because perfbench patches functions by name; a docstring or comment that mentions a name does not.
    """
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found[child.attr] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value.isidentifier():
            found[child.value] += 1
    return found


def test_every_src_name_has_a_use():
    """Each module-level name and public method or property of the package is read outside its own definition.

    Where it counts: the package's modules other than __init__.py (which only re-exports), the acceptance criteria,
    or the benchmark's scripts.  A name that only its own unit tests call is dead weight in the package.
    """
    trees = {path: parse(path) for path in MODULES}
    everywhere = sum((uses(tree) for tree in [*trees.values(), *map(parse, USERS)]), Counter())
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name, node in definitions(tree)
        if everywhere[name] == uses(node)[name]
    ]
    assert unused == []
