"""The package's surface: the exported names are the README's, and every
public definition in src/ is used by the package or by the benchmarks."""

import ast
import importlib
import re
from pathlib import Path

import poncelet_inversive

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "poncelet_inversive"


def _readme_public_names() -> list[str]:
    text = (ROOT / "README.md").read_text()
    para = re.search(r"^Public names:(.*?)\.\s*These", text, re.S | re.M)
    return re.findall(r"`(\w+)`", para.group(1))


def test_all_is_the_readme_list():
    names = _readme_public_names()
    assert sorted(poncelet_inversive.__all__) == sorted(names)
    for name in names:
        assert getattr(importlib.import_module("poncelet_inversive"), name)


def _references(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or spells as a string (the verify
    table names its checks by string)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_definition_is_used():
    # The re-exports in __init__ do not count as a use.
    trees = {path.name: ast.parse(path.read_text())
             for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    used = set().union(*map(_references, trees.values()))
    benchmark_imports = {
        name for path in (ROOT / "benchmarks").glob("*.py")
        for names in re.findall(r"^from poncelet_inversive[\w.]* import "
                                r"(\([^)]*\)|.*)", path.read_text(), re.M)
        for name in re.findall(r"\w+", re.sub(r"#.*", "", names))}
    unused = [f"{module}:{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in used | benchmark_imports]
    assert unused == []
