"""No module under ``src/repro`` or ``tests`` imports a name it never uses.

A stdlib AST pass over every module-level import.  A name counts as used when
the module reads it (string annotations included), lists it in ``__all__``,
or (for ``src/repro``) another file of the repository imports it from that
module.  Package ``__init__`` files (re-exports), ``from __future__`` imports
and ``if TYPE_CHECKING:`` blocks are exempt.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src"
#: Every tree whose files may import a name from a ``repro`` module.
IMPORTING_TREES = ("src", "tests", "examples", "scripts", "bench")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_from(path: Path, tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(module, name)`` for every ``from module import name`` in ``tree``."""
    package = ""
    if path.is_relative_to(PACKAGE_ROOT):
        package = _module_name(path)
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            base = package.split(".")[: len(package.split(".")) - node.level + 1]
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            yield module, alias.name


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str, imported_elsewhere: Set[str] = frozenset()) -> List[str]:
    """``"line: name"`` for each module-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = _used_names(tree) | imported_elsewhere
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in used:
                    unused.append(f"{node.lineno}: {name}")
    return unused


def _repository_imports() -> Set[Tuple[str, str]]:
    pairs = set()
    for tree_name in IMPORTING_TREES:
        for path in (REPO_ROOT / tree_name).rglob("*.py"):
            pairs.update(_imported_from(path, ast.parse(path.read_text(encoding="utf-8"))))
    return pairs


def test_no_module_imports_a_name_it_never_uses():
    imports = _repository_imports()
    offenders = []
    for path in sorted((PACKAGE_ROOT / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = _module_name(path)
        imported_elsewhere = {name for owner, name in imports if owner == module}
        source = path.read_text(encoding="utf-8")
        for entry in unused_imports(source, imported_elsewhere):
            offenders.append(f"{os.path.relpath(path, REPO_ROOT)}:{entry}")
    assert offenders == []


def test_no_test_module_imports_a_name_it_never_uses():
    offenders = [
        f"{os.path.relpath(path, REPO_ROOT)}:{entry}"
        for path in sorted((REPO_ROOT / "tests").rglob("*.py"))
        for entry in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import hashlib\n", ["1: hashlib"]),
        ("from typing import Dict, List\nx: Dict = {}\n", ["1: List"]),
        ("from typing import Iterator\ndef f() -> 'Iterator[int]': ...\n", []),
        (
            "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import zlib\n"
            "print(TYPE_CHECKING)\n",
            [],
        ),
        ("from __future__ import annotations\nimport os.path\nos.sep\n", []),
        ("from .streaming import DOMAINS\n__all__ = ['DOMAINS']\n", []),
    ],
)
def test_the_check_sees_what_it_should(source, expected):
    assert unused_imports(source) == expected


def test_a_name_another_file_imports_is_kept():
    assert unused_imports("from .profiles import MVFST_LIKE\n", {"MVFST_LIKE"}) == []
