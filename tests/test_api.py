"""Static checks of the package's names, read from the source with ``ast``.

Every name listed in a module's ``__all__``, and in the package's, must be
bound at the top level of that module; a name bound by a relative import
must be bound in the module it comes from.  Every name a module imports
must be used in that module or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shockcopula"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    """The names of the module's ``__all__``, empty where it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _imports(tree: ast.Module):
    """(line, bound name, source) of every import but ``__future__``'s, where
    the source of a relative import is (sibling module, imported name) and
    of any other import None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0], None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = node.module if node.level == 1 else None
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name, source and (source, alias.name)


def _bound(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level statements."""
    names = {name for _, name, _ in _imports(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, those in string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_exported_name_resolves(path):
    tree = _tree(path)
    assert sorted(set(_exported(tree)) - _bound(tree)) == []
    unresolved = [(line, *source) for line, _, source in _imports(tree)
                  if source and source[1] not in _bound(_tree(PACKAGE / f"{source[0]}.py"))]
    assert unresolved == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    kept = _used(tree) | set(_exported(tree))
    assert [(line, name) for line, name, _ in _imports(tree) if name not in kept] == []
