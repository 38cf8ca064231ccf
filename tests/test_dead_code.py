"""Guards against code with no caller, read from the source with ``ast``.

Every public top-level function or class in ``src/vsqn`` must be named by
another src line or exported in ``vsqn.__all__``, and every import must be
used in its module.
"""

import ast
from pathlib import Path

import vsqn

SRC = Path(vsqn.__file__).resolve().parent

# Called from tests only, and kept on purpose.
ALLOWED = {
    "moreau_value_grad": "Moreau envelope gradient certificate (criterion 4)",
    "norm2_smooth": "norm smoothing certificate (criteria 4 and 5)",
    "indicator_smooth": "indicator smoothing gradient certificate (criterion 4)",
    "check_smoothing_chain": "smoothing chain inequality certificate (criterion 5)",
    "StochasticProblem": "the oracle contract, written as a Protocol",
    "save_sparse_dataset": "writer of the loader's format, for its round trip",
}


def _modules():
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text("utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def _named(tree) -> set:
    """Identifiers a tree names: loads, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[0])
    return names


def _uncalled_definitions() -> dict:
    """name -> module of each public top-level def or class that no other
    top-level statement in src names and that vsqn does not export."""
    statements = [(module, stmt) for module, tree in _modules().items()
                  for stmt in tree.body]
    named = [(stmt, _named(stmt)) for _, stmt in statements]
    return {stmt.name: module for module, stmt in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and stmt.name not in vsqn.__all__
            and not any(stmt.name in names
                        for other, names in named if other is not stmt)}


def test_every_public_definition_has_a_src_caller():
    uncalled = {name: module for name, module in _uncalled_definitions().items()
                if name not in ALLOWED}
    assert not uncalled, f"no src caller and not exported: {uncalled}"


def test_allowlist_names_only_uncalled_definitions():
    assert set(ALLOWED) <= set(_uncalled_definitions())


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):   # re-exports of a package's __init__
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used.update(elt.value for elt in node.value.elts)
        unused += [f"{module}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"unused imports: {unused}"
