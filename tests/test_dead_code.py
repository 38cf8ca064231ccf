"""Guards against code with no caller, read from the source with ``ast``.

Every public top-level function or class in ``src/vsqn`` must be named by
another src line or exported in ``vsqn.__all__``, every public method,
dataclass field and ``self.`` attribute of a src class must be read by src
code, and every import must be used in its module.  Every optional
``ProblemMeta`` constant must be stated by some src problem.  A knob ledger
pins the number of ``SolverConfig`` fields, config keys and schedule kinds.
"""

import ast
import dataclasses
from pathlib import Path

import vsqn
from vsqn.core import BATCH_READS, SCALAR_READS, ProblemMeta
from vsqn.harness.config import KNOWN_KEYS
from vsqn.solvers import _SCHEMES, SolverConfig

SRC = Path(vsqn.__file__).resolve().parent

# Called from tests only, and kept on purpose.
ALLOWED = {
    "moreau_value_grad": "Moreau envelope gradient certificate (criterion 4)",
    "norm2_smooth": "norm smoothing certificate (criteria 4 and 5)",
    "indicator_smooth": "indicator smoothing gradient certificate (criterion 4)",
    "check_smoothing_chain": "smoothing chain inequality certificate (criterion 5)",
    "StochasticProblem": "the one oracle contract, draw(handle) then "
                         "batch_gradient(x, batch, eta) in one call shape, and "
                         "the meta.smoothing levels, written as a Protocol",
}

# Members no src code reads, kept on purpose ("Class.name").
ALLOWED_MEMBERS = {
    "SecantError.s_dot_y": "exception payload for the caller",
    "ProxSolverError.residual": "exception payload for the caller",
    "QuadraticEnsemble.true_gradient":
        "exact gradient behind the finite-difference certificates",
    "LogisticProblem.full_gradient":
        "exact gradient behind the finite-difference certificates",
    "RunResult.trace": "per-iteration replay log behind the bitwise pair and "
                       "schedule certificates",
    "CurvaturePair.mu_used": "the pair's regularization weight, checked by the "
                             "schedule and bitwise pair certificates",
    "CurvaturePair.eta_used": "the pair's smoothing level, checked by the "
                              "schedule and bitwise pair certificates",
    "IterateRecord.wall_time": "the row's clock, for callers reading the log; "
                               "write_csv reads it from the packed row",
}

# Certificate reports: dataclasses whose fields the tests read, kept whole.
ALLOWED_REPORTS = {
    "FdReport": "finite-difference gradient certificate (criterion 4)",
    "RateFit": "rate fit behind criteria 6 and 7",
    "SecantReport": "secant certificate (criterion 1)",
    "ChainReport": "smoothing chain inequality certificate (criterion 5)",
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


def _read_names(modules: dict) -> set:
    """Names src code reads: attribute loads and string constants, the
    second because the loop and the CLI reach optional methods through
    getattr/hasattr."""
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _unread_members() -> dict:
    """Module of each public method, dataclass field or ``self.`` attribute
    of a src class whose name src code never reads, keyed "Class.name"."""
    modules = _modules()
    read = _read_names(modules)
    unread = {}
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            members = {stmt.name for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef)}
            if _is_dataclass(cls):
                members.update(stmt.target.id for stmt in cls.body
                               if isinstance(stmt, ast.AnnAssign)
                               and isinstance(stmt.target, ast.Name))
            members.update(
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self")
            unread.update({f"{cls.name}.{name}": module for name in members
                           if not name.startswith("_") and name not in read})
    return unread


def test_every_public_definition_has_a_src_caller():
    uncalled = {name: module for name, module in _uncalled_definitions().items()
                if name not in ALLOWED}
    assert not uncalled, f"no src caller and not exported: {uncalled}"


def test_every_public_member_is_read():
    unread = {name: module for name, module in _unread_members().items()
              if name not in ALLOWED_MEMBERS
              and name.split(".")[0] not in ALLOWED_REPORTS}
    assert not unread, f"never read by src: {unread}"


def test_allowlist_names_only_uncalled_definitions():
    assert set(ALLOWED) <= set(_uncalled_definitions())
    unread = set(_unread_members())
    assert set(ALLOWED_MEMBERS) <= unread
    assert set(ALLOWED_REPORTS) <= {name.split(".")[0] for name in unread}


def test_every_optional_problem_constant_is_stated_by_a_src_problem():
    # a field that src reads but no src problem sets only ever holds its
    # default, so every branch that reads it is dead
    stated = {kw.arg for tree in _modules().values() for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "ProblemMeta"
              for kw in node.keywords}
    optional = {f.name for f in dataclasses.fields(ProblemMeta)
                if f.default is not dataclasses.MISSING}
    assert not optional - stated, (
        f"ProblemMeta fields no src problem states: {sorted(optional - stated)}")


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


def test_knob_ledger():
    # every option is a configuration a test must cover: adding or removing
    # one is a deliberate edit, logged in CHANGES.md along with these counts
    assert len(dataclasses.fields(SolverConfig)) == 15, (
        "SolverConfig fields changed: log the change in CHANGES.md, then "
        "update this count")
    assert len(KNOWN_KEYS) == 42, (
        "config keys changed: log the change in CHANGES.md, then update "
        "this count")
    assert len(BATCH_READS) + len(SCALAR_READS) == 5, (
        "schedule kinds changed: log the change in CHANGES.md, then update "
        "this count")
    assert sum(len(reads) for *_, reads in _SCHEMES.values()) == 13, (
        "the fields the schemes read changed: log the change in CHANGES.md, "
        "then update this count")
