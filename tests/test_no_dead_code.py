"""Every function, class and method under ``src/`` has a caller on a run path.

A run path is ``src/`` itself, ``benchmarks/``, ``examples/`` or
``perfbench/`` outside its tests; tests do not count.  A definition is
used when a run path names it as a ``Name``, as an ``Attribute`` (a
bare ``b.amax`` picked without a call counts), or as the string of a
``getattr``/``hasattr``.  Imports and ``__all__`` entries do not count.
The scan matches by name only, so a name used anywhere keeps every
definition of it.

A second scan holds each non-``__init__`` module under ``src/`` to the
names it imports: each must be read there, as a ``Name`` or as a whole
string (a quoted annotation or an ``__all__`` entry).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Definitions no run path calls, kept on purpose: dotted name -> reason.
KEEP = {
    "repro.temporal.dtw.dtw_distance": "the scalar reference the vectorised DTW tests compare against",
    "repro.autograd.grad_check.check_gradients": "the finite-difference reference of the autograd tests",
    "repro.engine.store.ArtifactStore.clear_memory": "test setup hook: forces disk reads",
    "repro.data.dataset.SpatioTemporalDataset.subset_steps": "test setup hook: cuts a dataset to fewer steps",
    "repro.optim.optimizers.SGD": "the optimiser of the trainer and checkpoint test fixtures",
    "repro.data.missing.impute_linear": "kept for the missing-observations roadmap item",
    "repro.backend.registry.use_backend": "part of the backend seam that perfbench drives",
    "repro.serving.transport.http_server._Handler.do_GET": "called by http.server",
    "repro.serving.transport.http_server._Handler.do_POST": "called by http.server",
    "repro.serving.transport.http_server._Handler.log_message": "called by http.server",
}


def _run_path_files() -> list[Path]:
    files = [*PACKAGE.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py"),
             *(ROOT / "examples").rglob("*.py")]
    perfbench = ROOT / "perfbench"
    files += [p for p in perfbench.rglob("*.py")
              if "tests" not in p.relative_to(perfbench).parts]
    return files


def _used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            names.add(node.args[1].value)
    return names


def _definitions(tree: ast.Module, module: str):
    """``(dotted name, name)`` of each top-level function and class and
    each method, dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def _unused_definitions() -> set[str]:
    used = set()
    for path in _run_path_files():
        used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    unused = set()
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for dotted, name in _definitions(ast.parse(path.read_text()), module):
            is_dunder = name.startswith("__") and name.endswith("__")
            if not is_dunder and name not in used:
                unused.add(dotted)
    return unused


def test_every_definition_has_a_run_path_caller():
    unused = sorted(_unused_definitions() - KEEP.keys())
    assert not unused, (
        "no run path uses these; delete them with their tests, or add a "
        f"reason to KEEP: {unused}"
    )


def test_keep_list_names_only_unused_definitions():
    stale = sorted(KEEP.keys() - _unused_definitions())
    assert not stale, f"these KEEP entries are called or gone; drop them: {stale}"


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return sorted(imported - read)


def test_every_imported_name_is_read_in_its_module():
    unread = {
        str(path.relative_to(ROOT)): names
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py" and (names := _unread_imports(path))
    }
    assert not unread, f"these modules import names they never read; delete them: {unread}"
