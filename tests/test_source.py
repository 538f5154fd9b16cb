"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import revwiener

SRC = Path(revwiener.__file__).resolve().parent


def _init_public_imports(init_path):
    """Public names that ``from .module import ...`` statements bring into the package."""
    tree = ast.parse(init_path.read_text(encoding="utf-8"), filename=str(init_path))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_names_exactly_the_public_imports():
    exported = set(revwiener.__all__)
    imported = _init_public_imports(SRC / "__init__.py")
    assert len(revwiener.__all__) == len(exported), "duplicate names in revwiener.__all__"
    assert not exported - imported, f"stale in __all__: {sorted(exported - imported)}"
    assert not imported - exported, f"imported but missing from __all__: {sorted(imported - exported)}"


def test_no_assert_in_src():
    # `python -O` strips asserts, so a check that guards a result must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/revwiener: {', '.join(found)}"


def test_cli_import_loads_no_process_pool():
    # Every run pays for its imports; only a --jobs run above 1 needs a process pool.
    code = (
        "import revwiener.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


# Every run pays for module-load imports in its set-up time, so a new one
# must be a deliberate change to this set.
MODULE_LOAD_IMPORTS = {
    "__future__", "argparse", "dataclasses", "heapq", "json", "math",
    "os", "random", "re", "sys", "time", "typing",
}


def _load_time_imports(node):
    """Import statements that run when the module loads: all but those in function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _load_time_imports(child)


def test_no_new_module_load_import():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in _load_time_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif node.level == 0:
                names = [node.module]
            else:
                continue  # a module of the package itself
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    extra = {name: where for name, where in found.items() if name not in MODULE_LOAD_IMPORTS}
    assert not extra, f"module-load imports outside the allowed set: {extra}"


def test_enumeration_is_independent_of_the_closed_forms():
    # An oracle that reused the closed forms could not disagree with them.
    imported = set()
    for node in ast.walk(ast.parse((SRC / "enumeration.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.rpartition(".")[2] == "closed_forms"}


def _enumeration_names_verify_reads():
    """Attributes verify reads off the enumeration module, and names it imports from it."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "enumeration"
    }
    read.update(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "enumeration"
        for alias in node.names
    )
    return read


def test_verify_reads_no_private_enumeration_name():
    # verify asks the oracles through their public entry points only.
    private = {name for name in _enumeration_names_verify_reads() if name.startswith("_")}
    assert not private, f"verify reads private enumeration names: {sorted(private)}"


def test_verify_reads_the_oracles_through_rank_trees_alone():
    # Every campaign asks one question of one oracle, so verify reads only the
    # ranking, the bound rule that guards it and the default bounds.
    read = _enumeration_names_verify_reads()
    extra = {name for name in read - {"rank_trees", "class_bound", "check_bound"} if not name.startswith("DEFAULT_")}
    assert "rank_trees" in read and not extra, f"verify reads other enumeration names: {sorted(extra)}"
