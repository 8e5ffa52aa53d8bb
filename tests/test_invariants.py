"""Library invariants fail through InvariantError, under any interpreter flag."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# plancherel at n_max 4, first as shipped, then with the tableau count of
# (2, 1) off by one; prints one status per line.  The assert stops the
# script unless the interpreter strips assert statements.
_PLANCHEREL_TWICE = """
from ycalc import growth
from ycalc.partitions import Partition
from ycalc.verify import run_identity

assert False, "this line must be stripped"
print(run_identity("plancherel", n_max=4).status)
counts = growth.tableau_counts

def off_by_one(n_max):
    f = counts(n_max)
    f[Partition((2, 1))] += 1
    return f

growth.tableau_counts = off_by_one
print(run_identity("plancherel", n_max=4).status)
"""


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "ycalc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Names that may stay unreachable from cli.main.
_UNREACHABLE_ALLOWED: frozenset[str] = frozenset()


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> dict[str, list[ast.AST]]:
    """Every def, class and assigned name at module level in src/ycalc, and
    every named method of a class (properties and class methods included),
    dunders aside, with the nodes that define it.  A class is defined by its
    statement less its named methods, so its dunder methods are reached
    with it and each named method only by its own name."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted((SRC / "ycalc").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                members = [
                    m for m in node.body
                    if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name)
                ]
                for member in members:
                    defs.setdefault(member.name, []).append(member)
                rest = [b for b in node.body if b not in members]
                defs.setdefault(node.name, []).extend(
                    [*node.bases, *node.keywords, *node.decorator_list, *rest]
                )
                continue
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not _is_dunder(name):
                    defs.setdefault(name, []).append(node)
    return defs


def test_every_module_level_name_is_reachable_from_main():
    # Reachability by name: a definition is reached when a reached
    # definition mentions its name, as a name or as an attribute.  Imports
    # do not count, so a name only the tests or the package namespace use
    # stays unreached.
    defs = _definitions()
    reached: set[str] = set()
    todo = ["main"]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    todo.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    todo.append(sub.attr)
    assert sorted(set(defs) - reached - _UNREACHABLE_ALLOWED) == []



# Defaulted parameters, as (function, parameter), that no call in src/
# needs to pass: cli.main(argv) is the tests' entry point.
_DEFAULT_UNPASSED_ALLOWED = frozenset({("main", "argv")})


def _call_name(call: ast.Call, owner: str | None) -> str | None:
    """The name a call is matched by: the called name or attribute, and
    the class for cls(...) inside a class body."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return owner if name == "cls" and owner else name


def _calls_and_defaults() -> tuple[dict[str, list[ast.Call]], list[tuple[str, str, int | None, str]]]:
    """Every call in src/ycalc by name, and every defaulted parameter of a
    function or method there as (name, parameter, positional index or
    None for keyword-only, where).  A method's index leaves out self or
    cls, and a class's __init__ goes by the class name."""
    calls: dict[str, list[ast.Call]] = {}
    defaults = []

    def visit(node: ast.AST, owner: str | None, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                calls.setdefault(_call_name(child, owner), []).append(child)
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = [*args.posonlyargs, *args.args]
                method = isinstance(node, ast.ClassDef)
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                skip = 1 if method and not static else 0
                name = node.name if method and child.name == "__init__" else child.name
                where = f"{path.name}:{child.lineno}"
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    defaults.append((name, arg.arg, i - skip, where))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        defaults.append((name, arg.arg, None, where))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner, path)

    for path in sorted((SRC / "ycalc").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None, path)
    return calls, defaults


def test_every_defaulted_parameter_is_passed_in_src():
    # A call passes a parameter by keyword, by reaching its position, or
    # through *args or **kwargs.  A default that only the tests override
    # is a second code path that the library never takes.
    calls, defaults = _calls_and_defaults()

    def passed(call: ast.Call, param: str, index: int | None) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return index is not None and len(call.args) > index

    unpassed = [
        f"{where}: {name}({param})"
        for name, param, index, where in defaults
        if (name, param) not in _DEFAULT_UNPASSED_ALLOWED
        and not any(passed(call, param, index) for call in calls.get(name, ()))
    ]
    assert unpassed == []

def test_every_import_is_read():
    # __init__.py imports to re-export; every other module must read each
    # name it imports (as a name, or as the root of an attribute).
    unused = []
    for path in sorted((SRC / "ycalc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_every_lru_cache_decorates_a_module_level_function():
    # fresh_memos clears the cache_clear of every module-level name, so a
    # memo anywhere else would outlive it.  alpha_keyed_memo's inner cache
    # is the one exception: its lookup carries that cache's cache_clear.
    misplaced = []
    for path in sorted((SRC / "ycalc").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        placed = {
            id(node)
            for top in tree.body
            if isinstance(top, ast.FunctionDef)
            for decorator in top.decorator_list
            for node in ast.walk(decorator)
        }
        placed |= {
            id(node)
            for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == "alpha_keyed_memo"
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None) if isinstance(node, ast.Attribute) else None
            if name in ("lru_cache", "cache") and id(node) not in placed:
                misplaced.append(f"{path.name}:{node.lineno}")
    assert misplaced == []


def test_plancherel_fails_on_a_wrong_count_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PLANCHEREL_TWICE],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["verified", "failed"]
