"""Static checks on the package source.

A parameter that its function never reads is a knob that does nothing: a
caller can set it and see no change.  The scan parses every module of the
package with ``ast``; nested functions count as reads of the enclosing
function's parameters, as closures do.  Likewise an imported name that its
module never reads is dead weight; the package's ``__init__`` re-exports
names, so it is not scanned for those.  And a defaulted parameter that no
call in the package passes is a switch only tests or outside callers set.
The package's exports are README's "Library surface" list, module by
module, and every top-level function or class is read in the package or
exported: one that neither is has no caller but tests.
"""

import ast
import re
from pathlib import Path

import outerbilliard

SRC = Path(outerbilliard.__file__).resolve().parent

# (module, function, parameter) kept on purpose, each with its reason; empty
ALLOWED_UNREAD = set()
# (module, function, parameter): defaulted, passed by no call in src/, each
# kept for what sets it
ALLOWED_UNPASSED = {
    ("jacobi", "conjugate_grid_scan", "stop_at_first"): "acceptance c6 stops at the first hit",
    ("dynamics", "tangency", "orientation"): "the chord oracle solves both orientations",
    ("cli", "main", "argv"): "the entry point: the console script passes none, tests an argv",
}
# (module, name) imported but never read, kept because the benchmark's tracer
# wraps them there (tests/test_bench_tracer.py, TRACER_ONLY_IMPORTS)
ALLOWED_UNREAD_IMPORTS = {("jacobi", "_sderiv_arrays"), ("jacobi", "sderiv_scalar"),
                          ("rigidity", "_sderiv_arrays")}


def _unread_parameters():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.update((path.stem, node.name, p) for p in params
                         if p not in ("self", "cls") and p not in read)
    return found


def test_every_parameter_in_src_is_read():
    # equality, so an allow-list entry whose parameter is read again goes too
    unread = _unread_parameters()
    assert unread == ALLOWED_UNREAD, (
        f"parameters their function never reads: {sorted(unread - ALLOWED_UNREAD)}; "
        f"allowed but read: {sorted(ALLOWED_UNREAD - unread)}")


def _unread_imports():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.update((path.stem, name) for name in imported - read)
    return found


def test_every_import_in_src_is_read():
    unread = _unread_imports()
    assert unread == ALLOWED_UNREAD_IMPORTS, (
        f"imports their module never reads: {sorted(unread - ALLOWED_UNREAD_IMPORTS)}; "
        f"allowed but read: {sorted(ALLOWED_UNREAD_IMPORTS - unread)}")


def _defaulted_parameters(fn, in_class):
    """{parameter: its positional index, or None if keyword-only} of fn's
    defaulted parameters; a method's index leaves out self or cls."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    skip = 1 if in_class and positional[:1] in (["self"], ["cls"]) else 0
    found = {name: i - skip for i, name in enumerate(positional)
             if i >= len(positional) - len(args.defaults)}
    found.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is not None)
    return found


def _unpassed_defaults():
    """(module, function, parameter) of defaulted parameters that no call in
    src/ to a function of that name passes, by position or keyword; a class's
    __init__ is called by the class's name.  A call with *args passes every
    positional parameter, one with **kwargs every one."""
    defaults, passed = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = methods.get(id(node))
                called = owner if node.name == "__init__" else node.name
                for param, index in _defaulted_parameters(node, owner is not None).items():
                    defaults[(path.stem, node.name, param, called)] = index
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((name, i) for i in range(len(node.args)))
                passed.update((name, k.arg or "**") for k in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add((name, "*"))
    return {(module, fn, param) for (module, fn, param, called), index in defaults.items()
            if not {(called, param), (called, index), (called, "**")} & passed
            and not (index is not None and (called, "*") in passed)}


def test_every_defaulted_parameter_in_src_is_passed_in_src():
    # equality, so an allow-list entry that a call in src/ passes again goes too
    unpassed = _unpassed_defaults()
    assert unpassed == set(ALLOWED_UNPASSED), (
        f"defaulted parameters no call in src/ passes: "
        f"{sorted(unpassed - set(ALLOWED_UNPASSED))}; "
        f"allowed but passed: {sorted(set(ALLOWED_UNPASSED) - unpassed)}")


def _exports():
    """{module: names} that the package's __init__ imports from each module."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            found.setdefault(node.module, set()).update(a.asname or a.name for a in node.names)
    return found


def _readme_surface():
    """{module: names} of README's "- `module`: `name`, ..." bullets under
    Library surface."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library surface")[1].split("\n## ")[0]
    bullets = re.findall(r"^- `([a-z]+)`: (.*?)(?=\n- `|\n\n|\Z)", section, re.M | re.S)
    return {module: set(re.findall(r"`(\w+)`", names)) for module, names in bullets}


def test_exports_are_the_readme_surface():
    # equality both ways, per module: a name exported but not listed, or
    # listed but not exported, fails
    exported, listed = _exports(), _readme_surface()
    assert exported == listed, (
        f"exported, not in README: "
        f"{sorted((m, n) for m in exported for n in exported[m] - listed.get(m, set()))}; "
        f"in README, not exported: "
        f"{sorted((m, n) for m in listed for n in listed[m] - exported.get(m, set()))}")


def _unreached_definitions():
    """(module, name) of top-level functions and classes that no module of
    the package reads, by name or as an attribute, and __init__ does not
    export."""
    defined, read = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update((path.stem, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = set().union(*_exports().values())
    return {(module, name) for module, name in defined if name not in read | exported}


def test_every_definition_in_src_is_read_or_exported():
    unreached = _unreached_definitions()
    assert not unreached, f"defined in src/, never read there and not exported: {sorted(unreached)}"


# a wall time, a memory size or a machine name: measurements, which belong in
# CHANGES.md or a BENCH_*.json beside the machine they were taken on.
# Structural counts, such as radius evaluations per step, are not matched
MEASUREMENT = re.compile(r"[0-9][0-9.,-]*\s?(ns|us|µs|ms|KiB|MiB|GiB)\b|Xeon")


def test_measurement_pattern_tells_a_timing_from_a_count():
    for text in ("costs 2.4-8.8 us a lane", "about 5 ms", "peaks at 1.9 MiB", "2-core Xeon",
                 "120µs"):
        assert MEASUREMENT.search(text), text
    for text in ("13 radius evaluations per step", "4096 seeds", "3 usages", "t = 1e-3"):
        assert not MEASUREMENT.search(text), text


def test_no_measurement_in_src():
    # no allow-list: a figure that moves with the machine goes to CHANGES.md
    found = [f"{path.relative_to(SRC)}:{i}: {line.strip()}"
             for path in sorted(SRC.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if MEASUREMENT.search(line)]
    assert not found, "measurements in src/, move them to CHANGES.md:\n" + "\n".join(found)
