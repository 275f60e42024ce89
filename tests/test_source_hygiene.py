"""Static checks on the package source.

A parameter that its function never reads is a knob that does nothing: a
caller can set it and see no change.  The scan parses every module of the
package with ``ast``; nested functions count as reads of the enclosing
function's parameters, as closures do.  Likewise an imported name that its
module never reads is dead weight; the package's ``__init__`` re-exports
names, so it is not scanned for those.
"""

import ast
from pathlib import Path

import outerbilliard

SRC = Path(outerbilliard.__file__).resolve().parent

# (module, function, parameter) kept on purpose, each with its reason; empty
ALLOWED_UNREAD = set()
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
