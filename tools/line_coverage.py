"""List the statements of src/momentroot that no test executes.

    python tools/line_coverage.py [PYTEST_ARGS...]

Runs pytest in this process (by default on tests/, quietly) under a
sys.settrace tracer that follows only frames of src/momentroot files, then
prints one line per statement that none of them reached, as
path:line: source, and the count.  It uses the standard library only, as
the coverage package need not be installed.

A statement counts as reached when any line of its own (a simple
statement's lines, a compound statement's header, decorators included)
raised a line event.  Docstrings, global and nonlocal declarations and
bare annotations inside functions compile to no code and are not listed.

Only this process is traced: statements run by CLI subprocesses (python -m
momentroot, python -O) and by the worker processes of fuzz --jobs pools are
listed as not reached even when a test runs them there.  Tracing makes the
suite several times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "momentroot"


def _own_lines(node: ast.stmt) -> range:
    """The lines of node that are not lines of a statement nested in it."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    nested = [child for field in ("body", "orelse", "finalbody", "handlers", "cases")
              for child in getattr(node, field, ()) if isinstance(child, ast.AST)]
    last = min(child.lineno for child in nested) - 1 if nested else node.end_lineno
    return range(first, max(first, last) + 1)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and body and body[0] is node
        and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, own lines) of each statement of the file that compiles
    to code."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    out = []

    def visit(parent: ast.AST, in_function: bool) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt):
                bare_annotation = isinstance(node, ast.AnnAssign) and node.value is None and in_function
                if not (_is_docstring(node, parent) or isinstance(node, (ast.Global, ast.Nonlocal))
                        or bare_annotation):
                    lines = _own_lines(node)
                    out.append((lines[0], lines))
            visit(node, in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return sorted(out)


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def follow(frame, event, arg):
        return local if frame.f_code.co_filename in reached else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(follow)
    sys.settrace(follow)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        hits = reached[name]
        for first, lines in statements(path):
            if not hits.intersection(lines):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} statements not reached (pytest exit status {int(status)})")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
