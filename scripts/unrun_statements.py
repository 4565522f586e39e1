"""List every statement of ``src/etamix`` that the tier-1 suite never runs.

    python3 scripts/unrun_statements.py [PYTEST_ARGS ...]

Runs ``pytest -q`` over ``tests`` (plus any PYTEST_ARGS) in this process
under a line tracer installed with ``sys.settrace`` and
``threading.settrace``.  The ``python -m etamix`` children the tests start
trace themselves too: a temporary ``sitecustomize.py`` first on PYTHONPATH
loads this file in every child, which records its lines and writes them to
a temporary directory at exit.

Statements are read from each module with ``ast``.  Docstrings, like any
string statement, compile to nothing and are not counted, and the bodies
of ``if TYPE_CHECKING:`` and ``if __name__ == "__main__":`` are skipped.
A statement ran when a line of its own produced a line event: all its
lines for a simple statement, the header (decorators included) for a
compound one, and for ``try`` its header or its first body statement.  A
statement written on its header's line, as in ``if x: return``, cannot be
told apart from that header.

Prints ``path:line: source`` for each unrun statement after pytest's own
output, and exits 1 if any statement is unrun or pytest failed, 0
otherwise.  Uses only the standard library, besides the pytest it runs.
Takes about twice as long as an untraced tier-1 run.
"""
from __future__ import annotations

import ast
import atexit
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "etamix")

SITECUSTOMIZE = """\
import importlib.util

spec = importlib.util.spec_from_file_location("_unrun_statements", {script!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.trace_child({out!r})
"""


def start_tracing(ran: set) -> None:
    """Add (realpath, line) to ran for each line event in the package, in
    this thread and every thread started from now on."""
    inside: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.realpath(name)
            inside[name] = path if path.startswith(PACKAGE + os.sep) else None
        return local if inside[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)


def trace_child(out: str) -> None:
    """Trace this process and write its lines into a new file in out at exit."""
    ran: set = set()

    def write() -> None:
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(dir=out, suffix=".lines")
        with os.fdopen(fd, "w") as fh:
            fh.writelines(f"{p}\t{line}\n" for p, line in ran)

    atexit.register(write)
    start_tracing(ran)


def _skipped_body(node: ast.If) -> bool:
    """``if TYPE_CHECKING:`` or ``if __name__ == "__main__":``."""
    t = node.test
    if isinstance(t, ast.Name):
        return t.id == "TYPE_CHECKING"
    return (isinstance(t, ast.Compare) and isinstance(t.left, ast.Name)
            and t.left.id == "__name__" and len(t.comparators) == 1
            and isinstance(t.comparators[0], ast.Constant)
            and t.comparators[0].value == "__main__")


def statements(tree: ast.Module):
    """(node, lines of its own) for each statement, parents first."""

    def visit(body):
        for node in body:
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring, or another string the compiler drops
            if not hasattr(node, "body"):
                yield node, range(node.lineno, node.end_lineno + 1)
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            yield node, range(first, max(node.lineno, node.body[0].lineno - 1) + 1)
            if isinstance(node, ast.If) and _skipped_body(node):
                blocks = [node.orelse]
            else:
                blocks = [node.body, getattr(node, "orelse", []), getattr(node, "finalbody", [])]
                blocks += [h.body for h in getattr(node, "handlers", [])]
            for b in blocks:
                yield from visit(b)

    yield from visit(tree.body)


def unrun(path: str, ran_lines: set) -> list[int]:
    """Lines of path's statements that never ran."""
    with open(path) as fh:
        found = list(statements(ast.parse(fh.read(), path)))
    run = {node for node, own in found if any(line in ran_lines for line in own)}
    for node, _ in reversed(found):  # children first, so a try's body is settled
        if isinstance(node, ast.Try) and node.body[0] in run:
            run.add(node)
    return [node.lineno for node, _ in found if node not in run]


def main(args: list[str]) -> int:
    import pytest

    ran: set = set()
    with tempfile.TemporaryDirectory(prefix="unrun-") as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE.format(script=os.path.abspath(__file__), out=tmp))
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join([tmp, SRC] + ([old] if old else []))
        sys.path.insert(0, SRC)
        start_tracing(ran)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                                  os.path.join(ROOT, "tests"), *args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for name in os.listdir(tmp):
            if name.endswith(".lines"):
                with open(os.path.join(tmp, name)) as fh:
                    for row in fh:
                        p, line = row.rstrip("\n").split("\t")
                        ran.add((p, int(line)))

    count = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        real = os.path.realpath(path)
        here = {line for p, line in ran if p == real}
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in unrun(path, here):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            count += 1
    return 1 if count or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
