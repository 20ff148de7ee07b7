"""List the lines of src/nilalg3 that can run but that the test suite never runs.

Usage (from the repository root; stdlib and pytest only):

    python3 tools/uncovered.py [pytest arguments]

The pytest arguments default to ``-q -p no:cacheprovider tests``.  pytest
runs in this process under ``sys.settrace``, and only frames whose code
comes from a file of ``src/nilalg3`` are traced line by line, so the run
takes several times as long as the plain suite.  A line can run when some
code object compiled from its module carries instructions for it; the body
of an ``if __name__ == "__main__":`` block is left out, since only a module
run as a script reaches it.  Code that tests run in a child process is not
seen.  Each line never reached is printed as ``file:line: text``, then a
count; the exit status is pytest's.

The script is a tool for reading the suite's reach by hand and is not run
by the tests.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nilalg3"


def _code_lines(code) -> set:
    """Every line that ``code`` or a code object nested in it has
    instructions for; line 0 marks compiler-made instructions."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _script_only_lines(tree) -> set:
    """The lines of the bodies of top-level ``if __name__ == "__main__":``."""
    lines = set()
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "__name__"):
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def runnable_lines(path: pathlib.Path) -> set:
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    return _code_lines(code) - _script_only_lines(ast.parse(source))


def main(argv: list) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    run = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in run else None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    sys.settrace(global_)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    missed = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(runnable_lines(path) - run[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} runnable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
