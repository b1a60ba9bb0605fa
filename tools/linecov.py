"""Statement coverage of ``src/curvesys`` under Tier-1, checked against a list.

Runs the Tier-1 tests in this process under a ``sys.settrace`` line
collector, lists every statement of ``src/curvesys/*.py`` that never ran, and
compares that list with ``tools/linecov_unrun.txt``.  It exits 1 when a
statement outside the list never ran or a listed one ran, and with pytest's
code when a test fails.  Standard library only, apart from pytest itself.

A statement is an ``ast`` statement whose first line the compiler gives code
to (a function's docstring and ``global`` get none).  Its key is
``file:function: first source line``, which survives edits elsewhere in the
file; a key that occurs twice stands for two statements.  Code that runs only
in a forked worker or a subprocess is not seen, so it counts as unrun unless
something in this process runs it too.

In the list, each key is on a line of its own, directly after a ``#`` line
that gives the reason it never runs; other ``#`` lines and blank lines are
free text.

Usage, from the repository root (extra arguments go to pytest)::

    python tools/linecov.py
    python tools/linecov.py -x
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "curvesys"
LISTED = Path(__file__).resolve().parent / "linecov_unrun.txt"


def _code_lines(code) -> Set[int]:
    """The lines that a code object or any code nested in it has code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> Dict[int, str]:
    """Line -> key of every statement of one source file."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    with_code = _code_lines(compile(source, str(path), "exec"))
    keys: Dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child.lineno in with_code:
                keys[child.lineno] = f"{path.name}:{scope}: {text[child.lineno - 1].strip()}"
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return keys


def run_tier1(args: List[str]) -> Tuple[int, Set[Tuple[str, int]]]:
    """Pytest's exit code and the (file, line) pairs of the package that ran."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: Set[Tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def collector(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC))
    # Subprocesses that the tests start import the same package.
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    sys.settrace(collector)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
    loaded = sys.modules.get("curvesys")
    if loaded is None or not str(loaded.__file__).startswith(prefix):
        sys.exit(f"curvesys was not imported from {PACKAGE}")
    return int(status), hits


def unrun(hits: Set[Tuple[str, int]]) -> Counter:
    """The keys of the package's statements that never ran, with counts."""
    out: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, key in statements(path).items():
            if (str(path), line) not in hits:
                out[key] += 1
    return out


def listed() -> Counter:
    """The keys of the committed list, each of which must follow a reason."""
    out: Counter = Counter()
    previous = ""
    for number, line in enumerate(LISTED.read_text(encoding="utf-8").splitlines(), 1):
        if line and not line.startswith("#"):
            if not previous.startswith("#"):
                sys.exit(f"{LISTED.name}:{number}: no '#' reason line directly above {line!r}")
            out[line] += 1
        previous = line
    return out


def main(argv: List[str]) -> int:
    allowed = listed()
    code, hits = run_tier1(argv)
    if code != 0:
        print(f"linecov: Tier-1 failed (pytest exit code {code})")
        return code
    never = unrun(hits)
    stopped, ran = never - allowed, allowed - never
    total = sum(len(statements(p)) for p in PACKAGE.glob("*.py"))
    print(f"linecov: {total - sum(never.values())} of {total} statements ran")
    for title, keys in (("never ran and not listed", stopped), ("listed but ran", ran)):
        if keys:
            print(f"linecov: {title}:")
            for key, n in sorted(keys.items()):
                print(f"  {key}" + (f"  (x{n})" if n > 1 else ""))
    return 1 if stopped or ran else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
