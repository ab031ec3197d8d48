#!/usr/bin/env python3
"""List the statement lines of src/afrokhlin that a pytest run never executes.

Run from anywhere, with optional pytest arguments (default: the tier-1 suite
in tests/):

    python3 scripts/line_coverage.py [pytest args ...]

A `sys.settrace` tracer, standard library only, records every line executed
in src/afrokhlin while pytest runs in this process.  The statement lines of a
module are the line numbers its compiled code objects map instructions to.
The script prints, per module, the statement lines that never ran, then the
total; it exits with pytest's status.  Code run in subprocesses (the tests
that start `python -m afrokhlin`) is not seen, so it counts as never run.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "afrokhlin"


def statement_lines(path: Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    hit: dict[str, set[int]] = {}
    prefix = str(SRC) + os.sep

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen = hit.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = executable = 0
    for path in sorted(SRC.glob("*.py")):
        lines = statement_lines(path)
        missed = sorted(lines - hit.get(str(path), set()))
        total, executable = total + len(missed), executable + len(lines)
        print(f"{path.name}: {len(missed)} of {len(lines)} never run: {missed}")
    print(f"total: {total} of {executable} statement lines never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
