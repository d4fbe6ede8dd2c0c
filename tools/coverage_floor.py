"""Line-coverage floor for ``src/kernsim``, outside tier-1.

Usage (from the repository root):

    python3 tools/coverage_floor.py

Runs the tier-1 suite (``tests/``) in this process under a
``sys.settrace`` line collector that records only frames whose code
lives in ``src/kernsim``. A module's executable lines are the line
numbers its compiled code objects report through ``co_lines()``, line 0
left out. The floor file (``coverage_floor.txt`` beside this script)
lists the lines that tier-1 is allowed not to run, one entry a line: the
line's place, its stripped text between backticks, and the reason it
does not run:

    capsules.py:118 `return SyscallReturn.failure(ErrorCode.NOSUPPORT)` the base command

The script exits 1 when a line does not run and the floor does not list
it, when a listed line now runs (the entry is stale), when an entry has
no reason, names no executable line or gives text other than its line's
(a source edit moved the line), or when a test fails; and 0 otherwise.
``tests/test_coverage_floor.py`` checks every entry's form, text and
line in tier-1, without tracing. Lines that only subprocess tests run
(``cli.console_main``, ``__main__``) are not seen, since the collector
traces this process.

The tracer's own allocations show up in ``tracemalloc``, so the two
tests that bound what a load retains with it fail under tracing. They
are deselected; every other tier-1 test runs.
"""

from __future__ import annotations

import re
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kernsim"
FLOOR = Path(__file__).resolve().parent / "coverage_floor.txt"
DESELECTED = [
    "tests/test_loader.py::test_a_load_keeps_no_copy_of_the_packed_binary[sync]",
    "tests/test_loader.py::test_a_load_keeps_no_copy_of_the_packed_binary[async]",
]
ENTRY = re.compile(r"(?P<module>[\w/]+\.py):(?P<line>\d+)\s+`(?P<text>[^`]+)`"
                   r"\s+(?P<reason>\S.*)")


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines() -> Dict[str, Dict[int, str]]:
    """Each module's executable lines, by its path relative to the
    package: the stripped text of each, by its number."""
    lines = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        texts = source.splitlines()
        lines[path.relative_to(PACKAGE).as_posix()] = {
            line: texts[line - 1].strip()
            for obj in _code_objects(compile(source, str(path), "exec"))
            for _, _, line in obj.co_lines() if line}
    return lines


def run_tier1() -> Tuple[int, Dict[str, Set[int]]]:
    """Run tests/ under the line collector; (pytest's exit code, the
    lines run in each module)."""
    prefix = str(PACKAGE) + "/"
    ran: Dict[str, Set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # after the path, so that tests import this checkout

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            *(f"--deselect={test}" for test in DESELECTED),
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {Path(name).relative_to(PACKAGE).as_posix(): lines
                       for name, lines in ran.items()}


def read_floor(floor: str) -> Tuple[Dict[str, Dict[int, str]], List[str]]:
    """The listed lines of each module in the floor file's text ``floor``,
    each with the text its entry gives, and the entries that are malformed."""
    listed: Dict[str, Dict[int, str]] = {}
    bad = []
    for number, text in enumerate(floor.splitlines(), 1):
        if not text.strip() or text.startswith("#"):
            continue
        entry = ENTRY.fullmatch(text.strip())
        if entry is None:
            bad.append(f"{FLOOR.name}:{number}: want 'module.py:line `text` reason'")
            continue
        listed.setdefault(entry["module"], {})[int(entry["line"])] = entry["text"]
    return listed, bad


def misplaced(executable: Dict[str, Dict[int, str]],
              listed: Dict[str, Dict[int, str]]) -> List[str]:
    """The entries that name no module of the package, no executable line
    or a line whose text is not theirs."""
    problems = []
    for module, entries in sorted(listed.items()):
        lines = executable.get(module)
        if lines is None:
            problems.append(f"{module} is listed but is not a module of the package")
            continue
        for line, text in sorted(entries.items()):
            if line not in lines:
                problems.append(f"{module}:{line} is listed but not executable")
            elif lines[line] != text:
                problems.append(f"{module}:{line} is listed as `{text}` "
                                f"but reads `{lines[line]}`")
    return problems


def main() -> int:
    executable = executable_lines()
    listed, problems = read_floor(FLOOR.read_text(encoding="utf-8"))
    problems += misplaced(executable, listed)
    code, ran = run_tier1()
    if code != 0:
        problems.append(f"tier-1 failed under tracing (pytest exit {code})")
    total = sum(map(len, executable.values()))
    covered = sum(len(lines.keys() & ran.get(module, set()))
                  for module, lines in executable.items())
    for module, lines in sorted(executable.items()):
        missed = lines.keys() - ran.get(module, set())
        allowed = listed.get(module, {}).keys()
        problems += [f"{module}:{line} did not run and is not listed"
                     for line in sorted(missed - allowed)]
        problems += [f"{module}:{line} is listed but ran"
                     for line in sorted(allowed & (lines.keys() - missed))]
    print(f"coverage floor: {covered} of {total} executable lines ran")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
