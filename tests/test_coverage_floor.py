"""The coverage floor's list, checked without tracing: every entry names
an executable line of src/kernsim by its text and gives a reason, so a
source edit that moves a listed line fails here, not only when
tools/coverage_floor.py runs the suite under its line collector."""

import runpy
from pathlib import Path

# run_path compiles the file without writing bytecode next to it.
FLOOR = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "tools" / "coverage_floor.py"))


def test_every_floor_entry_names_its_executable_line_by_text_with_a_reason():
    listed, malformed = FLOOR["read_floor"](FLOOR["FLOOR"].read_text(encoding="utf-8"))
    assert malformed == []
    assert listed
    assert FLOOR["misplaced"](FLOOR["executable_lines"](), listed) == []


def test_an_entry_that_no_longer_matches_its_line_is_refused():
    executable = FLOOR["executable_lines"]()
    (line, text), (moved, moved_text) = sorted(executable["capabilities.py"].items())[:2]
    entries = (f"capabilities.py:{line} `{text}` reason\n"
               f"capabilities.py:{moved} `{text}` reason\n"  # a shifted line
               f"capabilities.py:{moved + 1000} `{text}` reason\n"
               f"nowhere.py:{line} `{text}` reason\n"
               f"capabilities.py:{line} `{text}`\n"
               f"capabilities.py:{line} no text\n")
    listed, malformed = FLOOR["read_floor"](entries)
    assert len(malformed) == 2
    assert FLOOR["misplaced"](executable, listed) == [
        f"capabilities.py:{moved} is listed as `{text}` but reads `{moved_text}`",
        f"capabilities.py:{moved + 1000} is listed but not executable",
        "nowhere.py is listed but is not a module of the package",
    ]
