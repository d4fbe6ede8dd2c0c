"""Fixed-seed property test over board files: whatever one field of a
valid board holds, `check` and `run` end in a documented exit code with no
traceback, and a board that passes `check` never fails `run` on
configuration. Examples are derandomized, so tier-1 stays deterministic."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernsim.board import MAX_BUFFER_SIZE, MAX_PROCESSES, MAX_RAM_SIZE
from kernsim.cli import main as cli_main

from conftest import DATA_DIR, minimal_board_dict


def _full_board():
    """minimal_board_dict() with every optional key spelled out, so that
    each documented knob is a field the test can change."""
    cfg = minimal_board_dict(mpu_max_regions=8, upcall_queue_depth=8,
                             capsule_step_budget=100_000, max_processes=8,
                             trusted_key_ids=[7])
    cfg["peripherals"]["alarm"]["initial_count"] = 0
    cfg["peripherals"]["uart"]["map"] = str(DATA_DIR / "maps" / "uart.json")
    cfg["capsules"][1].update(provides={}, requires={}, min_buffer_size=0)
    return cfg


def _fields(node, prefix=()):
    """The key path of every field in a board dict, nested ones included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _fields(child, prefix + (key,))


FIELDS = list(_fields(_full_board()))

# Strings are either words of the board format or short strings over an
# alphabet holding JSON escapes, a NUL and a lone surrogate.
WORDS = ("sync", "async", "digest_key_id", "alarm", "uart", "console", "probe",
         "manager", "annotation", "ProcessManagement", "uart.json")
VALUES = st.one_of(
    st.integers(-4, 300),
    st.integers(max_value=-1),
    st.integers(min_value=2 ** 40, max_value=2 ** 80),
    st.booleans(),
    st.sampled_from(WORDS),
    st.text(alphabet='a"\\/.\u00e9\x00\ud800', max_size=6),
    st.none(),
    st.lists(st.integers(-4, 4), max_size=3),
    st.dictionaries(st.sampled_from(WORDS), st.integers(-4, 4), max_size=2),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "app.json").write_text(
        json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    return path


# A derandomized run draws the same values for every field, so each field
# also gets a bool, a list and the value just past each integer bound:
# RAM size, max_processes, buffer_size and the alarm's 32-bit initial_count.
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: ".".join(map(str, f)))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(value=VALUES)
@example(value=True)
@example(value=[1])
@example(value=MAX_RAM_SIZE + 1)
@example(value=MAX_PROCESSES + 1)
@example(value=MAX_BUFFER_SIZE + 1)
@example(value=2 ** 32)
def test_one_changed_board_field_never_crashes_check_or_run(workdir, field, value):
    cfg = _full_board()
    node = cfg
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    board = workdir / "board.json"
    board.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        checked = cli_main(["check", "--board", str(board)])
        ran = cli_main(["run", "--board", str(board), "--app",
                        str(workdir / "app.json"),
                        "--trace", str(workdir / "t.jsonl")])
    assert checked in (0, 2)
    assert ran in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if checked == 0:
        assert ran != 2, err.getvalue()
