"""Fixed-seed property test over board files and register maps: whatever
one field of a valid board or of its alarm's register map holds, `check`
and `run` end in a documented exit code with no traceback, and a board
that passes `check` never fails `run` on configuration. The fields are
every key the board and register-map schemas name. Examples are
derandomized, so tier-1 stays deterministic."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernsim.board import BOARD, MAX_BUFFER_SIZE, MAX_PROCESSES, MAX_RAM_SIZE
from kernsim.cli import main as cli_main
from kernsim.errors import Key
from kernsim.regmap import REGISTER_MAP

from conftest import DATA_DIR, minimal_board_dict, schema_fields, set_field

BASE_BOARD = minimal_board_dict(trusted_key_ids=[7])
BOARD_FIELDS = list(schema_fields(Key(BOARD), BASE_BOARD))
ALARM_MAP = json.loads((DATA_DIR / "maps" / "alarm.json").read_text())
MAP_FIELDS = list(schema_fields(Key(REGISTER_MAP), ALARM_MAP))

# Strings are either words of the board format or short strings over an
# alphabet holding JSON escapes, a NUL and a lone surrogate.
WORDS = ("sync", "async", "digest_key_id", "alarm", "uart", "console", "probe",
         "manager", "annotation", "ProcessManagement", "uart.json", "R", "RW")
VALUES = st.one_of(
    st.integers(-4, 300),
    st.integers(max_value=-1),
    st.integers(min_value=2 ** 40, max_value=2 ** 80),
    st.booleans(),
    st.sampled_from(WORDS),
    st.text(alphabet='a"\\/.é\x00\ud800', max_size=6),
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


def _check_and_run(workdir, board, alarm_map=None):
    if alarm_map is not None:
        (workdir / "alarm.json").write_text(json.dumps(alarm_map))
        board = set_field(board, ("peripherals", "alarm", "map"), "alarm.json")
    path = workdir / "board.json"
    path.write_text(json.dumps(board))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        checked = cli_main(["check", "--board", str(path)])
        ran = cli_main(["run", "--board", str(path), "--app",
                        str(workdir / "app.json"),
                        "--trace", str(workdir / "t.jsonl")])
    assert checked in (0, 2)
    assert ran in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if checked == 0:
        assert ran != 2, err.getvalue()


def test_the_field_lists_do_not_shrink():
    assert len(BOARD_FIELDS) >= 49 and len(MAP_FIELDS) >= 30


# A derandomized run draws the same values for every field, so each field
# also gets a bool, a list and the value just past each integer bound:
# RAM size, max_processes, buffer_size and the alarm's 32-bit initial_count.
@pytest.mark.parametrize("field", BOARD_FIELDS, ids=lambda f: ".".join(map(str, f)))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(value=VALUES)
@example(value=True)
@example(value=[1])
@example(value=MAX_RAM_SIZE + 1)
@example(value=MAX_PROCESSES + 1)
@example(value=MAX_BUFFER_SIZE + 1)
@example(value=2 ** 32)
def test_one_changed_board_field_never_crashes_check_or_run(workdir, field, value):
    _check_and_run(workdir, set_field(BASE_BOARD, field, value))


# Register widths are 8, 16 or 32 bits, so each map field also gets the
# widths around them.
@pytest.mark.parametrize("field", MAP_FIELDS, ids=lambda f: ".".join(map(str, f)))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(value=VALUES)
@example(value=True)
@example(value=[1])
@example(value=16)
@example(value=33)
@example(value=2 ** 32)
def test_one_changed_register_map_field_never_crashes_check_or_run(
        workdir, field, value):
    _check_and_run(workdir, BASE_BOARD, set_field(ALARM_MAP, field, value))
