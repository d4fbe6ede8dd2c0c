"""Fixed-seed property tests over scenario files and packed binaries:
whatever one field of a valid scenario holds (each key the scenario,
statement and syscall-record schemas name), `run` ends in a documented
exit code with no traceback and a trace that passes all six auditors; and
a packed binary with a byte flipped, cut short or extended loads and runs
the same way on a sync and an async board. Examples are derandomized, so
tier-1 stays deterministic."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernsim.audit import parse_trace, run_all_audits
from kernsim.board import Board, BoardConfig
from kernsim.cli import main as cli_main
from kernsim.errors import Key
from kernsim.loader import pack_binary
from kernsim.scenario import SCENARIO as SCENARIO_SCHEMA
from kernsim.scenario import STATEMENTS

from conftest import BOARDS_DIR, schema_fields, set_field, trace_events

# Every statement op and every syscall class, an upcall handler, a loop
# and a sync_command, on the drivers of the demo boards: alarm 0,
# console 1 (one read-only buffer) and probe 2 (one buffer of each kind).
SCENARIO = {
    "name": "fuzz",
    "min_memory": 256,
    "entry": "main",
    "credential": {"key_id": 0},
    "main": [
        {"op": "write_local", "offset": 0, "data": "68690a"},
        {"op": "read_local", "offset": 0, "len": 3},
        {"op": "syscall", "call": {"class": "subscribe", "driver": 1, "sub": 0,
                                   "fn": "on_done", "userdata": 1}},
        {"op": "expect", "pattern": {"variant": "success_upcall", "fn": "null"}},
        {"op": "syscall", "call": {"class": "ro_allow", "seg": "ram", "driver": 1,
                                   "buf": 0, "base": 0, "len": 3}},
        {"op": "syscall", "call": {"class": "rw_allow", "seg": "abs", "driver": 2,
                                   "buf": 0, "base": 0, "len": 0}},
        {"op": "syscall", "call": {"class": "command", "driver": 1, "cmd": 1,
                                   "args": [3, 0]}},
        {"op": "expect", "pattern": {"variant": "success"}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "loop", "count": 2, "body": [
            {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]},
        {"op": "sync_command", "driver": 0, "cmd": 1, "args": [5, 0],
         "fn": "on_alarm", "sub": 0, "userdata": 0},
        {"op": "syscall", "call": {"class": "exit"}},
        {"op": "halt"},
    ],
    "handlers": {
        "on_done": [{"op": "read_local", "offset": 0, "len": 1}],
        "on_alarm": [{"op": "syscall", "call": {"class": "command", "driver": 2,
                                                "cmd": 2, "args": [0]}}],
    },
}


# Each list of statements (main, a handler, a loop body) holds STATEMENTs.
_STATEMENT = Key({op: dict(schema) for op, schema in STATEMENTS.items()},
                 tag="op")
_STATEMENTS = Key(list, item=_STATEMENT)
_STATEMENT.type["loop"]["body"] = _STATEMENTS
FIELDS = list(schema_fields(Key({**SCENARIO_SCHEMA, "main": _STATEMENTS,
                                 "handlers": Key(dict, item=_STATEMENTS)}),
                            SCENARIO))

# Strings are either words of the scenario format or short strings over an
# alphabet holding hex digits, JSON escapes, a non-ASCII letter, a NUL and a
# lone surrogate.
WORDS = ("syscall", "expect", "write_local", "read_local", "halt", "loop",
         "sync_command", "yield", "subscribe", "command", "rw_allow",
         "ro_allow", "exit", "wait", "no_wait", "ram", "flash", "abs", "main",
         "null", "on_done", "on_alarm", "success", "failure")
VALUES = st.one_of(
    st.integers(-4, 300),
    st.integers(max_value=-1),
    st.integers(min_value=2 ** 31, max_value=2 ** 80),
    st.booleans(),
    st.sampled_from(WORDS),
    st.text(alphabet='0a"\\/é\x00\ud800', max_size=6),
    st.none(),
    st.lists(st.integers(-4, 4), max_size=3),
    st.dictionaries(st.sampled_from(WORDS), st.integers(-4, 4), max_size=2),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario_fuzz")


# A derandomized run draws the same values for every field, so each field
# also gets the values just past an integer field's bounds (0 and a
# register's 2**32 - 1), a bool and a non-ASCII string.
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: ".".join(map(str, f)))
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(value=VALUES)
@example(value=-1)
@example(value=2 ** 32)
@example(value=True)
@example(value="\u00e9")
def test_one_changed_scenario_field_never_crashes_run(workdir, field, value):
    doc = set_field(SCENARIO, field, value)
    app, trace = workdir / "app.json", workdir / "t.jsonl"
    app.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["run", "--board", str(BOARDS_DIR / "demo_sync.json"),
                         "--app", str(app), "--trace", str(trace)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    audits = run_all_audits(parse_trace(trace.read_bytes()))
    assert not any(audits.values()), audits


def test_the_field_list_does_not_shrink():
    assert len(FIELDS) >= 103


def test_the_unchanged_scenario_runs_every_statement(workdir):
    app, trace = workdir / "base.json", workdir / "base.jsonl"
    app.write_text(json.dumps(SCENARIO))
    assert cli_main(["run", "--board", str(BOARDS_DIR / "demo_sync.json"),
                     "--app", str(app), "--trace", str(trace)]) == 0
    events = parse_trace(trace.read_bytes())
    kinds = [event["kind"] for event in events]
    assert kinds.count("upcall_run") == 2  # the console's and the alarm's
    assert kinds.count("expect") == 3 and "uart_tx" in kinds
    assert events[-2]["payload"]["reason"] == "exit syscall"


SOURCE = json.dumps(SCENARIO).encode("utf-8")
BLOB = pack_binary(SOURCE, SCENARIO["min_memory"])
HEADER_LEN = len(BLOB) - len(SOURCE)
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.one_of(st.integers(0, HEADER_LEN - 1),
                                         st.integers(0, len(BLOB) - 1)),
              st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, len(BLOB) - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
)
CONFIGS = {name: BoardConfig.from_file(BOARDS_DIR / f"{name}.json")
           for name in ("demo_sync", "demo")}


def _mutate(mutation) -> bytes:
    op, *args = mutation
    if op == "flip":
        at, mask = args
        return BLOB[:at] + bytes([BLOB[at] ^ mask]) + BLOB[at + 1:]
    if op == "truncate":
        return BLOB[:args[0]]
    return BLOB + args[0]


@pytest.mark.parametrize("board_name", sorted(CONFIGS))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(mutation=MUTATIONS)
def test_mutated_binary_loads_and_runs_without_crashing(board_name, mutation):
    board = Board(CONFIGS[board_name])
    board.finalize()
    board.load_binary(_mutate(mutation), "fuzz")
    assert board.run(max_ticks=2000) in (0, 1, 3)
    trace_events(board)  # asserts that the trace passes all six auditors
