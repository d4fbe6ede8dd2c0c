"""Fixed-seed property tests over scenario files and packed binaries:
whatever one field of a valid scenario holds (each key the scenario,
statement and syscall-record schemas name), `check` and `run` end in a
documented exit code with no traceback, the run's trace passes all six
auditors, and a scenario that passes `check` is never refused by `run`;
and a packed binary with a byte flipped, cut short or extended loads and
runs the same way on a sync and an async board. Examples are
derandomized, so tier-1 stays deterministic."""

import contextlib
import functools
import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernsim import board as board_module
from kernsim import kernel as kernel_module
from kernsim.audit import parse_trace, run_all_audits
from kernsim.board import Board, BoardConfig
from kernsim.cli import main as cli_main
from kernsim.errors import Key
from kernsim.loader import pack_binary
from kernsim.scenario import SCENARIO as SCENARIO_SCHEMA
from kernsim.scenario import STATEMENTS, parse_script_bytes

from conftest import BOARDS_DIR, make_board, schema_fields, script_source, set_field, \
    trace_events

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
    board = str(BOARDS_DIR / "demo_sync.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        checked = cli_main(["check", "--board", board, "--app", str(app)])
        code = cli_main(["run", "--board", board, "--app", str(app),
                         "--trace", str(trace)])
    assert checked in (0, 2)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    events = parse_trace(trace.read_bytes())
    audits = run_all_audits(events)
    assert not any(audits.values()), audits
    if checked == 0:  # what check passes, run does not refuse
        assert code != 2, err.getvalue()
        assert "config_error" not in [event["kind"] for event in events]


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


# Loops whose calls carry their syscall text from parse. On the test board,
# driver 0 is the alarm, 2 a probe with one buffer of each kind and 3 a
# probe whose buffer only ever gets an absolute allow; 9 names no driver.
_RAM_BASES, _FLASH_BASES = range(0, 64), range(0, 8)


def _call(klass, **record):
    return {"op": "syscall", "call": {"class": klass, **record}}


def _loop_statement(rng, depth):
    """One statement of a loop body, which may be a loop itself."""
    pick = rng.randrange(12 if depth < 3 else 11)
    if pick == 0:
        return _call("command", driver=2, cmd=1, args=[rng.randrange(256),
                                                       rng.randrange(256)])
    if pick == 1:
        return _call("command", driver=2, cmd=2, args=[rng.randrange(256)])
    if pick == 2:
        return _call("command", driver=9, cmd=rng.randrange(4))
    if pick == 3:
        return _call("yield", mode="no_wait")
    if pick == 4:
        return _call("subscribe", driver=0, sub=0, fn=rng.choice(("on_alarm", "null")),
                     userdata=rng.randrange(2 ** 32))
    if pick == 5:
        return _call("rw_allow", driver=2, buf=0, base=rng.choice(_RAM_BASES),
                     len=rng.randrange(16), seg="ram")
    if pick == 6:
        return _call("ro_allow", driver=2, buf=0, base=rng.choice(_FLASH_BASES),
                     len=rng.randrange(8), seg="flash")
    if pick == 7:
        return _call("rw_allow", driver=3, buf=0, base=rng.randrange(2 ** 32),
                     len=0, seg="abs")
    if pick == 8:
        return {"op": "sync_command", "driver": 0, "cmd": 1,
                "args": [rng.randrange(200), 0], "fn": "on_alarm"}
    if pick == 9:
        return {"op": "expect", "pattern": rng.choice((
            {"variant": "success"}, {"variant": "success_value", "value": 0},
            {"variant": "failure", "err": "NODEVICE"}))}
    if pick == 10:
        return {"op": "write_local", "offset": rng.randrange(64),
                "data": bytes(rng.randrange(256) for _ in range(2)).hex()}
    return _loop(rng, depth + 1, rng.randrange(4))


def _loop(rng, depth, count, *fixed):
    body = [*fixed, *(_loop_statement(rng, depth) for _ in range(rng.randrange(1, 5)))]
    rng.shuffle(body)
    return {"op": "loop", "count": count, "body": body}


def _looped_script(seed):
    """A script whose outer loop holds a ram and a flash allow, a
    sync_command and a nested loop, among seeded statements."""
    rng = random.Random(seed)
    inner = _loop(rng, 2, rng.randrange(2, 4), _call("command", driver=2, cmd=2, args=[1]))
    outer = _loop(rng, 1, rng.randrange(2, 4), inner,
                  _call("rw_allow", driver=2, buf=0, base=rng.choice(_RAM_BASES),
                        len=8, seg="ram"),
                  _call("ro_allow", driver=2, buf=0, base=rng.choice(_FLASH_BASES),
                        len=4, seg="flash"),
                  {"op": "sync_command", "driver": 0, "cmd": 1, "args": [5, 0],
                   "fn": "on_alarm"})
    main = [_loop_statement(rng, 1), outer, _loop_statement(rng, 1), {"op": "halt"}]
    handlers = {"on_alarm": [_call("command", driver=2, cmd=2, args=[0])]}
    return script_source(main, handlers, 256)


def _run_twice_loaded(monkeypatch, source):
    """The trace of two processes that run one parsed script, and the
    board; both parse it through one cache, so they share its steps."""
    cached = functools.lru_cache()(parse_script_bytes)
    monkeypatch.setattr(board_module, "parse_script_bytes", cached)
    monkeypatch.setattr(kernel_module, "parse_script_bytes", cached)
    board = make_board()
    board.load_app(source)
    board.load_app(source)
    assert board.run(20_000) in (0, 1)  # 1: an expect failed
    assert [pcb.state for pcb in board.kernel.processes.values()] == ["exited"] * 2
    return board.trace.out.getvalue(), board


@pytest.mark.parametrize("seed", range(16))
def test_a_call_text_bound_at_parse_moves_no_trace_byte(monkeypatch, seed):
    source = _looped_script(seed)
    steps = parse_script_bytes(source).main
    assert any(text is not None for _, _, text in steps)
    bound, board = _run_twice_loaded(monkeypatch, source)
    # The kernel builds every call's text from the call it dispatches.
    handle = kernel_module.Kernel.handle_syscall
    monkeypatch.setattr(kernel_module.Kernel, "handle_syscall",
                        lambda kern, pcb, inv, text=None: handle(kern, pcb, inv))
    unbound, _ = _run_twice_loaded(monkeypatch, source)
    assert bound == unbound
    # Each process's allows name its own ram and flash, the same offsets
    # into each, in the same order.
    offsets = []
    for pcb in board.kernel.processes.values():
        allows = [e.payload["call"] for e in trace_events(board)
                  if e.kind == "syscall" and e.actor == pcb.actor
                  and e.payload["call"].get("driver") == 2
                  and "base" in e.payload["call"]]
        offsets.append([(call["class"], call["base"] - (
            pcb.ram if call["class"] == "rw_allow" else pcb.flash).base)
            for call in allows])
        assert all(base in (_RAM_BASES if klass == "rw_allow" else _FLASH_BASES)
                   for klass, base in offsets[-1])
    first, second = board.kernel.processes.values()
    assert first.ram.base != second.ram.base and first.flash.base != second.flash.base
    assert offsets[0] == offsets[1] and len(offsets[0]) >= 4
