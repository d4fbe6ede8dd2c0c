import copy
import functools
import json
import os
import re
import subprocess
import sys

import pytest

from kernsim import board as board_module
from kernsim import kernel as kernel_module
from kernsim import regmap as regmap_module
from kernsim import scenario as scenario_module
from kernsim.abi import SYSCALL, SYSCALL_RECORDS, SyscallInvocation, YieldMode, call_text
from kernsim.errors import Key, ScenarioError
from kernsim.kernel import ProcessState
from kernsim.scenario import MAX_STATEMENTS, PARSE_FRAMES, STATEMENT, STATEMENTS, \
    _expect, _halt, _relative_allow, _syscall, _walk, parse_script, parse_script_bytes

from conftest import BOARDS_DIR, SRC, make_board, script_source, trace_events


def test_parse_minimal_script():
    script = parse_script({"main": [{"op": "halt"}]})
    assert script.min_memory == 1024
    assert script.entry == "main"
    assert script.main == [(_halt, None, None)]


def test_a_loop_is_one_step_that_the_walk_repeats():
    script = parse_script({"main": [
        {"op": "loop", "count": 3, "body": [
            {"op": "syscall", "call": {"class": "command", "driver": 0,
                                       "cmd": 2}}]}]})
    inv = SyscallInvocation.command(0, 2)
    assert script.main == [(None, [(_syscall, inv, call_text(inv))], 3)]
    steps = list(_walk(script.main))
    assert steps == [(_syscall, inv, call_text(inv))] * 3
    assert len({id(step) for step in steps}) == 1


def test_nested_loops_multiply():
    script = parse_script({"main": [
        {"op": "loop", "count": 4, "body": [
            {"op": "loop", "count": 5, "body": [{"op": "halt"}]}]}]})
    assert len(script.main) == 1
    assert list(_walk(script.main)) == [(_halt, None, None)] * 20


def test_a_loop_parses_to_one_step_whatever_its_count():
    # What a loop repeats is bounded by the quantum that runs it, not at parse.
    script = parse_script({"main": [
        {"op": "loop", "count": 10 ** 9, "body": [{"op": "halt"}]}]})
    assert script.main == [(None, [(_halt, None, None)], 10 ** 9)]


_HALT = '{"op":"halt"}'
_NO_WAIT = '{"op":"syscall","call":{"class":"yield","mode":"no_wait"}}'
_TICK_LIMIT = '"kind":"tick_limit","payload":{"max_ticks":10000}}'


def _nested_loops(depth: int, count: int = 1, inner: str = _HALT) -> str:
    """A script whose one statement is ``depth`` loops of ``count``, each
    holding the next, around ``inner``; written as text, since json.dumps
    recurses."""
    return ('{"main":' + f'[{{"op":"loop","count":{count},"body":' * depth +
            f'[{inner}]' + '}]' * depth + '}')


def _kernsim(command, app, *extra):
    """``kernsim command`` on the demo_sync board and ``app``."""
    return subprocess.run(
        [sys.executable, "-m", "kernsim", command, "--board",
         str(BOARDS_DIR / "demo_sync.json"), "--app", str(app), *extra],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)


@pytest.mark.parametrize("depth, count, inner, code", [
    (480, 1, _HALT, 0), (600, 1, _HALT, 2), (480, 2, _NO_WAIT, 0),
    (1, 2 ** 64, _NO_WAIT, 0)], ids=["480-0", "600-2", "480_of_2-0", "1_of_2**64-0"])
def test_loops_nested_near_the_recursion_limit_end_without_a_traceback(
        tmp_path, depth, count, inner, code):
    # A loop level costs the reader two frames, as it costs JSON's decoder
    # an object and a list, so a nest that decodes also reads; deeper ones
    # are refused as not parsing. A nest that parses runs in place, each
    # pass to the yield at its bottom ending a quantum, until the tick limit.
    app = tmp_path / "deep.json"
    app.write_text(_nested_loops(depth, count, inner))
    proc = _kernsim("run", app)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("scenario does not parse: maximum recursion depth exceeded"
            in proc.stderr) == (code == 2)
    assert proc.stdout.endswith(_TICK_LIMIT + "\n") == (inner == _NO_WAIT)


def _nested_pattern(depth: int) -> str:
    """A script that expects a pattern nested ``depth`` objects deep."""
    return ('{"main":[{"op":"expect","pattern":' + '{"a":' * depth + '0' +
            '}' * depth + '},{"op":"halt"}]}')


@pytest.mark.parametrize("nest, depths", [
    (_nested_loops, range(PARSE_FRAMES // 2 - 6, PARSE_FRAMES // 2)),
    (_nested_pattern, range(PARSE_FRAMES - 11, PARSE_FRAMES - 5))],
    ids=["loops", "pattern"])
def test_check_passes_only_what_run_parses_across_the_recursion_boundary(
        tmp_path, nest, depths):
    # check and run parse from stacks of different depths; the nesting a
    # parse takes is fixed relative to its own frame, so both draw the
    # boundary at the same depth.
    app = tmp_path / "deep.json"
    passed = []
    for depth in depths:
        app.write_text(nest(depth))
        checked, ran = _kernsim("check", app), _kernsim("run", app)
        assert checked.returncode in (0, 2) and "Traceback" not in ran.stderr
        assert checked.returncode == 2 or ran.returncode != 2, (depth, ran.stderr)
        passed.append(checked.returncode == 0)
    assert passed[0] and not passed[-1]  # the depths cross the boundary


def test_a_loop_of_expects_that_never_ends_its_quantum_faults_at_the_bound(tmp_path):
    app = tmp_path / "spin.json"
    app.write_text(json.dumps({"main": [{"op": "loop", "count": 2 ** 64, "body": [
        {"op": "expect", "pattern": {}}]}]}))
    trace = tmp_path / "trace.jsonl"
    proc = _kernsim("run", app, "--trace", str(trace))
    assert proc.returncode == 1, proc.stderr  # the expects see no return
    lines = trace.read_text().splitlines()
    assert sum('"kind":"expect"' in line for line in lines) == MAX_STATEMENTS
    assert lines[-2].endswith(
        '"kind":"process_state","payload":{"pid":1,"state":"faulted",'
        f'"reason":"ran {MAX_STATEMENTS} statements without a system call"}}}}')
    assert lines[-1].endswith('"kind":"quiescent","payload":{}}')


def test_a_quantum_runs_max_statements_whole_and_one_more_faults(monkeypatch):
    monkeypatch.setattr(scenario_module, "MAX_STATEMENTS", 5)
    board = make_board()

    def expects(count):
        return {"op": "loop", "count": count, "body": [{"op": "expect", "pattern": {}}]}
    no_wait = _call("yield", mode="no_wait")
    board.load_app(script_source([no_wait, expects(4), no_wait, expects(5), no_wait,
                                  {"op": "halt"}]))
    assert board.run(100) == 0
    events = [e for e in trace_events(board) if e.actor == "process:1"
              or e.kind == "process_state"]
    assert [e.kind for e in events if e.kind != "syscall_return"] == [
        "process_state", "syscall", *["expect"] * 4, "syscall", *["expect"] * 5,
        "process_state"]
    assert events[-1].payload == {"pid": 1, "state": "faulted",
                                  "reason": "ran 5 statements without a system call"}


@pytest.mark.parametrize("count", [5, 2 ** 64])
def test_a_handler_run_past_the_bound_faults_its_process(monkeypatch, count):
    monkeypatch.setattr(scenario_module, "MAX_STATEMENTS", 5)
    board = make_board()
    main = [{"op": "sync_command", "driver": 0, "cmd": 1, "args": [3, 0],
             "fn": "on_alarm"}, {"op": "halt"}]
    handlers = {"on_alarm": [{"op": "loop", "count": count, "body": [
        {"op": "read_local", "offset": 0, "len": 1}]}]}
    board.load_app(script_source(main, handlers, 256))
    assert board.run(100) == 0
    events = trace_events(board)
    assert [e.kind for e in events if e.actor == "process:1"].count("mem_access") == 5
    assert [e.payload for e in events if e.kind == "process_state"][-1] == (
        {"pid": 1, "state": "exited", "reason": "halt"} if count == 5 else
        {"pid": 1, "state": "faulted", "reason": "handler ran 5 statements"})


def test_a_recursion_error_anywhere_in_the_parse_is_a_scenario_error(monkeypatch):
    def too_deep(value):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(scenario_module, "encode_json", too_deep)
    with pytest.raises(ScenarioError) as refused:
        parse_script_bytes(_nested_loops(3).replace(
            '{"op":"halt"}', '{"op":"expect","pattern":{}}').encode())
    assert refused.value.violations == [
        "scenario does not parse: maximum recursion depth exceeded"]


@pytest.mark.parametrize("loop", [
    {"op": "loop", "count": 2 ** 80, "body": []},
    {"op": "loop", "count": 2 ** 80, "body": [
        {"op": "loop", "count": 0, "body": [{"op": "halt"}]}]},
    {"op": "loop", "count": 2 ** 80, "body": [
        {"op": "loop", "count": 2 ** 80, "body": []}]},
], ids=["empty", "count_0_inside", "empty_inside"])
def test_empty_loop_body_unrolls_to_nothing_whatever_the_count(loop):
    # A loop whose passes would run no statement adds no step: the quantum
    # bound counts statements, so such a pass would spin unseen.
    script = parse_script({"main": [loop, {"op": "halt"}]})
    assert script.main == [(_halt, None, None)]


def test_sync_command_macro_expands_to_four_calls():
    script = parse_script({"main": [
        {"op": "sync_command", "driver": 0, "cmd": 1, "args": [500, 0],
         "fn": "on_alarm"}],
        "handlers": {"on_alarm": []}})
    assert script.main == [
        (_syscall, SyscallInvocation.subscribe(0, 0, "on_alarm", 0), None),
        (_syscall, SyscallInvocation.command(0, 1, 500, 0), None),
        (_syscall, SyscallInvocation.yield_(YieldMode.WAIT), None),
        (_expect, {"variant": "success"}, '{"variant":"success"}'),
    ]
    looped = parse_script({"main": [{"op": "loop", "count": 2, "body": [
        {"op": "sync_command", "driver": 0, "cmd": 1, "args": [500, 0],
         "fn": "on_alarm"}]}], "handlers": {"on_alarm": []}})
    assert list(_walk(looped.main)) == [
        (run, inv, call_text(inv) if run is _syscall else text)
        for run, inv, text in script.main] * 2


def _call(klass, **record):
    return {"op": "syscall", "call": {"class": klass, **record}}


def test_a_looped_call_holds_its_text_and_an_unlooped_one_none():
    script = parse_script({"main": [
        _call("command", driver=1, cmd=2, args=[3]),
        {"op": "loop", "count": 2, "body": [
            _call("command", driver=1, cmd=2, args=[3]),
            _call("subscribe", driver=0, sub=1, fn="h", userdata=7),
            {"op": "halt"}]},
        {"op": "loop", "count": 1, "body": [_call("yield", mode="no_wait")]}],
        "handlers": {"h": []}})
    command = SyscallInvocation.command(1, 2, 3)
    subscribe = SyscallInvocation.subscribe(0, 1, "h", 7)
    body = [(_syscall, command, call_text(command)),
            (_syscall, subscribe, call_text(subscribe)), (_halt, None, None)]
    assert script.main == [(_syscall, command, None), (None, body, 2),
                           (_syscall, SyscallInvocation.yield_(YieldMode.NO_WAIT),
                            None)]
    steps = list(_walk(script.main))
    assert steps == [(_syscall, command, None), *body, *body, steps[-1]]
    assert steps[1] is steps[4]


def test_nested_loops_bind_each_call_once():
    script = parse_script({"main": [{"op": "loop", "count": 3, "body": [
        _call("exit"),
        {"op": "loop", "count": 2, "body": [_call("command", driver=4, cmd=5)]},
        {"op": "loop", "count": 1, "body": [_call("yield")]}]}]})
    steps = list(_walk(script.main))
    assert len(steps) == 12
    assert [text for _, _, text in steps] == [
        '{"call":{"class":"exit"}}',
        *['{"call":{"class":"command","driver":4,"cmd":5,"args":[0,0]}}'] * 2,
        '{"call":{"class":"yield","mode":"wait"}}'] * 3
    # The inner loop's step was bound once, by the inner loop, and every
    # pass of either loop runs it, as the outer body's are run.
    assert len({id(step) for step in steps}) == 3


def test_an_absolute_allow_in_a_loop_is_bound_and_a_relative_one_is_not():
    script = parse_script({"main": [{"op": "loop", "count": 2, "body": [
        _call("rw_allow", driver=2, buf=0, base=12345, len=4, seg="abs"),
        _call("ro_allow", driver=2, buf=1, base=8, len=4, seg="flash")]}]})
    absolute = SyscallInvocation.rw_allow(2, 0, 12345, 4)
    relative = SyscallInvocation.ro_allow(2, 1, 8, 4)
    assert list(_walk(script.main)) == [(_syscall, absolute, call_text(absolute)),
                                        (_relative_allow, relative, "flash")] * 2


@pytest.mark.parametrize("key", ["driver", "cmd", "sub", "userdata"])
@pytest.mark.parametrize("value", [-1, 2 ** 32, True, None])
def test_sync_command_integers_fail_with_the_decoders_message(key, value):
    stmt = {"op": "sync_command", "driver": 0, "cmd": 1, "fn": "h", key: value}
    with pytest.raises(ScenarioError) as info:
        parse_script({"main": [stmt], "handlers": {"h": []}})
    assert str(info.value) == (f"main[0].{key} must be an "
                               f"integer in [0, 4294967295], got {value!r}")


def test_handlers_may_not_yield():
    with pytest.raises(ScenarioError):
        parse_script({"main": [], "handlers": {
            "h": [{"op": "syscall", "call": {"class": "yield", "mode": "wait"}}]}})
    with pytest.raises(ScenarioError):
        parse_script({"main": [], "handlers": {
            "h": [{"op": "sync_command", "driver": 0, "cmd": 1, "fn": "h"}]}})


def test_unknown_statement_and_bad_fields_rejected():
    with pytest.raises(ScenarioError):
        parse_script({"main": [{"op": "dance"}]})
    with pytest.raises(ScenarioError):
        parse_script({"main": [{"op": "write_local", "offset": 0,
                                "data": "zz"}]})
    with pytest.raises(ScenarioError):
        parse_script({"main": [{"op": "syscall",
                                "call": {"class": "nonsense"}}]})
    with pytest.raises(ScenarioError):
        parse_script({"main": [{"op": "syscall",
                                "call": {"class": "command", "driver": 0,
                                         "cmd": 1, "seg": "rom"}}]})


def test_parse_script_bytes_rejects_non_json():
    with pytest.raises(ScenarioError):
        parse_script_bytes(b"\xff\xfe not json")


def test_seg_resolution_ram_flash_abs():
    board = make_board()
    main = [
        # "ram" (default) resolves against the process RAM carve-out
        {"op": "syscall", "call": {"class": "rw_allow", "driver": 2, "buf": 0,
                                   "base": 0, "len": 8}},
        {"op": "expect", "pattern": {"variant": "success_region", "len": 0}},
        # "flash" resolves against the program image
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 2, "buf": 0,
                                   "base": 0, "len": 8, "seg": "flash"}},
        {"op": "expect", "pattern": {"variant": "success_region", "len": 0}},
        # "abs" passes the address through untouched
        {"op": "syscall", "call": {"class": "rw_allow", "driver": 3, "buf": 0,
                                   "base": 12345, "len": 0, "seg": "abs"}},
        {"op": "expect", "pattern": {"variant": "success_region", "len": 0}},
        {"op": "halt"},
    ]
    board.load_app(script_source(main, {}, 256))
    assert board.run(100) == 0
    pcb_events = [e.payload["call"] for e in trace_events(board)
                  if e.kind == "syscall" and e.payload["call"]["class"] != "exit"]
    allows = [c for c in pcb_events if "base" in c]
    assert allows[2]["base"] == 12345


@pytest.mark.parametrize("doc, key", [
    ({"main": [], "mian": []}, "mian"),
    ({"credential": {"keyid": 1}}, "credential.keyid"),
    ({"main": [{"op": "halt", "why": "done"}]}, "main[0].why"),
    ({"main": [{"op": "loop", "count": 1, "body": [
        {"op": "read_local", "offset": 0, "len": 1, "length": 1}]}]},
     "main[0].body[0].length"),
    ({"main": [{"op": "syscall", "call": {"class": "exit", "code": 0}}]},
     "main[0].call.code"),
    ({"main": [], "handlers": {"h": [{"op": "expect", "pattern": {},
                                      "note": 1}]}}, "handlers.h[0].note"),
])
def test_a_key_the_schema_does_not_name_is_refused(doc, key):
    with pytest.raises(ScenarioError) as info:
        parse_script(doc)
    assert info.value.violations == [f"{key} is not a known key"]


def test_each_generated_checker_has_a_file_name_of_its_own():
    # A profile keys its rows by file name and line, so each schema's
    # checker keeps a row of its own; a source that names no constant is
    # compiled once and shared.
    keys = [STATEMENT, SYSCALL, scenario_module._SCENARIO, board_module._BOARD,
            regmap_module._REGISTER_MAP]
    names = [key.check.__code__.co_filename for key in keys]
    assert len(set(names)) == len(keys)
    assert all(re.fullmatch(r"<kernsim schema checker \d+: object>", name)
               for name in names)
    assert Key(int, 0, 7).check is Key(int, 0, 7).check


# A statement of each op and a call of each class that takes an optional
# key, holding only the keys its schema requires.
_BARE = {
    "write_local": {"op": "write_local", "offset": 4},
    "loop": {"op": "loop", "count": 2},
    "sync_command": {"op": "sync_command", "driver": 0, "cmd": 1, "fn": "h"},
    **{klass: {"op": "syscall", "call": {"class": klass, **call}}
       for klass, call in (("yield", {}), ("subscribe", {"driver": 1, "sub": 0}),
                           ("command", {"driver": 1, "cmd": 2}),
                           ("rw_allow", {"driver": 2, "buf": 0, "base": 4, "len": 8}),
                           ("ro_allow", {"driver": 2, "buf": 0, "base": 4, "len": 8}))},
}
_OPTIONAL_KEYS = [(form, name, key.default)
                  for schemas in (STATEMENTS, SYSCALL_RECORDS)
                  for form, schema in schemas.items()
                  for name, key in schema.items() if not key.required]


@pytest.mark.parametrize("form, name, default", _OPTIONAL_KEYS,
                         ids=[f"{form}.{name}" for form, name, _ in _OPTIONAL_KEYS])
def test_a_left_out_key_gives_the_steps_of_its_default(form, name, default):
    bare = _BARE[form]
    explicit = copy.deepcopy(bare)
    record = explicit["call"] if form in SYSCALL_RECORDS else explicit
    record[name] = list(default) if type(default) is tuple else default

    def steps(stmt):
        return parse_script({"main": [stmt, {"op": "halt"}],
                             "handlers": {"h": []}}).main

    assert steps(bare) == steps(explicit)


@pytest.mark.parametrize("key, value", [("base", "x"), ("seg", "ram")])
def test_only_allows_take_a_base_and_a_seg(key, value):
    call = {"class": "command", "driver": 0, "cmd": 2, key: value}
    with pytest.raises(ScenarioError) as info:
        parse_script({"main": [{"op": "syscall", "call": call}]})
    assert info.value.violations == [f"main[0].call.{key} is not a known key"]


def test_expect_mismatch_recorded_and_process_continues():
    board = make_board()
    main = [
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 2}},
        {"op": "expect", "pattern": {"variant": "failure"}},  # wrong on purpose
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 2}},
        {"op": "halt"},
    ]
    board.load_app(script_source(main, {}, 256))
    assert board.run(100) == 1
    expects = [e for e in trace_events(board) if e.kind == "expect"]
    assert [e.payload["pass"] for e in expects] == [False]
    # the process ran to completion regardless
    assert board.kernel.processes[1].state is ProcessState.EXITED


def test_write_then_read_local_round_trip():
    board = make_board()
    main = [
        {"op": "write_local", "offset": 4, "data": "deadbeef"},
        {"op": "read_local", "offset": 4, "len": 4},
        {"op": "halt"},
    ]
    board.load_app(script_source(main, {}, 256))
    assert board.run(100) == 0
    pcb = board.kernel.processes[1]
    assert bytes(board.memory.data[pcb.ram.base + 4:pcb.ram.base + 8]) == \
        bytes.fromhex("deadbeef")
    accesses = [e for e in trace_events(board)
                if e.kind == "mem_access" and e.actor == "process:1"]
    assert [(e.payload["op"], e.payload["len"]) for e in accesses] == \
        [("write", 4), ("read", 4)]


def test_handler_statements_run_inside_delivery():
    board = make_board()
    main = [
        {"op": "syscall", "call": {"class": "subscribe", "driver": 0, "sub": 0,
                                   "fn": "on_alarm"}},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 1,
                                   "args": [5, 0]}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "halt"},
    ]
    handlers = {"on_alarm": [
        {"op": "write_local", "offset": 0, "data": "42"},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 2}},
    ]}
    # The resumed yield-wait returns after the handler's own syscall, so
    # an expect that follows it sees the yield's success.
    main.insert(3, {"op": "expect", "pattern": {"variant": "success"}})
    board.load_app(script_source(main, handlers, 256))
    assert board.run(100) == 0
    pcb = board.kernel.processes[1]
    assert board.memory.data[pcb.ram.base] == 0x42
    expects = [e.payload for e in trace_events(board) if e.kind == "expect"]
    assert expects == [{"pattern": {"variant": "success"},
                        "actual": {"variant": "success"}, "pass": True}]


def test_a_handler_statement_that_ends_its_process_stops_the_handler():
    board = make_board()
    main = [
        {"op": "syscall", "call": {"class": "subscribe", "driver": 0, "sub": 0,
                                   "fn": "on_alarm"}},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 1,
                                   "args": [0, 0]}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "halt"},
    ]
    handlers = {"on_alarm": [
        {"op": "write_local", "offset": 0, "data": "01"},
        {"op": "write_local", "offset": 4096, "data": "02"},  # past its RAM
        {"op": "write_local", "offset": 1, "data": "03"},
        {"op": "halt"}]}
    board.load_app(script_source(main, handlers, 256))
    board.run(100)
    pcb = board.kernel.processes[1]
    assert pcb.state is ProcessState.FAULTED
    events = [e for e in trace_events(board) if e.actor == "process:1"]
    assert [e.kind for e in events].count("mem_access") == 1
    assert board.memory.data[pcb.ram.base:pcb.ram.base + 2] == b"\x01\x00"


def test_allow_in_a_loop_resolves_against_each_running_process(monkeypatch):
    # Both processes share one parsed script, so the loop body's two steps
    # run three times in each process; every run must resolve
    # its base afresh against the process that runs it. The packer parses
    # and hands its script to the kernel, so both parse through one cache.
    cached = functools.lru_cache()(parse_script_bytes)
    monkeypatch.setattr(board_module, "parse_script_bytes", cached)
    monkeypatch.setattr(kernel_module, "parse_script_bytes", cached)
    board = make_board()
    main = [{"op": "loop", "count": 3, "body": [
        {"op": "syscall", "call": {"class": "rw_allow", "driver": 2, "buf": 0,
                                   "base": 16, "len": 8, "seg": "ram"}},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 2, "buf": 0,
                                   "base": 4, "len": 8, "seg": "flash"}},
    ]}, {"op": "halt"}]
    source = script_source(main, {}, 256)
    board.load_app(source)
    board.load_app(source)
    assert board.run(100) == 0
    first, second = board.kernel.processes[1], board.kernel.processes[2]
    assert first.program.handlers is second.program.handlers
    assert first.ram.base != second.ram.base
    assert first.flash.base != second.flash.base
    for pcb in (first, second):
        allows = [(e.payload["call"]["class"], e.payload["call"]["base"])
                  for e in trace_events(board)
                  if e.kind == "syscall" and e.actor == f"process:{pcb.id}"
                  and "base" in e.payload["call"]]
        assert allows == [("rw_allow", pcb.ram.base + 16),
                          ("ro_allow", pcb.flash.base + 4)] * 3
    steps = list(_walk(cached(source).main))
    body = steps[:2]
    assert steps[:6] == body * 3
    assert [(seg, inv.base) for _, inv, seg in body] == [("ram", 16), ("flash", 4)]


def test_expect_after_yield_no_wait_sees_the_yield_not_the_handler():
    # The alarm deadline has already passed, so the upcall is queued when
    # the no-wait yield runs; its handler's own syscall fails, and the
    # expect must still match the yield's return.
    board = make_board()
    main = [
        {"op": "syscall", "call": {"class": "subscribe", "driver": 0, "sub": 0,
                                   "fn": "on_alarm"}},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 1,
                                   "args": [0, 0]}},
        {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}},
        {"op": "expect", "pattern": {"variant": "success_value", "value": 1}},
        {"op": "halt"},
    ]
    handlers = {"on_alarm": [
        {"op": "syscall", "call": {"class": "command", "driver": 9, "cmd": 1}}]}
    board.load_app(script_source(main, handlers, 256))
    assert board.run(100) == 0
    kinds = [(e.kind, e.payload.get("ret")) for e in trace_events(board)
             if e.actor == "process:1" and e.kind in
             ("upcall_run", "syscall_return", "expect")]
    assert kinds[-4:] == [
        ("upcall_run", None),
        ("syscall_return", {"variant": "failure", "err": "NODEVICE"}),
        ("syscall_return", {"variant": "success_value", "value": 1}),
        ("expect", None),
    ]
