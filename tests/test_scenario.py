import functools

import pytest

from kernsim import board as board_module
from kernsim import kernel as kernel_module
from kernsim.abi import SyscallInvocation, YieldMode
from kernsim.errors import ScenarioError
from kernsim.kernel import ProcessState
from kernsim.scenario import _expect, _halt, _syscall, parse_script, parse_script_bytes

from conftest import make_board, script_source, trace_events


def test_parse_minimal_script():
    script = parse_script({"main": [{"op": "halt"}]})
    assert script.min_memory == 1024
    assert script.entry == "main"
    assert script.main == [(_halt, None, None)]


def test_loops_unroll_at_parse():
    script = parse_script({"main": [
        {"op": "loop", "count": 3, "body": [
            {"op": "syscall", "call": {"class": "command", "driver": 0,
                                       "cmd": 2}}]}]})
    assert len(script.main) == 3
    assert script.main == [(_syscall, SyscallInvocation.command(0, 2), None)] * 3


def test_nested_loops_multiply():
    script = parse_script({"main": [
        {"op": "loop", "count": 4, "body": [
            {"op": "loop", "count": 5, "body": [{"op": "halt"}]}]}]})
    assert len(script.main) == 20


def test_unroll_budget_enforced():
    with pytest.raises(ScenarioError):
        parse_script({"main": [
            {"op": "loop", "count": 10 ** 6, "body": [{"op": "halt"}]}]})


def test_empty_loop_body_unrolls_to_nothing_whatever_the_count():
    script = parse_script({"main": [{"op": "loop", "count": 2 ** 80, "body": []},
                                    {"op": "halt"}]})
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
    assert first.program.steps is second.program.steps
    assert first.ram.base != second.ram.base
    assert first.flash.base != second.flash.base
    for pcb in (first, second):
        allows = [(e.payload["call"]["class"], e.payload["call"]["base"])
                  for e in trace_events(board)
                  if e.kind == "syscall" and e.actor == f"process:{pcb.id}"
                  and "base" in e.payload["call"]]
        assert allows == [("rw_allow", pcb.ram.base + 16),
                          ("ro_allow", pcb.flash.base + 4)] * 3
    body = first.program.steps[:2]
    assert first.program.steps[:6] == body * 3
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
