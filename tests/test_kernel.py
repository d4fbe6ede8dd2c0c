import itertools
import json
import random

import pytest

from kernsim.abi import (
    ErrorCode,
    ReturnVariant,
    SyscallInvocation,
    SyscallReturn,
    YieldMode,
)
from kernsim.audit import parse_trace
from kernsim.board import BOARD, Board, BoardConfig, run_simulation
from kernsim.capabilities import CapabilityKind
from kernsim.capsules import (CAPSULE_TYPES, AlarmDriver, Capsule, ConsoleDriver,
                               ProbeDriver)
from kernsim.errors import (
    Key,
    PhaseError,
    ProcessDead,
    ReentrancyError,
)
from kernsim.kernel import Kernel, ProcessState
from kernsim.loader import pack_binary
from kernsim.scenario import parse_script

from conftest import (AWKWARD_NAMES, BOARDS_DIR, make_board, minimal_board_dict,
                      script_source, trace_events, uart_bytes)
from oracles import OneSlotSwapModel, UpcallQueueModel, return_record, upcall_record

DRIVER_ALARM = 0
DRIVER_CONSOLE = 1
DRIVER_PROBE_A = 2
DRIVER_PROBE_B = 3
DRIVER_MANAGER = 4


def load_idle_process(board, min_memory=1024, handlers=None):
    """A process that exists but never runs its script; unit tests drive
    its syscalls directly."""
    handlers = handlers if handlers is not None else {"h1": [], "h2": []}
    job = board.load_app(script_source([], handlers, min_memory))
    assert job.pid is not None, job.detail
    return job.pid


def rw_allow(kern, pcb, driver, buf, base, length):
    return kern.handle_syscall(
        pcb, SyscallInvocation.rw_allow(driver, buf, base, length))


def ro_allow(kern, pcb, driver, buf, base, length):
    return kern.handle_syscall(
        pcb, SyscallInvocation.ro_allow(driver, buf, base, length))


# --- swap semantics -----------------------------------------------------------


def test_allow_swap_returns_previous_region(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    first = rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base, 16)
    assert first == SyscallReturn.success_region(0, 0)
    second = rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base + 32, 8)
    assert second == SyscallReturn.success_region(ram.base, 16)


def test_rw_and_ro_slots_are_distinct(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base, 16)
    first_ro = ro_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base + 16, 8)
    assert first_ro == SyscallReturn.success_region(0, 0)


def test_exhaustive_one_slot_sequences_both_modes(board):
    # All allow sequences of length 1..5 over three regions, one slot,
    # checked against the reference model; a trailing zero-length allow
    # must hand back the last region.
    kern = board.kernel
    region_offsets = [(0, 16), (32, 8), (64, 24)]
    for mode in ("rw", "ro"):
        issue = rw_allow if mode == "rw" else ro_allow
        for length in range(1, 6):
            for seq in itertools.product(region_offsets, repeat=length):
                pid = load_idle_process(board, min_memory=256)
                pcb = kern.processes[pid]
                ram = pcb.ram
                model = OneSlotSwapModel()
                for off, size in seq:
                    got = issue(kern, pcb, DRIVER_PROBE_A, 0, ram.base + off, size)
                    want = model.install((ram.base + off, size))
                    assert got == SyscallReturn.success_region(*want)
                got = issue(kern, pcb, DRIVER_PROBE_A, 0, 0, 0)
                want = model.install((0, 0))
                assert got == SyscallReturn.success_region(*want)
                kern.exit_process(pcb, "test done")


def test_random_interleavings_across_slots_and_subscribes(board):
    # Two allow slots plus a subscribe slot, randomly interleaved; each
    # slot must behave as its own independent one-slot model.
    rng = random.Random(0x51075)
    kern = board.kernel
    region_offsets = [(0, 16), (32, 8), (64, 24)]
    handlers = {"h1": [], "h2": []}
    slots = [
        ("allow", DRIVER_PROBE_A, 0, "rw"),
        ("allow", DRIVER_PROBE_B, 0, "rw"),
        ("subscribe", DRIVER_ALARM, 0, None),
    ]
    for _ in range(300):
        pid = load_idle_process(board, min_memory=256, handlers=handlers)
        pcb = kern.processes[pid]
        ram = pcb.ram
        models = {s: OneSlotSwapModel() for s in slots}
        sub_model = {slots[2]: ("null", 0)}
        for _ in range(rng.randrange(1, 6)):
            slot = rng.choice(slots)
            if slot[0] == "allow":
                off, size = rng.choice(region_offsets)
                got = rw_allow(kern, pcb, slot[1], slot[2], ram.base + off, size)
                want = models[slot].install((ram.base + off, size))
                assert got == SyscallReturn.success_region(*want)
            else:
                fn = rng.choice(["h1", "h2", "null"])
                userdata = rng.randrange(100)
                got = kern.handle_syscall(pcb, SyscallInvocation.subscribe(
                    slot[1], slot[2], fn, userdata))
                prev_fn, prev_ud = sub_model[slot]
                assert got.variant is ReturnVariant.SUCCESS_UPCALL
                assert (got.upcall.fn_id, got.upcall.userdata) == (prev_fn, prev_ud)
                sub_model[slot] = (fn, 0) if fn == "null" else (fn, userdata)
        kern.exit_process(pcb, "test done")


def test_subscribe_swap_and_null(board):
    kern = board.kernel
    pcb = kern.processes[load_idle_process(board)]
    first = kern.handle_syscall(
        pcb, SyscallInvocation.subscribe(DRIVER_ALARM, 0, "h1", 7))
    assert first.upcall.is_null
    second = kern.handle_syscall(
        pcb, SyscallInvocation.subscribe(DRIVER_ALARM, 0, "null"))
    assert (second.upcall.fn_id, second.upcall.userdata) == ("h1", 7)


def test_subscribe_unknown_handler_is_inval(board):
    pcb = board.kernel.processes[load_idle_process(board)]
    ret = board.kernel.handle_syscall(
        pcb, SyscallInvocation.subscribe(DRIVER_ALARM, 0, "nonexistent"))
    assert ret == SyscallReturn.failure(ErrorCode.INVAL)


# --- allow validation -------------------------------------------------------------


def test_allow_outside_regions_is_inval(board):
    pid = load_idle_process(board, min_memory=64)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    ret = rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base + 60, 8)
    assert ret == SyscallReturn.failure_region(ErrorCode.INVAL, ram.base + 60, 8)
    # failure did not install anything
    ret = rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base, 8)
    assert ret == SyscallReturn.success_region(0, 0)


def test_rw_allow_over_read_only_flash_is_inval(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    flash = pcb.flash
    ret = rw_allow(kern, pcb, DRIVER_PROBE_A, 0, flash.base, 8)
    assert ret.variant is ReturnVariant.FAILURE_REGION
    assert ret.error is ErrorCode.INVAL
    ok = ro_allow(kern, pcb, DRIVER_PROBE_A, 0, flash.base, 8)
    assert ok == SyscallReturn.success_region(0, 0)


def test_zero_length_allow_accepted_at_any_base(board):
    kern = board.kernel
    pcb = kern.processes[load_idle_process(board)]
    before = len([e for e in trace_events(board) if e.kind == "mem_access"])
    ret = rw_allow(kern, pcb, DRIVER_PROBE_A, 0, 500, 0)
    assert ret == SyscallReturn.success_region(0, 0)
    ret = rw_allow(kern, pcb, DRIVER_PROBE_A, 0, 999999999, 0)
    assert ret == SyscallReturn.success_region(500, 0)
    after = len([e for e in trace_events(board) if e.kind == "mem_access"])
    assert before == after  # allow validation never touches memory


def test_allow_unknown_driver_and_bad_buffer_number(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    ret = rw_allow(kern, pcb, 99, 0, ram.base, 8)
    assert ret == SyscallReturn.failure_region(ErrorCode.NODEVICE, ram.base, 8)
    ret = rw_allow(kern, pcb, DRIVER_PROBE_A, 5, ram.base, 8)
    assert ret == SyscallReturn.failure_region(ErrorCode.INVAL, ram.base, 8)


# --- commands ------------------------------------------------------------------------


def test_command_zero_is_existence_check(board):
    pcb = board.kernel.processes[load_idle_process(board)]
    for driver in (DRIVER_ALARM, DRIVER_CONSOLE, DRIVER_PROBE_A, DRIVER_MANAGER):
        ret = board.kernel.handle_syscall(
            pcb, SyscallInvocation.command(driver, 0))
        assert ret == SyscallReturn.success()


def test_unknown_driver_is_nodevice(board):
    pcb = board.kernel.processes[load_idle_process(board)]
    ret = board.kernel.handle_syscall(pcb, SyscallInvocation.command(99, 1))
    assert ret == SyscallReturn.failure(ErrorCode.NODEVICE)


@pytest.mark.parametrize("driver", [DRIVER_ALARM, DRIVER_CONSOLE, DRIVER_PROBE_A,
                                    DRIVER_MANAGER])
def test_unknown_command_is_nosupport(board, driver):
    pcb = board.kernel.processes[load_idle_process(board)]
    ret = board.kernel.handle_syscall(
        pcb, SyscallInvocation.command(driver, 77))
    assert ret == SyscallReturn.failure(ErrorCode.NOSUPPORT)


def test_syscall_from_dead_process_rejected(board):
    pcb = board.kernel.processes[load_idle_process(board)]
    board.kernel.exit_process(pcb, "test")
    with pytest.raises(ProcessDead):
        board.kernel.handle_syscall(pcb, SyscallInvocation.command(DRIVER_ALARM, 0))


# --- grants ----------------------------------------------------------------------------


def test_grant_lazily_allocated_zeroed_and_watermarked(board):
    pid = load_idle_process(board, min_memory=256)
    kern = board.kernel
    pcb = kern.processes[pid]
    top = pcb.grant_watermark
    ret = kern.handle_syscall(
        pcb, SyscallInvocation.command(DRIVER_ALARM, 1, 5000))
    assert ret == SyscallReturn.success()
    assert pcb.grant_watermark == top - 16
    alloc, _ = pcb.grants["alarm_driver"]
    assert (alloc.base, alloc.length) == (top - 16, 16)
    # armed flag and deadline live in the grant bytes
    data = kern.memory.data[alloc.base:alloc.base + 16]
    assert data[0] == 1
    assert int.from_bytes(data[4:8], "little") == 5000
    # second set reuses the same allocation
    kern.handle_syscall(pcb, SyscallInvocation.command(DRIVER_ALARM, 1, 9000))
    assert pcb.grant_watermark == top - 16


def test_grant_area_is_walled_off_from_the_process(board):
    pid = load_idle_process(board, min_memory=64)
    kern = board.kernel
    pcb = kern.processes[pid]
    assert kern.process_local_write(pcb, 40, b"x")  # still accessible
    kern.handle_syscall(pcb, SyscallInvocation.command(DRIVER_ALARM, 1, 100))
    # the top 16 bytes became kernel-only grant space
    assert kern.processes[pid].state is ProcessState.UNSTARTED
    assert not kern.process_local_write(pcb, 50, b"x")
    assert kern.processes[pid].state is ProcessState.FAULTED


def test_grant_nomem_charges_only_that_process(board):
    kern = board.kernel
    small = kern.processes[load_idle_process(board, min_memory=8)]
    big = kern.processes[load_idle_process(board, min_memory=256)]
    ret = kern.handle_syscall(
        small, SyscallInvocation.command(DRIVER_ALARM, 1, 100))
    assert ret == SyscallReturn.failure(ErrorCode.NOMEM)
    ret = kern.handle_syscall(
        big, SyscallInvocation.command(DRIVER_ALARM, 1, 100))
    assert ret == SyscallReturn.success()


def test_grant_is_refused_over_a_live_allow(board):
    pid = load_idle_process(board, min_memory=256)
    kern = board.kernel
    pcb = kern.processes[pid]
    top = pcb.grant_watermark
    # One byte of the share lies where the alarm's 16-byte grant would go;
    # a share just below that space is no obstacle.
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, top - 17, 2)
    rw_allow(kern, pcb, DRIVER_PROBE_B, 0, top - 32, 16)
    set_alarm = SyscallInvocation.command(DRIVER_ALARM, 1, 100)
    assert kern.handle_syscall(pcb, set_alarm) == SyscallReturn.failure(ErrorCode.NOMEM)
    assert pcb.grant_watermark == top and not pcb.grants
    assert [e.payload for e in trace_events(board) if e.kind == "grant_nomem"] == \
        [{"pid": pid, "capsule": "alarm_driver", "size": 16}]
    # Once the share is reclaimed with a zero-length allow, the grant fits.
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, top - 8, 0)
    assert kern.handle_syscall(pcb, set_alarm) == SyscallReturn.success()
    assert pcb.grants["alarm_driver"][0].base == top - 16


def test_a_grant_never_takes_an_allowed_buffer_on_the_demo_board(tmp_path):
    # The process shares the top 16 bytes of its RAM, exactly where the
    # alarm would carve its grant. The grant is refused, and the probe's
    # write lands in the process's own buffer.
    command = [{"op": "syscall", "call": {"class": "command", "driver": driver,
                                          "cmd": cmd, "args": args}}
               for driver, cmd, args in ((DRIVER_ALARM, 1, [500, 0]),
                                         (DRIVER_PROBE_A, 1, [15, 255]),
                                         (DRIVER_PROBE_A, 2, [15, 0]))]
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "grant_over_allow", "min_memory": 1024, "main": [
        {"op": "syscall", "call": {"class": "rw_allow", "driver": DRIVER_PROBE_A,
                                   "buf": 0, "base": 1008, "len": 16}},
        command[0], {"op": "expect", "pattern": {"variant": "failure", "err": "NOMEM"}},
        command[1], {"op": "expect", "pattern": {"variant": "success"}},
        command[2], {"op": "expect", "pattern": {"variant": "success_value",
                                                 "value": 255}},
        {"op": "halt"}]}))
    trace = tmp_path / "trace.jsonl"
    assert run_simulation(BOARDS_DIR / "demo.json", [app], max_ticks=2000,
                          trace_path=trace) == 0
    events = parse_trace(trace.read_bytes())
    ram = next(e["payload"] for e in events if e["kind"] == "process_created")
    kinds = [e["kind"] for e in events]
    assert "grant_alloc" not in kinds and kinds.count("grant_nomem") == 1
    probe_write = [e["payload"] for e in events if e["kind"] == "mem_access"
                   and e["payload"].get("via") == "probe_a"
                   and e["payload"]["op"] == "write"]
    assert probe_write == [{"base": ram["ram_base"] + 1023, "len": 1, "op": "write",
                            "via": "probe_a", "purpose": "allow", "pid": 1,
                            "driver": DRIVER_PROBE_A, "buf": 0, "mode": "rw"}]
    assert ram["ram_len"] == 1024


def test_grant_enter_after_exit_is_process_dead(board):
    pid = load_idle_process(board)
    kern = board.kernel
    kern.exit_process(kern.processes[pid], "test")
    with pytest.raises(ProcessDead):
        kern.grant_enter("alarm_driver", 16, pid, lambda g: None)


def test_grant_reentry_is_fatal(board):
    pid = load_idle_process(board)
    kern = board.kernel

    def reenter(_grant):
        kern.grant_enter("alarm_driver", 16, pid, lambda g: None)

    with pytest.raises(ReentrancyError):
        kern.grant_enter("alarm_driver", 16, pid, reenter)
    # different capsule for the same process is fine
    kern.grant_enter("console", 0, pid, lambda g: None)


# --- upcall queueing ----------------------------------------------------------------------


def subscribe(board, pcb, driver, sub, fn="h1", userdata=0):
    return board.kernel.handle_syscall(
        pcb, SyscallInvocation.subscribe(driver, sub, fn, userdata))


def test_upcall_to_null_subscription_dropped(board):
    pid = load_idle_process(board)
    assert not board.kernel.schedule_upcall("probe_a", DRIVER_PROBE_A, pid, 0, [1])
    drops = [e for e in trace_events(board) if e.kind == "upcall_dropped"]
    assert drops and drops[-1].payload["reason"] == "null subscription"


def test_upcall_to_dead_process_dropped(board):
    pid = load_idle_process(board)
    pcb = board.kernel.processes[pid]
    subscribe(board, pcb, DRIVER_ALARM, 0)
    board.kernel.exit_process(pcb, "test")
    assert not board.kernel.schedule_upcall("alarm_driver", DRIVER_ALARM, pid, 0, [1])
    drops = [e for e in trace_events(board) if e.kind == "upcall_dropped"]
    assert drops[-1].payload["reason"] == "dead process"


def test_duplicate_upcall_replaces_in_place(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    for driver in (DRIVER_ALARM, DRIVER_CONSOLE):
        subscribe(board, pcb, driver, 0)
    kern.schedule_upcall("alarm_driver", DRIVER_ALARM, pid, 0, [1, 0, 0])
    kern.schedule_upcall("console", DRIVER_CONSOLE, pid, 0, [5])
    kern.schedule_upcall("alarm_driver", DRIVER_ALARM, pid, 0, [2, 0, 0])
    assert list(pcb.upcall_queue.items()) == [((DRIVER_ALARM, 0), (2, 0, 0)),
                                              ((DRIVER_CONSOLE, 0), (5, 0, 0))]


def test_upcall_queue_depth_limit(board):
    # Distinct (driver, sub) pairs beyond the depth are dropped.
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    for driver in (DRIVER_ALARM, DRIVER_CONSOLE):
        subscribe(board, pcb, driver, 0)
    # fill the queue artificially small by shrinking the configured depth
    kern.upcall_queue_depth = 1
    assert kern.schedule_upcall("alarm_driver", DRIVER_ALARM, pid, 0, [1])
    assert not kern.schedule_upcall("console", DRIVER_CONSOLE, pid, 0, [2])
    assert len(pcb.upcall_queue) == 1
    drops = [e for e in trace_events(board) if e.kind == "upcall_dropped"]
    assert drops[-1].payload["reason"] == "queue full"


# --- yield and delivery ----------------------------------------------------------------------


def run_board(main, handlers=None, apps=None, board=None, max_ticks=2000,
              min_memory=1024):
    board = board or make_board()
    sources = apps or [script_source(main, handlers, min_memory)]
    for source in sources:
        board.load_app(source)
    code = board.run(max_ticks)
    return board, code


def test_yield_no_wait_returns_flag(board):
    main = [
        {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}},
        {"op": "expect", "pattern": {"variant": "success_value", "value": 0}},
        {"op": "syscall", "call": {"class": "subscribe", "driver": 0, "sub": 0,
                                   "fn": "on_alarm"}},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 1,
                                   "args": [3, 0]}},
        {"op": "loop", "count": 30, "body": [
            {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]},
        {"op": "halt"},
    ]
    board, code = run_board(main, {"on_alarm": [
        {"op": "write_local", "offset": 0, "data": "aa"}]})
    assert code == 0
    runs = [e for e in trace_events(board) if e.kind == "upcall_run"]
    assert len(runs) == 1
    # the no-wait yield that delivered it returned 1
    rets = [e.payload["ret"] for e in trace_events(board)
            if e.kind == "syscall_return"
            and e.payload["ret"].get("variant") == "success_value"]
    assert {"variant": "success_value", "value": 1} in rets


def test_upcalls_delivered_only_inside_yield(board):
    main = [
        {"op": "syscall", "call": {"class": "subscribe", "driver": 0, "sub": 0,
                                   "fn": "on_alarm"}},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 1,
                                   "args": [5, 0]}},
        {"op": "loop", "count": 20, "body": [
            {"op": "syscall", "call": {"class": "command", "driver": 0,
                                       "cmd": 2, "args": [0, 0]}}]},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "halt"},
    ]
    board, code = run_board(main, {"on_alarm": []})
    assert code == 0
    events = [e for e in trace_events(board)
              if e.actor == "process:1" and e.kind in ("syscall", "upcall_run")]
    for i, event in enumerate(events):
        if event.kind == "upcall_run":
            assert events[i - 1].kind == "syscall"
            assert events[i - 1].payload["call"]["class"] == "yield"


@pytest.mark.parametrize("mode", ["no_wait", "wait"])
@pytest.mark.parametrize("ending", [
    [{"op": "syscall", "call": {"class": "exit"}}],
    [{"op": "write_local", "offset": 4096, "data": "00"}]], ids=["exit", "fault"])
def test_a_yield_whose_upcall_ends_the_process_returns_nothing(mode, ending):
    # The alarm fires at tick 2, while the time commands run, so the
    # yield finds the upcall queued and runs it at once.
    main = [
        {"op": "syscall", "call": {"class": "subscribe", "driver": DRIVER_ALARM,
                                   "sub": 0, "fn": "h"}},
        {"op": "syscall", "call": {"class": "command", "driver": DRIVER_ALARM,
                                   "cmd": 1, "args": [2, 0]}},
        {"op": "loop", "count": 3, "body": [
            {"op": "syscall", "call": {"class": "command", "driver": DRIVER_ALARM,
                                       "cmd": 2}}]},
        {"op": "syscall", "call": {"class": "yield", "mode": mode}},
        {"op": "halt"}]
    board = Board(BoardConfig.from_file(BOARDS_DIR / "demo_sync.json"))
    board, code = run_board(main, {"h": ending}, board=board)
    assert code == 0
    tail = [(e.kind, e.payload) for e in trace_events(board)
            if e.kind in ("syscall", "upcall_run", "syscall_return", "process_state")]
    at = tail.index(("syscall", {"call": {"class": "yield", "mode": mode}}))
    assert tail[at + 1][0] == "upcall_run"
    assert tail[-1] == ("process_state", {
        "pid": 1, "state": "exited", "reason": "exit syscall"} if ending[0]["op"] == "syscall"
        else {"pid": 1, "state": "faulted", "reason": "write_local at offset 4096"})
    assert "syscall_return" not in [kind for kind, _ in tail[at:]]


def test_two_processes_one_quantum_each_in_pid_order(board):
    main = [{"op": "loop", "count": 5, "body": [
        {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]},
        {"op": "halt"}]
    board.load_app(script_source(main, {}, 256))
    board.load_app(script_source(main, {}, 256))
    board.finalize()
    board.kernel.loop_step()  # both start and run one quantum
    syscalls = [e.actor for e in trace_events(board) if e.kind == "syscall"]
    assert syscalls == ["process:1", "process:2"]
    board.kernel.loop_step()
    syscalls = [e.actor for e in trace_events(board) if e.kind == "syscall"]
    assert syscalls == ["process:1", "process:2", "process:1", "process:2"]


def test_loop_step_reports_no_progress_when_idle(board):
    board.finalize()
    assert board.kernel.loop_step() is False
    assert board.kernel.quiescent()


def test_loop_step_requires_finalized_board(board):
    with pytest.raises(PhaseError):
        board.kernel.loop_step()


def test_pending_alarm_interrupt_progresses(board):
    pcb = board.kernel.processes[load_idle_process(board, handlers={"on_alarm": []})]
    subscribe(board, pcb, DRIVER_ALARM, 0, fn="on_alarm")
    board.kernel.handle_syscall(
        pcb, SyscallInvocation.command(DRIVER_ALARM, 1, 1))
    board.kernel.handle_syscall(pcb, SyscallInvocation.yield_(YieldMode.WAIT))
    board.finalize()
    board.chip.tick(1)
    assert board.chip.irqc.any_pending()
    assert board.kernel.loop_step() is True
    runs = [e for e in trace_events(board) if e.kind == "upcall_run"]
    assert len(runs) == 1


def test_alarm_set_at_time_plus_100_fires_100_ticks_after_the_read():
    # Command 2 reads COUNT, the frame of deadlines and fire ticks, which
    # starts at initial_count and not at the simulation clock's 0.
    cfg = minimal_board_dict()
    cfg["peripherals"]["alarm"]["initial_count"] = 1000
    board = Board.from_dict(cfg)
    kern = board.kernel
    pcb = kern.processes[load_idle_process(board, handlers={"on_alarm": []})]
    subscribe(board, pcb, DRIVER_ALARM, 0, fn="on_alarm")
    now = kern.handle_syscall(pcb, SyscallInvocation.command(DRIVER_ALARM, 2, 0))
    assert now == SyscallReturn.success_value(1000)
    kern.handle_syscall(
        pcb, SyscallInvocation.command(DRIVER_ALARM, 1, now.value + 100))
    kern.handle_syscall(pcb, SyscallInvocation.yield_(YieldMode.WAIT))
    assert board.run(1000) == 0
    runs = [(e.tick, e.payload["args"]) for e in trace_events(board)
            if e.kind == "upcall_run"]
    assert runs == [(100, [1100, 1100, 0])]


# --- exit and invalidation ----------------------------------------------------------------


def test_exit_invalidates_everything(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base, 16)
    subscribe(board, pcb, DRIVER_ALARM, 0)
    kern.handle_syscall(pcb, SyscallInvocation.command(DRIVER_ALARM, 1, 5000))
    kern.schedule_upcall("alarm_driver", DRIVER_ALARM, pid, 0, [1])
    kern.handle_syscall(pcb, SyscallInvocation.exit())
    assert pcb.state is ProcessState.EXITED
    assert not pcb.allow_slots and not pcb.upcall_slots
    assert not pcb.upcall_queue and not pcb.grants
    # the alarm entry was disarmed, so the hardware stops expecting a fire
    assert not board.chip.alarm.armed
    assert kern.quiescent() or board.chip.ticks_until_event() is None


@pytest.mark.parametrize("end", ["exit", "fault"])
def test_shares_and_grants_of_an_ended_process_cannot_be_visited(board, end):
    # A process's memory state lives in its PCB, and a capsule reaches it
    # only through the kernel, which refuses a process that has ended.
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, pcb.ram.base, 16)
    kern.handle_syscall(pcb, SyscallInvocation.command(DRIVER_ALARM, 1, 5000))
    assert list(pcb.grants) == ["alarm_driver"]
    probe = board.capsules_by_name["probe_a"]
    assert kern.with_buffer(probe, pid, 0, "rw", lambda buf: buf.read(0, 1)) == b"\0"
    if end == "exit":
        kern.exit_process(pcb, "test")
    else:
        assert not kern.process_local_write(pcb, 1 << 20, b"\xff")
    assert pcb.state is (ProcessState.EXITED if end == "exit" else ProcessState.FAULTED)
    with pytest.raises(ProcessDead):
        kern.with_buffer(probe, pid, 0, "rw", lambda buf: None)
    with pytest.raises(ProcessDead):
        kern.grant_enter("alarm_driver", 16, pid, lambda grant: None)


def test_exit_orphans_in_flight_console_write(board):
    # The process dies mid-transmission: the UART finishes on its own, the
    # completion upcall reaches nobody, and the driver's buffer is back.
    main = [
        {"op": "write_local", "offset": 0, "data": "aabbccddeeff00112233"},
        {"op": "syscall", "call": {"class": "subscribe", "driver": 1, "sub": 0,
                                   "fn": "on_tx"}},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 1, "buf": 0,
                                   "base": 0, "len": 10}},
        {"op": "syscall", "call": {"class": "command", "driver": 1, "cmd": 1,
                                   "args": [10, 0]}},
        {"op": "syscall", "call": {"class": "exit"}},
    ]
    board, code = run_board(main, {"on_tx": []}, board=board)
    assert code == 0
    assert uart_bytes(board.trace) == bytes.fromhex("aabbccddeeff00112233")
    assert not any(e.kind == "upcall_run" for e in trace_events(board))
    console = board.capsules_by_name["console"]
    assert console.buffer is not None and not board.chip.uart.busy


def test_console_sends_the_bytes_it_copied_when_the_write_was_issued(board):
    # The process rewrites its shared bytes while the transfer is in
    # flight; the UART still sends the bytes the command copied.
    main = [
        {"op": "write_local", "offset": 0, "data": "0123456789"},
        {"op": "syscall", "call": {"class": "subscribe", "driver": 1, "sub": 0,
                                   "fn": "on_tx"}},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 1, "buf": 0,
                                   "base": 0, "len": 5}},
        {"op": "syscall", "call": {"class": "command", "driver": 1, "cmd": 1,
                                   "args": [5, 0]}},
        {"op": "write_local", "offset": 0, "data": "ffffffffff"},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "halt"},
    ]
    board, code = run_board(main, {"on_tx": []}, board=board)
    assert code == 0
    assert uart_bytes(board.trace) == bytes.fromhex("0123456789")
    events = trace_events(board)
    sent = [i for i, e in enumerate(events) if e.kind == "uart_tx"]
    rewrite = max(i for i, e in enumerate(events)
                  if e.kind == "mem_access" and e.payload["op"] == "write")
    assert sent[0] < rewrite < sent[-1]  # between the first and last byte
    assert any(e.kind == "upcall_run" for e in events)


def test_console_write_is_busy_until_the_completion_interrupt_is_handled(board):
    kern, chip = board.kernel, board.chip
    console = board.capsules_by_name["console"]
    buffer = console.buffer
    first, second = (kern.processes[load_idle_process(board)] for _ in range(2))
    for pcb, data in ((first, b"0123456789"), (second, b"wxyz")):
        assert kern.process_local_write(pcb, 0, data)
        ro_allow(kern, pcb, DRIVER_CONSOLE, 0, pcb.ram.base, len(data))
        subscribe(board, pcb, DRIVER_CONSOLE, 0)

    def write(pcb, length):
        return kern.handle_syscall(
            pcb, SyscallInvocation.command(DRIVER_CONSOLE, 1, length))

    busy = SyscallReturn.failure(ErrorCode.BUSY)
    assert write(first, 10) == SyscallReturn.success()
    assert write(second, 4) == busy
    chip.tick(10)
    assert uart_bytes(board.trace) == b"0123456789"
    # The last byte has moved and the IRQ is raised, but until it is
    # handled the buffer is still lent to the UART.
    assert chip.irqc.any_pending() and write(second, 4) == busy
    assert console.buffer is None
    chip.irqc.service()
    assert console.buffer is buffer
    assert list(first.upcall_queue.items()) == [((DRIVER_CONSOLE, 0), (10, 0, 0))]
    assert write(second, 4) == SyscallReturn.success()
    chip.tick(4)
    assert uart_bytes(board.trace) == b"0123456789wxyz"


def test_faulted_process_is_not_restarted(board):
    main = [{"op": "write_local", "offset": 999999, "data": "ff"},
            {"op": "write_local", "offset": 0, "data": "aa"},
            {"op": "halt"}]
    board, code = run_board(main, board=board)
    assert code == 0
    pcb = board.kernel.processes[1]
    assert pcb.state is ProcessState.FAULTED
    # the statements after the fault never ran
    faults = [e for e in trace_events(board) if e.kind == "mem_fault"]
    writes = [e for e in trace_events(board)
              if e.kind == "mem_access" and e.actor == "process:1"]
    assert len(faults) == 1 and len(writes) == 0


def test_mutual_distrust_spinner_cannot_starve_alarm(board):
    spin = [{"op": "loop", "count": 3000, "body": [
        {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]},
        {"op": "halt"}]
    fourcall = [
        {"op": "syscall", "call": {"class": "subscribe", "driver": 0, "sub": 0,
                                   "fn": "on_alarm"}},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 1,
                                   "args": [500, 0]}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "halt"}]
    board.load_app(script_source(spin, {}, 256))
    board.load_app(script_source(fourcall, {"on_alarm": []}, 256))
    code = board.run(5000)
    assert code == 0
    runs = [e for e in trace_events(board) if e.kind == "upcall_run"]
    assert len(runs) == 1
    # delivered within K loop steps of the due tick, K = process count (2)
    assert 500 <= runs[0].tick <= 502


# --- aliasing through scoped handles -----------------------------------------------------------


def test_overlapping_shares_alias_within_one_step(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base, 16)
    rw_allow(kern, pcb, DRIVER_PROBE_B, 0, ram.base + 8, 16)
    probe_a = board.capsules_by_name["probe_a"]
    probe_b = board.capsules_by_name["probe_b"]
    kern.with_buffer(probe_a, pid, 0, "rw",
                     lambda h: h.write(10, b"\xab"))
    got = kern.with_buffer(probe_b, pid, 0, "rw", lambda h: h.read(2, 1))
    assert got == b"\xab"


def test_disjoint_shares_do_not_alias(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base, 8)
    rw_allow(kern, pcb, DRIVER_PROBE_B, 0, ram.base + 8, 8)
    probe_a = board.capsules_by_name["probe_a"]
    probe_b = board.capsules_by_name["probe_b"]
    kern.with_buffer(probe_a, pid, 0, "rw", lambda h: h.write(0, b"\x77"))
    got = kern.with_buffer(probe_b, pid, 0, "rw", lambda h: h.read(0, 1))
    assert got == b"\x00"


def test_buffer_handles_cannot_be_stashed(board):
    # Scoped visitor access only: a handle kept past the visit is dead.
    from kernsim.errors import StaleHandle
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    ram = pcb.ram
    rw_allow(kern, pcb, DRIVER_PROBE_A, 0, ram.base, 16)
    probe_a = board.capsules_by_name["probe_a"]
    stash = []
    kern.with_buffer(probe_a, pid, 0, "rw", lambda h: stash.append(h))
    with pytest.raises(StaleHandle):
        stash[0].read(0, 1)
    with pytest.raises(StaleHandle):
        stash[0].write(0, b"x")


def test_grant_refs_cannot_be_stashed(board):
    from kernsim.errors import StaleHandle
    pid = load_idle_process(board)
    kern = board.kernel
    stash = []
    kern.grant_enter("alarm_driver", 16, pid, lambda g: stash.append(g))
    with pytest.raises(StaleHandle):
        stash[0].read_u32(0)


# --- capsule budget ------------------------------------------------------------------------------


class SpinnerCapsule(Capsule):
    """Test fixture: burns kernel-service calls until told to stop. Each
    one enters its 0-byte grant, which logs one grant_alloc the first
    time and nothing after."""

    def command(self, cmd, arg0, arg1, pid):
        for _ in range(arg0):
            self.kern.grant_enter(pid, lambda grant: None)
        return SyscallReturn.success()


class ReentrantCapsule(Capsule):
    GRANT_SCHEMA = 8

    def command(self, cmd, arg0, arg1, pid):
        self.kern.grant_enter(
            pid, lambda g: self.kern.grant_enter(pid, lambda g2: None))
        return SyscallReturn.success()




def _board_with(extra_capsules, **overrides):
    from conftest import minimal_board_dict
    from kernsim.board import Board
    cfg = minimal_board_dict(**overrides)
    cfg["capsules"] = cfg["capsules"] + extra_capsules
    return Board.from_dict(cfg)


def test_budget_overrun_halts_with_exit_3():
    board = _board_with([{"name": "spinner", "type": "spinner", "driver_id": 9}],
                        capsule_step_budget=1000)
    main = [{"op": "syscall", "call": {"class": "command", "driver": 9, "cmd": 1,
                                       "args": [2000, 0]}},
            {"op": "halt"}]
    board.load_app(script_source(main, {}, 256))
    assert board.run(100) == 3
    diags = [e for e in trace_events(board) if e.kind == "diagnostic"]
    assert diags and "budget" in diags[0].payload["reason"]


def test_budget_is_per_entry_not_cumulative():
    board = _board_with([{"name": "spinner", "type": "spinner", "driver_id": 9}],
                        capsule_step_budget=1000)
    main = [{"op": "loop", "count": 3, "body": [
        {"op": "syscall", "call": {"class": "command", "driver": 9, "cmd": 1,
                                   "args": [900, 0]}}]},
        {"op": "halt"}]
    board.load_app(script_source(main, {}, 256))
    assert board.run(100) == 0


def test_grant_reentry_halts_with_exit_3():
    board = _board_with([{"name": "reentrant", "type": "reentrant",
                          "driver_id": 9}])
    main = [{"op": "syscall", "call": {"class": "command", "driver": 9, "cmd": 1,
                                       "args": [0, 0]}}]
    board.load_app(script_source(main, {}, 256))
    assert board.run(100) == 3


class CrashingAlarmDriver(AlarmDriver):
    """Test fixture: an alarm driver that raises in one chosen entry point,
    set by the test on the class its board type names."""

    crash_in = None

    def _crash_if(self, entry):
        if self.crash_in == entry:
            raise RuntimeError(f"boom in {entry}")

    def command(self, cmd, arg0, arg1, pid):
        self._crash_if("command")
        return super().command(cmd, arg0, arg1, pid)

    def handle_interrupt(self):
        self._crash_if("handle_interrupt")
        super().handle_interrupt()

    def on_process_exit(self, pid):
        self._crash_if("on_process_exit")
        super().on_process_exit(pid)


@pytest.mark.parametrize("entry", ["command", "handle_interrupt",
                                   "on_process_exit"])
def test_capsule_exception_in_any_entry_point_is_exit_3(entry, monkeypatch):
    # command crashes at the arm, handle_interrupt when the alarm fires,
    # on_process_exit at the halt after the alarm was delivered.
    from conftest import minimal_board_dict
    from kernsim.board import Board
    monkeypatch.setattr(CrashingAlarmDriver, "crash_in", entry)
    cfg = minimal_board_dict()
    cfg["capsules"][0] = {"name": "alarm_driver", "type": "crashing_alarm",
                          "driver_id": 0}
    board = Board.from_dict(cfg)
    main = [{"op": "sync_command", "driver": 0, "cmd": 1, "args": [5, 0],
             "fn": "on_alarm"},
            {"op": "halt"}]
    board.load_app(script_source(main, {"on_alarm": []}, 256))
    assert board.run(100) == 3
    last = trace_events(board)[-1]
    assert last.kind == "diagnostic"
    assert last.payload["reason"] == (
        f"capsule 'alarm_driver' crashed in {entry}: "
        f"RuntimeError('boom in {entry}')")


class CrashingConsole(ConsoleDriver):
    """Test fixture: a console whose completion entry raises."""

    def handle_interrupt(self, buffer, count):
        raise RuntimeError(f"boom after {count} bytes")


def test_console_exception_in_its_completion_is_exit_3():
    # The UART hands its completion to the console through capsule_call,
    # so a crash there is a diagnostic naming the console and the entry.
    cfg = minimal_board_dict()
    cfg["capsules"][1]["type"] = "crashing_console"
    main = [
        {"op": "write_local", "offset": 0, "data": "6869"},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 1, "buf": 0,
                                   "base": 0, "len": 2}},
        {"op": "syscall", "call": {"class": "command", "driver": 1, "cmd": 1,
                                   "args": [2, 0]}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
    ]
    board, code = run_board(main, {}, board=Board.from_dict(cfg))
    assert code == 3
    assert uart_bytes(board.trace) == b"hi"
    last = trace_events(board)[-1]
    assert last.kind == "diagnostic"
    assert last.payload["reason"] == (
        "capsule 'console' crashed in handle_interrupt: "
        "RuntimeError('boom after 2 bytes')")


class WrongReturnCapsule(Capsule):
    """Test fixture: a capsule whose command returns the value the test
    sets on the class, not a SyscallReturn."""

    returns = None

    @classmethod
    def build(cls, name, layer, deps, tokens):
        return cls(name, layer["driver_id"])

    def command(self, cmd, arg0, arg1, pid):
        return self.returns


@pytest.mark.parametrize("returns", [None, 0, "success", (0, 0)])
def test_command_returning_no_syscall_return_is_exit_3(returns, monkeypatch):
    monkeypatch.setattr(WrongReturnCapsule, "returns", returns)
    board = _board_with([{"name": "wrong", "type": "wrong_return", "driver_id": 9}])
    main = [{"op": "syscall", "call": {"class": "command", "driver": 9, "cmd": 1}},
            {"op": "halt"}]
    board.load_app(script_source(main, {}, 256))
    assert board.run(100) == 3
    last = trace_events(board)[-1]
    assert last.kind == "diagnostic"
    assert last.payload["reason"] == \
        f"capsule 'wrong' returned {returns!r} from command"


# --- loop step snapshot ----------------------------------------------------------------


class SpawnerCapsule(Capsule):
    """Test fixture: loads a child process from inside a process quantum."""

    CAPABILITIES = (CapabilityKind.LOADER_CONTROL,)

    def __init__(self, name, driver_id, token):
        super().__init__(name, driver_id)
        self.token = token
        self.kernel = None  # set by the test once the board is built

    @classmethod
    def build(cls, name, layer, deps, tokens):
        return cls(name, layer["driver_id"], tokens[0])

    def command(self, cmd, arg0, arg1, pid):
        blob = pack_binary(script_source([{"op": "halt"}], {}, 128), 128)
        self.kernel.loader.submit(self.token, blob, "child")
        return SyscallReturn.success()


# The fixture capsules above, as board layer types. The board schema reads
# CAPSULE_TYPES once, at import, so they get a board key of their own.
_FIXTURE_TYPES = {"spinner": SpinnerCapsule, "reentrant": ReentrantCapsule,
                  "crashing_alarm": CrashingAlarmDriver, "crashing_console": CrashingConsole,
                  "wrong_return": WrongReturnCapsule, "spawner": SpawnerCapsule}
_FIXTURE_BOARD = Key({**BOARD, "capsules": Key(list, default=(), item=Key(
    {ctype: model.LAYER for ctype, model in {**CAPSULE_TYPES, **_FIXTURE_TYPES}.items()},
    tag="type"))})


@pytest.fixture(autouse=True)
def fixture_capsule_types(monkeypatch):
    """The fixture capsules' types, known to the board for each test."""
    for ctype, capsule in _FIXTURE_TYPES.items():
        monkeypatch.setitem(CAPSULE_TYPES, ctype, capsule)
    monkeypatch.setattr("kernsim.board._BOARD", _FIXTURE_BOARD)


def _started_pids(board):
    return [e.payload["pid"] for e in trace_events(board)
            if e.kind == "process_state" and e.payload["state"] == "running"
            and e.payload.get("reason") == "started"]


def test_process_created_during_a_step_first_runs_in_the_next():
    board = _board_with([{"name": "spawner", "type": "spawner", "driver_id": 9}],
                        capabilities={"spawner": ["LoaderControl"]})
    board.capsules_by_name["spawner"].kernel = board.kernel
    board.load_app(script_source(
        [{"op": "syscall", "call": {"class": "command", "driver": 9, "cmd": 1}},
         {"op": "halt"}], {}, 256))
    board.finalize()
    board.kernel.loop_step()
    assert board.kernel.processes[2].state is ProcessState.UNSTARTED
    assert _started_pids(board) == [1]
    board.kernel.loop_step()
    assert _started_pids(board) == [1, 2]


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_a_capsule_load_follows_the_board_loader(mode):
    # The board's loader key binds every submitter, a capsule included: on
    # a sync board the child is created inside the submitting quantum; on
    # an async one the hash engine digests it, and the child is created
    # when the hash interrupt is serviced, at a later tick.
    board = _board_with([{"name": "spawner", "type": "spawner", "driver_id": 9}],
                        loader=mode, capabilities={"spawner": ["LoaderControl"]})
    board.capsules_by_name["spawner"].kernel = board.kernel
    board.load_app(script_source(
        [{"op": "syscall", "call": {"class": "command", "driver": 9, "cmd": 1}},
         {"op": "halt"}], {}, 256))
    assert board.run(200) == 0
    events = trace_events(board)
    start = next(i for i, e in enumerate(events) if e.kind == "syscall"
                 and e.payload["call"].get("driver") == 9)
    end = next(i for i, e in enumerate(events)
               if i > start and e.kind == "syscall_return")
    hashed = [e.payload["job"] for e in events[start:end] if e.kind == "hash_submit"]
    created = next(i for i, e in enumerate(events)
                   if e.kind == "process_created" and e.payload["pid"] == 2)
    if mode == "sync":
        assert start < created < end
        assert hashed == []
    else:
        assert hashed == [2]
        serviced = max(i for i, e in enumerate(events[:created])
                       if e.kind == "irq_serviced")
        assert end < serviced < created
        assert events[serviced].actor == "hw:hashengine"
        assert events[serviced].tick == events[created].tick > events[start].tick


def test_process_loaded_by_the_hash_irq_starts_in_the_same_step():
    board = make_board(loader="async")
    board.load_app(script_source([{"op": "halt"}], {}, 256))
    board.finalize()
    while not board.chip.irqc.any_pending():
        board.kernel.loop_step()
        board.chip.tick(1)
    assert not board.kernel.processes
    board.kernel.loop_step()
    assert _started_pids(board) == [1]
    # created and started at the same tick
    ticks = {e.tick for e in trace_events(board)
             if e.kind in ("process_created", "process_state")}
    assert len(ticks) == 1


def test_process_killed_earlier_in_a_step_does_not_run():
    board = make_board()
    board.load_app(script_source(
        [{"op": "syscall", "call": {"class": "command", "driver": DRIVER_MANAGER,
                                    "cmd": 1, "args": [2, 0]}},
         {"op": "halt"}], {}, 256))
    board.load_app(script_source([{"op": "halt"}], {}, 256))
    board.finalize()
    board.kernel.loop_step()
    assert board.kernel.processes[2].state is ProcessState.EXITED
    assert _started_pids(board) == [1]


def test_expect_logs_each_pattern_text_in_order(board):
    pcb = board.kernel.processes[load_idle_process(board)]
    looped = [{"variant": "success", "n": [1]}, {"variant": "success", "n": 0}]
    distinct = [{"variant": "success", "n": n} for n in range(20)]
    script = parse_script({"main": [
        {"op": "loop", "count": 3,
         "body": [{"op": "expect", "pattern": p} for p in looped]}] +
        [{"op": "expect", "pattern": p} for p in distinct]})
    for run, pattern, text in script.main:
        assert run(board.kernel, pcb, pattern, text) is False  # it never ends a quantum
    expects = [e.payload for e in trace_events(board) if e.kind == "expect"]
    assert [e["pattern"] for e in expects] == looped * 3 + distinct
    assert {e["actual"] for e in expects} == {None}


def test_expect_pattern_texts_of_loops_and_handlers_are_their_compact_json():
    # Awkward strings and nested values, in a looped body and in a
    # handler; each line's pattern text is json.dumps of the pattern.
    patterns = [{name: [name, {"n": None, "b": [True, -1.5]}], "variant": name}
                for name in AWKWARD_NAMES]
    expects = [{"op": "expect", "pattern": p} for p in patterns]
    main = [{"op": "sync_command", "driver": DRIVER_ALARM, "cmd": 1, "args": [3, 0],
             "fn": "on_alarm"},
            {"op": "loop", "count": 2, "body": expects},
            {"op": "halt"}]
    board, code = run_board(main, {"on_alarm": expects})
    assert code == 1  # no pattern matches a return
    lines = [line for line in board.trace.out.getvalue().splitlines()
             if '"kind":"expect"' in line
             and '"pattern":{"variant":"success"}' not in line]
    # the handler runs inside the sync_command's wait, before the loop
    assert len(lines) == 3 * len(patterns)
    for line, pattern in zip(lines, patterns * 3):
        text = json.dumps(pattern, separators=(",", ":"))
        assert f'"payload":{{"pattern":{text},"actual":' in line


_EMPTY_ALLOW = {"class": "rw_allow", "driver": DRIVER_PROBE_A, "buf": 0, "base": 0,
                "len": 0}
_EMPTY_REGION = {"variant": "success_region", "base": 0, "len": 0}
_PROBE_NOOP = {"class": "command", "driver": DRIVER_PROBE_A, "cmd": 0}


@pytest.mark.parametrize("call, pattern, actual, passed", [
    (_EMPTY_ALLOW, _EMPTY_REGION, _EMPTY_REGION, True),
    (_EMPTY_ALLOW, {"len": 0, "base": 0, "variant": "success_region"},
     _EMPTY_REGION, True),
    (_EMPTY_ALLOW, {"variant": "success_region"}, _EMPTY_REGION, True),
    (_EMPTY_ALLOW, {}, _EMPTY_REGION, True),
    # A key the record lacks reads as null, so a null value matches it.
    (_PROBE_NOOP, {"variant": "success", "value": None}, {"variant": "success"},
     True),
    (_EMPTY_ALLOW, {"variant": "success_region", "base": 1}, _EMPTY_REGION, False),
    # Values compare as JSON values: false, 0.0 and -0.0 are not 0.
    (_EMPTY_ALLOW, {"variant": "success_region", "len": False}, _EMPTY_REGION, False),
    (_EMPTY_ALLOW, {"variant": "success_region", "len": 0.0}, _EMPTY_REGION, False),
    (_EMPTY_ALLOW, {"variant": "success_region", "len": -0.0}, _EMPTY_REGION, False),
    (None, {}, None, False),
], ids=["whole_record", "keys_reordered", "subset", "empty", "absent_key_null",
        "wrong_value", "bool_is_not_int", "float_is_not_int", "negative_zero_is_not_int",
        "before_any_syscall"])
def test_expect_verdicts(call, pattern, actual, passed):
    main = [{"op": "syscall", "call": call}] if call else []
    main += [{"op": "expect", "pattern": pattern}, {"op": "halt"}]
    board, code = run_board(main)
    [expect] = [e.payload for e in trace_events(board) if e.kind == "expect"]
    assert expect == {"pattern": pattern, "actual": actual, "pass": passed}
    assert code == (0 if passed else 1)
    assert board.kernel.expect_failures == (0 if passed else 1)


# --- subscribe drops the swapped slot's queued upcalls --------------------------


@pytest.mark.parametrize("fn, swapped, flag, runs", [
    ("null", {"variant": "success_upcall", "fn": "old"}, 0, []),
    ("missing", {"variant": "failure", "err": "INVAL"}, 1, ["old"]),
], ids=["swap_drops_the_queued_upcall", "failed_subscribe_keeps_it"])
def test_a_subscribe_that_swaps_drops_the_slot_s_queued_upcall(tmp_path, fn, swapped,
                                                                 flag, runs):
    # The alarm fires during the time commands and queues an upcall of
    # "old"; only a subscribe that succeeds takes it off the queue.
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "stale_upcall", "main": [
        {"op": "syscall", "call": {"class": "subscribe", "driver": DRIVER_ALARM,
                                   "sub": 0, "fn": "old"}},
        {"op": "syscall", "call": {"class": "command", "driver": DRIVER_ALARM,
                                   "cmd": 1, "args": [3, 0]}},
        {"op": "loop", "count": 20, "body": [
            {"op": "syscall", "call": {"class": "command", "driver": DRIVER_ALARM,
                                       "cmd": 2}}]},
        {"op": "syscall", "call": {"class": "subscribe", "driver": DRIVER_ALARM,
                                   "sub": 0, "fn": fn}},
        {"op": "expect", "pattern": swapped},
        {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}},
        {"op": "expect", "pattern": {"variant": "success_value", "value": flag}},
        {"op": "halt"}], "handlers": {"old": []}}))
    trace = tmp_path / "trace.jsonl"
    assert run_simulation(BOARDS_DIR / "demo.json", [app], max_ticks=2000,
                          trace_path=trace) == 0
    events = parse_trace(trace.read_bytes())
    assert any(e["kind"] == "upcall_queued" for e in events)
    assert [e["payload"]["fn"] for e in events if e["kind"] == "upcall_run"] == runs


def test_subscribe_keeps_the_queued_upcalls_of_other_slots(board):
    pid = load_idle_process(board)
    kern = board.kernel
    pcb = kern.processes[pid]
    for driver in (DRIVER_ALARM, DRIVER_CONSOLE):
        subscribe(board, pcb, driver, 0)
        kern.schedule_upcall("test", driver, pid, 0, [1])
    assert subscribe(board, pcb, DRIVER_ALARM, 0, fn="h2").upcall.fn_id == "h1"
    assert list(pcb.upcall_queue) == [(DRIVER_CONSOLE, 0)]
    assert pcb.upcall_slots[DRIVER_CONSOLE, 0].fn_id == "h1"


def test_upcall_queue_matches_its_reference_model(monkeypatch):
    # Random subscribes (to a handler, to null, and ones that fail),
    # capsule upcalls (to dead pids too), yields and exits on three
    # processes; every upcall event and syscall return is the model's.
    # Two subscribe slots on each probe give six slots to queue on.
    monkeypatch.setattr(ProbeDriver, "NUM_SUBSCRIBES", 2)
    subscribes = {DRIVER_ALARM: 1, DRIVER_CONSOLE: 1, DRIVER_PROBE_A: 2,
                  DRIVER_PROBE_B: 2, DRIVER_MANAGER: 0}
    slots = [(driver, sub) for driver, n in subscribes.items() for sub in range(n)]
    unsubscribable = [(DRIVER_ALARM, 1), (DRIVER_MANAGER, 0), (9, 0)]
    handlers = {"h1": [], "h2": []}
    kinds = ("upcall_queued", "upcall_dropped", "upcall_run")
    rng = random.Random(19)
    seen = set()
    for _ in range(30):
        depth = rng.choice((1, 2, 3, 8))
        board = make_board(upcall_queue_depth=depth)
        kern = board.kernel
        pids = [board.load_app(script_source(
            [{"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}],
            handlers)).pid for _ in range(3)]
        board.finalize()
        kern.loop_step()  # each process starts and runs its yield
        models = {pid: UpcallQueueModel(depth, handlers, subscribes) for pid in pids}
        models[99] = UpcallQueueModel(depth, handlers, subscribes, live=False)
        start = len(board.trace.out.getvalue())
        expected = []
        for _ in range(150):
            op = rng.choices(("upcall", "subscribe", "yield", "exit"), (10, 4, 3, 0.2))[0]
            live = [pid for pid in pids if models[pid].live]
            if op == "upcall" or not live:
                pid = rng.choice(sorted(models))
                slot = rng.choice(slots + unsubscribable[:rng.randrange(2)])
                model = models[pid]
                args = [rng.randrange(2 ** 32) for _ in range(rng.randrange(5))]
                outcome = model.schedule(slot, args)
                queued = kern.schedule_upcall("cap", slot[0], pid, slot[1], args)
                assert queued == ("replaced" in outcome)
                expected.append(("capsule:cap", kinds[0] if queued else kinds[1],
                                 upcall_record(pid, *slot, args, **outcome)))
                seen.update(outcome.values())
                continue
            pid = rng.choice(live)
            pcb, model = kern.processes[pid], models[pid]
            if op == "subscribe":
                slot = rng.choice(slots + unsubscribable)
                fn = rng.choice(("h1", "h2", "h1", "h2", "null", "missing"))
                userdata = rng.randrange(2 ** 32)
                ret = kern.handle_syscall(
                    pcb, SyscallInvocation.subscribe(*slot, fn, userdata))
                assert return_record(ret) == model.subscribe(slot, fn, userdata)
                seen.add(ret.variant.value)
            elif op == "yield":
                run = model.deliver()
                ret = kern.handle_syscall(pcb, SyscallInvocation.yield_(YieldMode.NO_WAIT))
                assert ret == SyscallReturn.success_value(int(run is not None))
                if run is not None:
                    expected.append((pcb.actor, kinds[2], run))
                    seen.add("run")
            else:
                kern.handle_syscall(pcb, SyscallInvocation.exit())
                model.exit()
        assert [(e["actor"], e["kind"], e["payload"]) for e in parse_trace(
            board.trace.out.getvalue()[start:].encode()) if e["kind"] in kinds] \
            == expected
    # The sequences reach every outcome the model knows.
    assert seen == {"dead process", "null subscription", "queue full", False, True,
                    "success_upcall", "failure", "run"}


# --- pids only at the capsule boundary ------------------------------------------


def test_only_capsule_visits_look_a_process_up_by_pid(monkeypatch):
    # Allows on each segment, expects, local accesses, existence probes
    # and probe commands: the kernel resolves a pid only when a capsule
    # visits an allowed buffer or its grant.
    calls = {"_live_pcb": 0, "with_buffer": 0, "grant_enter": 0}
    for name in calls:
        def counting(self, *args, _name=name, _original=getattr(Kernel, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(Kernel, name, counting)

    def call(klass, **record):
        return {"op": "syscall", "call": dict(record, **{"class": klass})}

    def expect(**pattern):
        return {"op": "expect", "pattern": pattern}

    main = [
        call("rw_allow", driver=DRIVER_PROBE_A, buf=0, base=16, len=16),
        expect(variant="success_region"),
        call("ro_allow", driver=DRIVER_PROBE_A, buf=0, base=2, len=8, seg="flash"),
        call("ro_allow", driver=DRIVER_PROBE_B, buf=0, base=99, len=0, seg="abs"),
        {"op": "loop", "count": 3, "body": [
            {"op": "write_local", "offset": 16, "data": "c0ffee"},
            {"op": "read_local", "offset": 16, "len": 3},
            call("command", driver=DRIVER_PROBE_A, cmd=0),
            expect(variant="success"),
            call("command", driver=DRIVER_PROBE_A, cmd=1, args=[3, 171]),
            call("command", driver=DRIVER_PROBE_A, cmd=2, args=[3]),
            expect(variant="success_value", value=171),
            call("command", driver=DRIVER_PROBE_A, cmd=4, args=[0]),
            # byte 2 of the image, which begins '{"name"'
            expect(variant="success_value", value=ord("n")),
            call("command", driver=DRIVER_ALARM, cmd=1, args=[500, 0]),
            expect(variant="success")]},
        {"op": "halt"}]
    # A process loaded first keeps this one's image off flash base 0.
    board, code = run_board(None, apps=[script_source([{"op": "halt"}], {}, 16),
                                        script_source(main)])
    assert code == 0
    pcb = board.kernel.processes[2]
    assert pcb.flash.base
    bases = [e.payload["call"]["base"] for e in trace_events(board)
             if e.kind == "syscall" and "allow" in e.payload["call"]["class"]]
    assert bases == [pcb.ram.base + 16, pcb.flash.base + 2, 99]
    assert (calls["with_buffer"], calls["grant_enter"]) == (9, 3)
    assert calls["_live_pcb"] == calls["with_buffer"] + calls["grant_enter"]
