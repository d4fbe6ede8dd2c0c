import copy

import pytest

from kernsim.abi import ErrorCode, SyscallInvocation, SyscallReturn
from kernsim.capabilities import (
    CapabilityKind,
    CapabilityRegistry,
    CapabilityToken,
)
from kernsim.errors import (
    ForeignCapability,
    PhaseError,
    ProcessDead,
    WrongKind,
)
from kernsim.kernel import ProcessState
from kernsim.loader import pack_binary

from conftest import (make_board, minimal_board_dict, script_source,
                      trace_events)
from kernsim.board import Board
from kernsim.trace import TraceLog


def test_mint_during_building_then_refused_after_finalize():
    registry = CapabilityRegistry(TraceLog())
    token = registry.mint(CapabilityKind.PROCESS_MANAGEMENT, "holder")
    assert token.kind is CapabilityKind.PROCESS_MANAGEMENT
    registry.finalize()
    assert registry.finalized
    with pytest.raises(PhaseError):
        registry.mint(CapabilityKind.PROCESS_MANAGEMENT, "holder")


def test_finalize_is_once_only():
    registry = CapabilityRegistry(TraceLog())
    registry.finalize()
    with pytest.raises(PhaseError):
        registry.finalize()


def test_token_from_another_board_is_foreign():
    reg_a = CapabilityRegistry(TraceLog())
    reg_b = CapabilityRegistry(TraceLog())
    token_a = reg_a.mint(CapabilityKind.PROCESS_MANAGEMENT, "x")
    with pytest.raises(ForeignCapability):
        reg_b.validate(token_a, CapabilityKind.PROCESS_MANAGEMENT)


def test_wrong_kind_rejected():
    registry = CapabilityRegistry(TraceLog())
    token = registry.mint(CapabilityKind.LOADER_CONTROL, "x")
    with pytest.raises(WrongKind):
        registry.validate(token, CapabilityKind.PROCESS_MANAGEMENT)


def test_tokens_carry_nothing_but_kind_and_receipt():
    registry = CapabilityRegistry(TraceLog())
    token = registry.mint(CapabilityKind.LOADER_CONTROL, "x")
    assert set(token.__dataclass_fields__) == {"kind"}


def test_process_destroy_with_valid_token(board):
    pid = board.load_app(script_source([], {}, 256)).pid
    token = board.capsules_by_name["manager"].token
    board.kernel.process_destroy(token, pid)
    assert board.kernel.processes[pid].state is ProcessState.EXITED
    with pytest.raises(ProcessDead):
        board.kernel.process_destroy(token, pid)  # already dead


def test_wrong_kind_token_rejected_by_kernel(board):
    pid = board.load_app(script_source([], {}, 256)).pid
    loader_token = board.registry.mint(CapabilityKind.LOADER_CONTROL, "test")
    with pytest.raises(WrongKind):
        board.kernel.process_destroy(loader_token, pid)


def test_foreign_token_rejected_by_kernel(board):
    other = make_board()
    foreign = other.capsules_by_name["manager"].token
    pid = board.load_app(script_source([], {}, 256)).pid
    with pytest.raises(ForeignCapability):
        board.kernel.process_destroy(foreign, pid)


FORGERIES = {
    "hand_built": lambda kind, board: CapabilityToken(kind),
    "copied": lambda kind, board: copy.copy(board.registry.mint(kind, "x")),
    "not_a_token": lambda kind, board: [kind],
    "other_board": lambda kind, board: make_board().registry.mint(kind, "x"),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_only_the_minted_object_is_a_capability(board, forgery):
    victim = board.load_app(script_source([], {}, 256)).pid
    destroy = FORGERIES[forgery](CapabilityKind.PROCESS_MANAGEMENT, board)
    load = FORGERIES[forgery](CapabilityKind.LOADER_CONTROL, board)
    binary = pack_binary(script_source([], {}, 256), 256)
    privileged = [e for e in trace_events(board) if e.kind == "privileged_op"]
    with pytest.raises(ForeignCapability):
        board.kernel.process_destroy(destroy, victim)
    with pytest.raises(ForeignCapability):
        board.kernel.loader.submit(load, binary, "forged")
    assert board.kernel.processes[victim].state is ProcessState.UNSTARTED
    assert [e for e in trace_events(board) if e.kind == "privileged_op"] == privileged


def test_mint_after_finalize_fails_on_a_real_board(board):
    board.finalize()
    with pytest.raises(PhaseError):
        board.registry.mint(CapabilityKind.PROCESS_MANAGEMENT, "late")
    mint_events = [e for e in trace_events(board) if e.kind == "cap_minted"]
    finalize_seq = next(e.seq for e in trace_events(board)
                        if e.kind == "finalized")
    assert all(e.seq < finalize_seq for e in mint_events)


def test_tokenless_manager_cannot_express_destroy():
    cfg = minimal_board_dict(capabilities={})  # nothing granted
    board = Board.from_dict(cfg)
    victim = board.load_app(script_source([], {}, 256)).pid
    pcb = board.kernel.processes[victim]
    ret = board.kernel.handle_syscall(pcb, SyscallInvocation.command(4, 1, victim))
    assert ret == SyscallReturn.failure(ErrorCode.NOSUPPORT)
    assert pcb.state is ProcessState.UNSTARTED
    assert not any(e.kind == "privileged_op"
                   and e.payload["op"] == "process_destroy"
                   for e in trace_events(board))


@pytest.mark.parametrize("target", ["ended", "never_existed"])
def test_manager_destroy_of_a_process_that_is_not_live_answers_inval(board, target):
    pid = board.load_app(script_source([], {}, 256)).pid
    victim = board.load_app(script_source([], {}, 256)).pid
    board.kernel.exit_process(board.kernel.processes[victim], "test")
    target_pid = victim if target == "ended" else 99
    ret = board.kernel.handle_syscall(board.kernel.processes[pid],
                                      SyscallInvocation.command(4, 1, target_pid))
    assert ret == SyscallReturn.failure(ErrorCode.INVAL)
    assert not any(e.kind == "privileged_op"
                   and e.payload["op"] == "process_destroy"
                   for e in trace_events(board))


def test_manager_destroy_via_scenario(board):
    victim = [
        {"op": "syscall", "call": {"class": "subscribe", "driver": 0, "sub": 0,
                                   "fn": "on_alarm"}},
        {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 1,
                                   "args": [9000, 0]}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "halt"},
    ]
    killer = [
        {"op": "syscall", "call": {"class": "command", "driver": 4, "cmd": 1,
                                   "args": [1, 0]}},
        {"op": "expect", "pattern": {"variant": "success"}},
        {"op": "halt"},
    ]
    board.load_app(script_source(victim, {"on_alarm": []}, 256))
    board.load_app(script_source(killer, {}, 256))
    code = board.run(500)
    assert code == 0
    # run ended long before the victim's 9000-tick alarm: cleanup disarmed it
    assert board.chip.clock.now < 100
    privileged = [e for e in trace_events(board) if e.kind == "privileged_op"
                  and e.payload["op"] == "process_destroy"]
    assert len(privileged) == 1
    assert privileged[0].payload["holder"] == "manager"

