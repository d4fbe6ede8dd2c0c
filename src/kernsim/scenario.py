"""Scenario scripts: the deterministic programs processes run.

A scenario file gives a process a `main` statement list and a table of
named upcall handlers. Statements either issue system calls, check the
last return value against a pattern, or touch process-local memory (which
goes through the MPU like any other process access). At parse time, the
`sync_command` macro is expanded, and each statement is compiled into its
step: the function of its kind bound to the arguments that kind uses, such
as a decoded system call, or an expect's pattern with its compact JSON
text. A loop stays one step, run in place, and its body's calls carry
their ``syscall`` text from parse. A process runs a step with the kernel
and its own control block; an allow relative to its process's ram or
flash adds that base at run time. What bounds a process is its quantum:
one that would run more than MAX_STATEMENTS statements faults it.

Upcall handlers run to completion and may not yield; that is checked at
parse time, not discovered at runtime.
"""

from __future__ import annotations

import binascii
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .abi import ARGS, REGISTER, SYSCALL, U32_MAX, SyscallClass, \
    SyscallInvocation, YieldMode, call_text
from .errors import INVALID, Key, Schema, ScenarioError, where
from .loader import MAX_ENTRY_BYTES
from .trace import encode_json

MAX_STATEMENTS = 200_000  # the most one quantum, or one handler run, runs
# The frames a parse may take below its own: JSON's decoder takes one per
# list or object, the statement reader two per loop. As the count starts at
# the parse's frame, a file parses, or not, alike wherever it is parsed.
PARSE_FRAMES = 1000
DEFAULT_MIN_MEMORY = 1024


# A compiled statement: (run, a, b), a and b being the arguments its kind
# uses (None where it uses fewer); a loop's is (None, body steps, count).
# run(kern, pcb, a, b) runs it for pcb's process, True if that ends the quantum.
Step = Tuple[Optional[Callable[..., bool]], Any, Any]


def _syscall(kern, pcb, inv: SyscallInvocation, text: Optional[str]) -> bool:
    """Make the call, logged as ``text`` if its loop's parse built that."""
    kern.handle_syscall(pcb, inv, text)
    return True


def _relative_allow(kern, pcb, inv: SyscallInvocation, seg: str) -> bool:
    """Make an allow whose base is relative to the process's ``seg``."""
    region = pcb.ram if seg == "ram" else pcb.flash
    return _syscall(kern, pcb, inv._replace(base=region.base + inv.base), None)


def _expect(kern, pcb, pattern: Dict[str, Any], text: str) -> bool:
    kern.record_expect(pcb, pattern, text)
    return False


def _write_local(kern, pcb, offset: int, data: bytes) -> bool:
    kern.process_local_write(pcb, offset, data)
    return False


def _read_local(kern, pcb, offset: int, length: int) -> bool:
    kern.process_local_read(pcb, offset, length)
    return False


def _halt(kern, pcb, _a, _b) -> bool:
    kern.exit_process(pcb, "halt")
    return True


@dataclass
class ScenarioScript:
    name: str
    min_memory: int
    key_id: int
    entry: str
    main: List[Step]
    handlers: Dict[str, List[Step]] = field(default_factory=dict)
    credential_digest: Optional[int] = None  # explicit override; None = computed
    source: Optional[bytes] = None  # the bytes parse_script_bytes parsed


# The lists under "main", a handler name and a loop's "body" hold
# statements, each checked and built by STATEMENT's check. The header
# fields are bounded to their widths in the packed binary.
_U32 = Key(int, 0, U32_MAX, 0)
STATEMENTS: Dict[str, Schema] = {
    "syscall": {"call": SYSCALL},
    "expect": {"pattern": Key(dict, required=True)},
    "write_local": {"offset": Key(int, 0, required=True),
                    "data": Key(str, default="")},
    "read_local": {"offset": Key(int, 0, required=True),
                   "len": Key(int, 0, required=True)},
    "halt": {},
    "loop": {"count": Key(int, 0, required=True), "body": Key(list, default=())},
    "sync_command": {"driver": REGISTER, "cmd": REGISTER, "args": ARGS,
                     "fn": Key(str, required=True), "sub": _U32,
                     "userdata": _U32},
}
SCENARIO: Schema = {
    "name": Key(str),
    "min_memory": Key(int, 0, U32_MAX, DEFAULT_MIN_MEMORY),
    "entry": Key(str, hi=MAX_ENTRY_BYTES, default="main"),
    "credential": Key({"digest": Key(int, 0, (1 << 64) - 1, null=True),
                       "key_id": Key(int, 0, 0xFFFF, 0)}, default={}),
    "main": Key(list, default=()),
    "handlers": Key(dict, default={}, item=Key(list)),
}
_SCENARIO = Key(SCENARIO)
_WAIT = (_syscall, SyscallInvocation.yield_(YieldMode.WAIT), None)
_SUCCESS = {"variant": "success"}
_EXPECT_SUCCESS = (_expect, _SUCCESS, encode_json(_SUCCESS))
_YIELD = SyscallClass.YIELD


# Each op's builder is its make: it adds the steps of a statement whose
# keys passed its schema to ``stmts``, given the statement's values in
# schema order, its path, the violations so far and whether it is in a
# handler.

def _syscall_steps(call, here, out, stmts, in_handler):
    inv, seg = call
    if in_handler and inv.klass is _YIELD:
        out.append(f"{where(here)}: upcall handlers run to completion "
                   "and may not yield")
    else:
        stmts.append((_relative_allow, inv, seg) if seg else (_syscall, inv, None))


def _expect_steps(pattern, here, out, stmts, in_handler):
    stmts.append((_expect, pattern, encode_json(pattern)))


def _write_local_steps(offset, data, here, out, stmts, in_handler):
    try:
        stmts.append((_write_local, offset, binascii.unhexlify(data)))
    except ValueError:  # not hex, or not ASCII
        out.append(f"{where((here, 'data'))} must be hex, got {data!r}")


def _read_local_steps(offset, length, here, out, stmts, in_handler):
    stmts.append((_read_local, offset, length))


def _halt_steps(here, out, stmts, in_handler):
    stmts.append((_halt, None, None))


def _loop_steps(count, body, here, out, stmts, in_handler):
    # The body's statements are read here, not through _parse_statements,
    # so that a loop nests two calls deep, as JSON's object and list do.
    steps: List[Step] = []
    here = (here, "body")
    for i, raw in enumerate(body):
        _add_steps(raw, (here, i), out, steps, in_handler)
    if count > 1 and steps:  # a call that repeats carries its text from here on
        stmts.append((None, [(_syscall, s[1], call_text(s[1]))
                             if s[0] is _syscall and s[2] is None else s
                             for s in steps], count))
    elif count:  # one pass is its body; none, or an empty body, adds nothing
        stmts += steps


def _sync_command_steps(driver, cmd, args, fn, sub, userdata, here, out, stmts,
                        in_handler):
    if in_handler:
        out.append(f"{where(here)}: sync_command yields and cannot appear "
                   "in a handler")
    else:  # subscribe, command, wait, expect
        stmts += (
            (_syscall, SyscallInvocation.subscribe(driver, sub, fn, userdata), None),
            (_syscall, SyscallInvocation.command(driver, cmd, *args), None),
            _WAIT, _EXPECT_SUCCESS)


# A statement is checked and built by one call of its key's check:
# _add_steps(raw, here, out, stmts, in_handler).
STATEMENT = Key(STATEMENTS, tag="op", make={
    "syscall": _syscall_steps, "expect": _expect_steps,
    "write_local": _write_local_steps, "read_local": _read_local_steps,
    "halt": _halt_steps, "loop": _loop_steps, "sync_command": _sync_command_steps,
}, context=("stmts", "in_handler"))
_add_steps = STATEMENT.check


def _parse_statements(raw_list, path, in_handler: bool, out: List[str]) -> List[Step]:
    """The steps of a statement list."""
    stmts: List[Step] = []
    for i, raw in enumerate(raw_list):
        _add_steps(raw, (path, i), out, stmts, in_handler)
    return stmts


def parse_script(data: Dict[str, Any], name: str = "app") -> ScenarioScript:
    out: List[str] = []
    doc = _SCENARIO.check(data, "scenario", out)
    if doc is INVALID:
        raise ScenarioError(out)
    main = _parse_statements(doc["main"] or (), ("scenario", "main"), False, out)
    handlers = {hname: _parse_statements(body or (), (("scenario", "handlers"), hname),
                                         True, out)
                for hname, body in (doc["handlers"] or {}).items()}
    if out:
        raise ScenarioError(out)
    credential = doc["credential"]
    return ScenarioScript(
        name=name if doc["name"] is None else doc["name"], min_memory=doc["min_memory"],
        key_id=credential["key_id"], entry=doc["entry"], main=main, handlers=handlers,
        credential_digest=credential["digest"])


def parse_script_bytes(blob: bytes, name: str = "app") -> ScenarioScript:
    """The script a scenario file's bytes hold. A file nested deeper than
    PARSE_FRAMES allows, whether JSON's decoder or the statement reader
    reaches it first, is refused like one that does not parse."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + PARSE_FRAMES)
    try:
        script = parse_script(json.loads(blob.decode("utf-8")), name)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ScenarioError([f"scenario does not parse: {exc}"]) from None
    finally:
        sys.setrecursionlimit(limit)
    script.source = blob
    return script


def _repeat(body: List[Step], count: int) -> Iterator[Step]:
    for _ in range(count):
        yield from body


def _walk(steps: List[Step]) -> Iterator[Step]:
    """The statements ``steps`` run, in order: a loop's step ``(None, body,
    count)`` runs its body, never empty, count times. The loops being
    walked are kept on a list, so nesting them takes no frames."""
    walking = [iter(steps)]
    while walking:
        for step in walking[-1]:
            if step[0] is None:
                walking.append(_repeat(step[1], step[2]))
                break
            yield step
        else:
            walking.pop()


class ProcessProgram:
    """The statements of one process's script, walked as it runs."""

    def __init__(self, script: ScenarioScript):
        self.main = _walk(script.main)
        self.handlers = script.handlers

    def advance(self, kern, pcb) -> None:
        """One quantum of the process whose control block is ``pcb``: run
        statements until a system call or halt ends it, or the process
        leaves the Running state. The process is faulted instead of
        running statement MAX_STATEMENTS + 1 of one quantum."""
        for ran, (run, a, b) in enumerate(self.main):
            if ran == MAX_STATEMENTS:
                kern.fault_process(pcb, f"ran {ran} statements without a system call")
                return
            if run(kern, pcb, a, b) or pcb.state != "running":
                return
        kern.exit_process(pcb, "end of program")

    def run_handler(self, kern, pcb, fn_id: str) -> None:
        """Execute an upcall handler to completion (handlers cannot yield),
        or fault the process instead of running statement MAX_STATEMENTS + 1."""
        for ran, (run, a, b) in enumerate(_walk(self.handlers.get(fn_id, []))):
            if pcb.state != "running":
                return
            if ran == MAX_STATEMENTS:
                kern.fault_process(pcb, f"handler ran {ran} statements")
                return
            run(kern, pcb, a, b)
