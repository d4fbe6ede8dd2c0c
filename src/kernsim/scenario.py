"""Scenario scripts: the deterministic programs processes run.

A scenario file gives a process a `main` statement list and a table of
named upcall handlers. Statements either issue system calls, check the
last return value against a pattern, or touch process-local memory (which
goes through the MPU like any other process access). At parse time, loops
are unrolled, the `sync_command` macro is expanded, and each statement is
compiled into its step: the function of its kind bound to the arguments
that kind uses, such as a decoded system call, or an expect's pattern
with its compact JSON text. An unrolled loop repeats the steps of its
body. A process runs a step with the kernel and its own control block;
the one rule left for run time is that an allow adds that process's ram
or flash base to its base.

Upcall handlers run to completion and may not yield; that is checked at
parse time, not discovered at runtime.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .abi import ARGS, REGISTER, SYSCALL, U32_MAX, SyscallClass, \
    SyscallInvocation, YieldMode, invocation
from .errors import INVALID, Key, Schema, ScenarioError, walk, where
from .trace import encode_json

MAX_STATEMENTS = 200_000
DEFAULT_MIN_MEMORY = 1024


# A compiled statement: (run, a, b), a and b being the arguments its kind
# uses (None where it uses fewer). run(kern, pcb, a, b) runs it for the
# process of control block pcb, and returns True when it ends the quantum.
Step = Tuple[Callable[..., bool], Any, Any]


def _syscall(kern, pcb, inv: SyscallInvocation, seg: Optional[str]) -> bool:
    """Make the call. An allow's base is relative to the process's
    ``seg``, "ram" or "flash"; any other call, or an absolute one, has none."""
    if seg is not None:
        region = pcb.ram if seg == "ram" else pcb.flash
        inv = inv._replace(base=region.base + inv.base)
    kern.handle_syscall(pcb, inv)
    return True


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


# The lists under "main", a handler name and a loop's "body" hold
# statements, which _parse_statements walks one at a time. The header
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
STATEMENT = Key(STATEMENTS, tag="op")
SCENARIO: Schema = {
    "name": Key(str),
    "min_memory": Key(int, 0, U32_MAX, DEFAULT_MIN_MEMORY),
    "entry": Key(str, hi=0xFFFF, default="main"),
    "credential": Key({"digest": Key(int, 0, (1 << 64) - 1, null=True),
                       "key_id": Key(int, 0, 0xFFFF, 0)}, default={}),
    "main": Key(list, default=()),
    "handlers": Key(dict, default={}, item=Key(list)),
}
_WAIT = (_syscall, SyscallInvocation.yield_(YieldMode.WAIT), None)
_SUCCESS = {"variant": "success"}
_EXPECT_SUCCESS = (_expect, _SUCCESS, encode_json(_SUCCESS))


def _parse_statements(raw_list, path, in_handler: bool, budget: List[int],
                      out: List[str]) -> List[Step]:
    """The flat steps a list unrolls to, each statement checked against
    STATEMENT here, so that a loop nests one call deep. ``budget`` holds
    the statements the script may still unroll to."""
    stmts: List[Step] = []
    for i, raw in enumerate(raw_list):
        here = (path, i)
        seen = len(out)
        rec = walk(STATEMENT, raw, here, out)
        if len(out) != seen:
            continue
        op = rec["op"]
        if op == "loop":
            body = _parse_statements(rec["body"], (here, "body"), in_handler,
                                     budget, out)
        budget[0] -= (len(body) * rec["count"] if op == "loop" else
                      4 if op == "sync_command" else 1)
        if budget[0] < 0:
            raise ScenarioError(out + [
                f"script exceeds {MAX_STATEMENTS} statements after unrolling"])
        if op == "loop":
            if body:  # an empty body unrolls to nothing, whatever the count
                stmts.extend(body * rec["count"])
        elif op == "syscall":
            call = rec["call"]
            inv = invocation(call)
            if in_handler and inv.klass is SyscallClass.YIELD:
                out.append(f"{where(here)}: upcall handlers run to completion "
                           "and may not yield")
            else:  # only an allow has a seg; an "abs" one adds no base
                seg = call.get("seg")
                stmts.append((_syscall, inv, None if seg == "abs" else seg))
        elif op == "write_local":
            try:
                data = binascii.unhexlify(rec["data"])
            except ValueError:  # not hex, or not ASCII
                out.append(f"{where((here, 'data'))} must be hex, "
                           f"got {rec['data']!r}")
                continue
            stmts.append((_write_local, rec["offset"], data))
        elif op == "expect":
            stmts.append((_expect, rec["pattern"], encode_json(rec["pattern"])))
        elif op == "read_local":
            stmts.append((_read_local, rec["offset"], rec["len"]))
        elif op == "halt":
            stmts.append((_halt, None, None))
        elif in_handler:
            out.append(f"{where(here)}: sync_command yields and cannot appear "
                       "in a handler")
        else:  # subscribe, command, wait, expect
            driver = rec["driver"]
            stmts += (
                (_syscall, SyscallInvocation.subscribe(
                    driver, rec["sub"], rec["fn"], rec["userdata"]), None),
                (_syscall, SyscallInvocation.command(
                    driver, rec["cmd"], *rec["args"]), None),
                _WAIT, _EXPECT_SUCCESS)
    return stmts


def parse_script(data: Dict[str, Any], name: str = "app") -> ScenarioScript:
    out: List[str] = []
    doc = walk(Key(SCENARIO), data, "scenario", out)
    if doc is INVALID:
        raise ScenarioError(out)
    budget = [MAX_STATEMENTS]
    main = _parse_statements(doc["main"] or (), ("scenario", "main"), False,
                             budget, out)
    handlers = {hname: _parse_statements(body or (), (("scenario", "handlers"), hname),
                                         True, budget, out)
                for hname, body in (doc["handlers"] or {}).items()}
    if out:
        raise ScenarioError(out)
    credential = doc["credential"]
    return ScenarioScript(
        name=name if doc["name"] is None else doc["name"],
        min_memory=doc["min_memory"],
        key_id=credential["key_id"],
        entry=doc["entry"],
        main=main,
        handlers=handlers,
        credential_digest=credential["digest"],
    )


def parse_script_bytes(blob: bytes, name: str = "app") -> ScenarioScript:
    try:
        data = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ScenarioError([f"scenario does not parse: {exc}"]) from None
    return parse_script(data, name)


class ProcessProgram:
    """The steps of one process's script, and how far it has run."""

    def __init__(self, script: ScenarioScript):
        self.steps = script.main
        self.handlers = script.handlers
        self.pc = 0

    def advance(self, kern, pcb) -> None:
        """One quantum of the process whose control block is ``pcb``: run
        steps until a system call or halt ends it, or the process leaves
        the Running state."""
        steps = self.steps
        while pcb.state == "running":
            if self.pc >= len(steps):
                kern.exit_process(pcb, "end of program")
                return
            run, a, b = steps[self.pc]
            self.pc += 1
            if run(kern, pcb, a, b):
                return

    def run_handler(self, kern, pcb, fn_id: str) -> None:
        """Execute an upcall handler to completion (handlers cannot yield)."""
        for run, a, b in self.handlers.get(fn_id, []):
            if pcb.state != "running":
                return
            run(kern, pcb, a, b)
