"""Scenario scripts: the deterministic programs processes run.

A scenario file gives a process a `main` statement list and a table of
named upcall handlers. Statements either issue system calls, check the
last return value against a pattern, or touch process-local memory
(which goes through the MPU like any other process access). Loops are
unrolled, the `sync_command` macro is expanded, every system call is
decoded and every expect's pattern is encoded as the trace's compact JSON
at parse time, once per script statement: an unrolled loop repeats the
statements of its body. The interpreter only ever walks a flat list of
decoded statements and hands the kernel the control block of the process
it runs; the one thing left for run time is adding that process's segment
base to an allow's base.

Upcall handlers run to completion and may not yield; that is checked at
parse time, not discovered at runtime.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional

from .abi import ALLOW_CLASSES, ARGS, REGISTER, SYSCALL, U32_MAX, \
    SyscallClass, SyscallInvocation, YieldMode, invocation
from .errors import INVALID, Key, Schema, ScenarioError, walk, where
from .trace import encode_json

MAX_STATEMENTS = 200_000
DEFAULT_MIN_MEMORY = 1024


class Stmt(NamedTuple):
    op: str
    inv: Optional[SyscallInvocation] = None
    seg: str = "ram"  # what an allow's base is relative to
    pattern: Optional[Dict[str, Any]] = None
    text: str = ""  # an expect's pattern as the trace writes it
    offset: int = 0
    data: bytes = b""
    len: int = 0


@dataclass
class ScenarioScript:
    name: str
    min_memory: int
    key_id: int
    entry: str
    main: List[Stmt]
    handlers: Dict[str, List[Stmt]] = field(default_factory=dict)
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
_WAIT = Stmt("syscall", inv=SyscallInvocation.yield_(YieldMode.WAIT))


def _expect(pattern: Dict[str, Any]) -> Stmt:
    return Stmt("expect", pattern=pattern, text=encode_json(pattern))


_EXPECT_SUCCESS = _expect({"variant": "success"})


def _parse_statements(raw_list, path, in_handler: bool, budget: List[int],
                      out: List[str]) -> List[Stmt]:
    """The flat statements a list unrolls to, each checked against
    STATEMENT here, so that a loop nests one call deep. ``budget`` holds
    the statements the script may still unroll to."""
    stmts: List[Stmt] = []
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
            else:
                stmts.append(Stmt("syscall", inv=inv, seg=call.get("seg", "ram")))
        elif op == "write_local":
            try:
                data = binascii.unhexlify(rec["data"])
            except ValueError:  # not hex, or not ASCII
                out.append(f"{where((here, 'data'))} must be hex, "
                           f"got {rec['data']!r}")
                continue
            stmts.append(Stmt("write_local", offset=rec["offset"], data=data))
        elif op == "expect":
            stmts.append(_expect(rec["pattern"]))
        elif op != "sync_command":  # read_local or halt
            stmts.append(Stmt(**rec))
        elif in_handler:
            out.append(f"{where(here)}: sync_command yields and cannot appear "
                       "in a handler")
        else:  # subscribe, command, wait, expect
            driver = rec["driver"]
            stmts += (
                Stmt("syscall", inv=SyscallInvocation.subscribe(
                    driver, rec["sub"], rec["fn"], rec["userdata"])),
                Stmt("syscall", inv=SyscallInvocation.command(
                    driver, rec["cmd"], *rec["args"])),
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
    """Runtime interpreter state for one process's script."""

    def __init__(self, script: ScenarioScript):
        self.statements = script.main
        self.handlers = script.handlers
        self.pc = 0

    # The kernel drives execution; `kern` is the kernel and `pcb` the
    # process control block. One call to advance() is one quantum: it runs
    # local statements freely and stops after the first system call (or
    # when the process leaves the Running state).

    def advance(self, kern, pcb) -> None:
        while pcb.state == "running":
            if self.pc >= len(self.statements):
                kern.exit_process(pcb, "end of program")
                return
            stmt = self.statements[self.pc]
            self.pc += 1
            if self._exec(kern, pcb, stmt):
                return

    def _exec(self, kern, pcb, stmt: Stmt) -> bool:
        """Run one statement; returns True if it consumed the quantum."""
        if stmt.op == "syscall":
            inv = stmt.inv
            if inv.klass in ALLOW_CLASSES and stmt.seg != "abs":
                region = pcb.ram if stmt.seg == "ram" else pcb.flash
                inv = inv._replace(base=region.base + inv.base)
            kern.handle_syscall(pcb, inv)
            return True
        if stmt.op == "expect":
            kern.record_expect(pcb, stmt)
            return False
        if stmt.op == "write_local":
            kern.process_local_write(pcb, stmt.offset, stmt.data)
            return False
        if stmt.op == "read_local":
            kern.process_local_read(pcb, stmt.offset, stmt.len)
            return False
        if stmt.op == "halt":
            kern.exit_process(pcb, "halt")
            return True
        raise AssertionError(f"unreachable statement op {stmt.op!r}")

    def run_handler(self, kern, pcb, fn_id: str) -> None:
        """Execute an upcall handler to completion (handlers cannot yield)."""
        for stmt in self.handlers.get(fn_id, []):
            if pcb.state != "running":
                return
            self._exec(kern, pcb, stmt)
