"""Scenario scripts: the deterministic programs processes run.

A scenario file gives a process a `main` statement list and a table of
named upcall handlers. Statements either issue system calls, check the
last return value against a pattern, or touch process-local memory
(which goes through the MPU like any other process access). Loops are
unrolled, the `sync_command` macro is expanded and every system call is
decoded at parse time, so the interpreter only ever walks a flat list of
decoded statements; at run time it only resolves an allow's base against
the running process.

Upcall handlers run to completion and may not yield; that is checked at
parse time, not discovered at runtime.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from .abi import U32_MAX, ALLOW_CLASSES, SyscallInvocation, decode_invocation
from .errors import MalformedInvocation, ScenarioError, int_violation

VALID_SEGMENTS = ("ram", "flash", "abs")
MAX_STATEMENTS = 200_000
DEFAULT_MIN_MEMORY = 1024


@dataclass(frozen=True)
class Stmt:
    op: str
    inv: Optional[SyscallInvocation] = None
    seg: str = "ram"  # what an allow's base is relative to
    pattern: Optional[Dict[str, Any]] = None
    offset: int = 0
    data: bytes = b""
    length: int = 0


@dataclass
class ScenarioScript:
    name: str
    min_memory: int
    key_id: int
    entry: str
    main: List[Stmt]
    handlers: Dict[str, List[Stmt]] = field(default_factory=dict)
    credential_digest: Optional[int] = None  # explicit override; None = computed


def _parse_int(value, what: str, hi: Optional[int] = None) -> int:
    """value, if it is an integer in [0, hi] (hi None: no upper bound)."""
    if problem := int_violation(what, value, 0, hi):
        raise ScenarioError(problem)
    return value


def _expand_sync_command(raw: Dict[str, Any]) -> List[Dict[str, Any]]:
    """subscribe + command + yield-wait + expect, in one scripted line. The
    integers are checked where the expanded calls are decoded."""
    fn = raw.get("fn")
    if not isinstance(fn, str):
        raise ScenarioError("sync_command needs a handler name in 'fn'")
    driver = raw.get("driver")
    return [
        {"op": "syscall", "call": {"class": "subscribe", "driver": driver,
                                   "sub": raw.get("sub", 0), "fn": fn,
                                   "userdata": raw.get("userdata", 0)}},
        {"op": "syscall", "call": {"class": "command", "driver": driver,
                                   "cmd": raw.get("cmd"),
                                   "args": raw.get("args", [0, 0])}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
        {"op": "expect", "pattern": {"variant": "success"}},
    ]


def _parse_statements(raw_list, where: str, in_handler: bool,
                      budget: List[int]) -> List[Stmt]:
    if not isinstance(raw_list, list):
        raise ScenarioError(f"{where} must be a list of statements")
    out: List[Stmt] = []
    for raw in raw_list:
        if not isinstance(raw, dict):
            raise ScenarioError(f"{where}: statement must be an object, got {raw!r}")
        op = raw.get("op")
        if op == "loop":
            count = _parse_int(raw.get("count"), f"{where}: loop count")
            body = _parse_statements(raw.get("body", []), f"{where}/loop",
                                     in_handler, budget)
            budget[0] -= len(body) * count
            if budget[0] < 0:
                raise ScenarioError(
                    f"script exceeds {MAX_STATEMENTS} statements after unrolling")
            if body:  # an empty body unrolls to nothing, whatever the count
                out.extend(body * count)
            continue
        if op == "sync_command":
            if in_handler:
                raise ScenarioError(f"{where}: sync_command yields and cannot "
                                    "appear in a handler")
            expansion = _parse_statements(_expand_sync_command(raw),
                                          f"{where}/sync_command", in_handler, budget)
            out.extend(expansion)
            continue

        budget[0] -= 1
        if budget[0] < 0:
            raise ScenarioError(
                f"script exceeds {MAX_STATEMENTS} statements after unrolling")

        if op == "syscall":
            call = raw.get("call")
            if not isinstance(call, dict):
                raise ScenarioError(f"{where}: syscall needs a 'call' object")
            call = dict(call)
            seg = call.pop("seg", "ram")
            if seg not in VALID_SEGMENTS:
                raise ScenarioError(f"{where}: bad seg {seg!r}")
            try:
                inv = decode_invocation(call)
            except MalformedInvocation as exc:
                raise ScenarioError(f"{where}: {exc}") from None
            if in_handler and inv.klass.value == "yield":
                raise ScenarioError(
                    f"{where}: upcall handlers run to completion and may not yield")
            out.append(Stmt("syscall", inv=inv, seg=seg))
        elif op == "expect":
            pattern = raw.get("pattern")
            if not isinstance(pattern, dict):
                raise ScenarioError(f"{where}: expect needs a 'pattern' object")
            out.append(Stmt("expect", pattern=dict(pattern)))
        elif op == "write_local":
            offset = _parse_int(raw.get("offset"), f"{where}: write_local offset")
            hexdata = raw.get("data", "")
            try:
                data = binascii.unhexlify(hexdata)
            except (ValueError, TypeError):  # not hex, or not ASCII
                raise ScenarioError(f"{where}: write_local data must be hex") from None
            out.append(Stmt("write_local", offset=offset, data=data))
        elif op == "read_local":
            offset = _parse_int(raw.get("offset"), f"{where}: read_local offset")
            length = _parse_int(raw.get("len"), f"{where}: read_local len")
            out.append(Stmt("read_local", offset=offset, length=length))
        elif op == "halt":
            out.append(Stmt("halt"))
        else:
            raise ScenarioError(f"{where}: unknown statement op {op!r}")
    return out


def parse_script(data: Dict[str, Any], name: str = "app") -> ScenarioScript:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    budget = [MAX_STATEMENTS]
    main = _parse_statements(data.get("main", []), "main", False, budget)
    handlers: Dict[str, List[Stmt]] = {}
    raw_handlers = data.get("handlers", {})
    if not isinstance(raw_handlers, dict):
        raise ScenarioError("handlers must be an object of name -> statements")
    for hname, body in raw_handlers.items():
        handlers[hname] = _parse_statements(body, f"handler {hname}", True, budget)

    # The header fields are bounded to their widths in the packed binary.
    credential = data.get("credential", {})
    if not isinstance(credential, dict):
        raise ScenarioError(f"credential must be an object, got {credential!r}")
    digest = credential.get("digest")
    if digest is not None:
        digest = _parse_int(digest, "credential digest", (1 << 64) - 1)
    entry = data.get("entry", "main")
    try:
        entry_fits = isinstance(entry, str) and len(entry.encode("utf-8")) < 1 << 16
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        entry_fits = False
    if not entry_fits:
        raise ScenarioError("entry must be a string of fewer than 65536 UTF-8 "
                            f"bytes, got {entry!r:.80}")

    name = data.get("name", name)
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {name!r}")
    return ScenarioScript(
        name=name,
        min_memory=_parse_int(data.get("min_memory", DEFAULT_MIN_MEMORY),
                              "min_memory", U32_MAX),
        key_id=_parse_int(credential.get("key_id", 0), "credential key_id",
                          0xFFFF),
        entry=entry,
        main=main,
        handlers=handlers,
        credential_digest=digest,
    )


def parse_script_bytes(blob: bytes, name: str = "app") -> ScenarioScript:
    try:
        data = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ScenarioError(f"scenario does not parse: {exc}") from None
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
        while pcb.state.value == "running":
            if self.pc >= len(self.statements):
                kern.exit_process(pcb.id, "end of program")
                return
            stmt = self.statements[self.pc]
            self.pc += 1
            if self._exec(kern, pcb, stmt):
                return

    def _exec(self, kern, pcb, stmt: Stmt) -> bool:
        """Run one statement; returns True if it consumed the quantum."""
        if stmt.op == "syscall":
            inv = stmt.inv
            if inv.klass in ALLOW_CLASSES:
                inv = replace(inv, base=kern.resolve_base(pcb.id, stmt.seg, inv.base))
            kern.handle_syscall(pcb.id, inv)
            return True
        if stmt.op == "expect":
            kern.record_expect(pcb.id, stmt.pattern)
            return False
        if stmt.op == "write_local":
            kern.process_local_write(pcb.id, stmt.offset, stmt.data)
            return False
        if stmt.op == "read_local":
            kern.process_local_read(pcb.id, stmt.offset, stmt.length)
            return False
        if stmt.op == "halt":
            kern.exit_process(pcb.id, "halt")
            return True
        raise AssertionError(f"unreachable statement op {stmt.op!r}")

    def run_handler(self, kern, pcb, fn_id: str) -> None:
        """Execute an upcall handler to completion (handlers cannot yield)."""
        for stmt in self.handlers.get(fn_id, []):
            if pcb.state.value != "running":
                return
            self._exec(kern, pcb, stmt)
