"""Scenario scripts: the deterministic programs processes run.

A scenario file gives a process a `main` statement list and a table of
named upcall handlers. Statements either issue system calls, check the
last return value against a pattern, or touch process-local memory (which
goes through the MPU like any other process access). At parse time, loops
are unrolled, the `sync_command` macro is expanded, and each statement is
compiled into its step: the function of its kind bound to the arguments
that kind uses, such as a decoded system call, or an expect's pattern
with its compact JSON text. An unrolled loop repeats the steps of its
body, and a loop body's calls carry their ``syscall`` text from parse.
A process runs a step with the kernel and its own control block; an
allow relative to its process's ram or flash adds that base at run time.

Upcall handlers run to completion and may not yield; that is checked at
parse time, not discovered at runtime.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .abi import ARGS, REGISTER, SYSCALL, U32_MAX, SyscallClass, \
    SyscallInvocation, YieldMode, call_text
from .errors import INVALID, Key, Schema, ScenarioError, where
from .trace import encode_json

MAX_STATEMENTS = 200_000
DEFAULT_MIN_MEMORY = 1024


# A compiled statement: (run, a, b), a and b being the arguments its kind
# uses (None where it uses fewer). run(kern, pcb, a, b) runs it for the
# process of control block pcb, and returns True when it ends the quantum.
Step = Tuple[Callable[..., bool], Any, Any]


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
    "entry": Key(str, hi=0xFFFF, default="main"),
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


def _spend(budget: List[int], count: int, out: List[str]) -> None:
    """Take count statements from the script's unroll budget."""
    budget[0] -= count
    if budget[0] < 0:
        raise ScenarioError(out + [
            f"script exceeds {MAX_STATEMENTS} statements after unrolling"])


# Each op's builder is its make: it adds the steps of a statement whose
# keys passed its schema to ``stmts``, given the statement's values in
# schema order, its path, the violations so far, whether it is in a
# handler and the script's unroll budget. The statements it unrolls to
# are taken from the budget first, except a loop's, which its body decides.

def _syscall_steps(call, here, out, stmts, in_handler, budget):
    inv, seg = call
    _spend(budget, 1, out)
    if in_handler and inv.klass is _YIELD:
        out.append(f"{where(here)}: upcall handlers run to completion "
                   "and may not yield")
    else:
        stmts.append((_relative_allow, inv, seg) if seg else (_syscall, inv, None))


def _expect_steps(pattern, here, out, stmts, in_handler, budget):
    _spend(budget, 1, out)
    stmts.append((_expect, pattern, encode_json(pattern)))


def _write_local_steps(offset, data, here, out, stmts, in_handler, budget):
    _spend(budget, 1, out)
    try:
        stmts.append((_write_local, offset, binascii.unhexlify(data)))
    except ValueError:  # not hex, or not ASCII
        out.append(f"{where((here, 'data'))} must be hex, got {data!r}")


def _read_local_steps(offset, length, here, out, stmts, in_handler, budget):
    _spend(budget, 1, out)
    stmts.append((_read_local, offset, length))


def _halt_steps(here, out, stmts, in_handler, budget):
    _spend(budget, 1, out)
    stmts.append((_halt, None, None))


def _loop_steps(count, body, here, out, stmts, in_handler, budget):
    # The body's statements are read here, not through _parse_statements,
    # so that a loop nests two calls deep, as JSON's object and list do.
    steps: List[Step] = []
    here = (here, "body")
    for i, raw in enumerate(body):
        _add_steps(raw, (here, i), out, steps, in_handler, budget)
    _spend(budget, len(steps) * count, out)
    if count > 1:  # a call that repeats carries its text from here on
        steps = [(_syscall, s[1], call_text(s[1])) if s[0] is _syscall and s[2] is None
                 else s for s in steps]
    if steps:  # an empty body unrolls to nothing, whatever the count
        stmts.extend(steps * count)


def _sync_command_steps(driver, cmd, args, fn, sub, userdata, here, out, stmts,
                        in_handler, budget):
    _spend(budget, 4, out)
    if in_handler:
        out.append(f"{where(here)}: sync_command yields and cannot appear "
                   "in a handler")
    else:  # subscribe, command, wait, expect
        stmts += (
            (_syscall, SyscallInvocation.subscribe(driver, sub, fn, userdata), None),
            (_syscall, SyscallInvocation.command(driver, cmd, *args), None),
            _WAIT, _EXPECT_SUCCESS)


# A statement is checked and built by one call of its key's check:
# _add_steps(raw, here, out, stmts, in_handler, budget).
STATEMENT = Key(STATEMENTS, tag="op", make={
    "syscall": _syscall_steps, "expect": _expect_steps,
    "write_local": _write_local_steps, "read_local": _read_local_steps,
    "halt": _halt_steps, "loop": _loop_steps, "sync_command": _sync_command_steps,
}, context=("stmts", "in_handler", "budget"))
_add_steps = STATEMENT.check


def _parse_statements(raw_list, path, in_handler: bool, budget: List[int],
                      out: List[str]) -> List[Step]:
    """The flat steps a list unrolls to. ``budget`` holds the statements
    the script may still unroll to."""
    stmts: List[Step] = []
    for i, raw in enumerate(raw_list):
        _add_steps(raw, (path, i), out, stmts, in_handler, budget)
    return stmts


def parse_script(data: Dict[str, Any], name: str = "app") -> ScenarioScript:
    out: List[str] = []
    doc = _SCENARIO.check(data, "scenario", out)
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
    """The script a scenario file's bytes hold. A file nested too deep for
    the recursion limit, whether JSON's decoder or the statement reader
    reaches it first, is refused like one that does not parse."""
    try:
        data = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ScenarioError([f"scenario does not parse: {exc}"]) from None
    try:
        script = parse_script(data, name)
    except RecursionError as exc:  # loops nested deeper than the reader goes
        raise ScenarioError([f"scenario does not parse: {exc}"]) from None
    script.source = blob
    return script


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
