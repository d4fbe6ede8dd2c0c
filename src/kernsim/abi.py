"""Data model and wire encoding of the system call interface.

Pure data: invocation classes, return variants, error codes, and the
structured-record encoding used both by scenario scripts (invocations) and
by the trace (returns). Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Any, Dict, List, NamedTuple, Optional

from .errors import Key, MalformedInvocation, Schema, walk

U32_MAX = (1 << 32) - 1  # each integer of a syscall record fills a register


class SyscallClass(str, Enum):
    YIELD = "yield"
    SUBSCRIBE = "subscribe"
    COMMAND = "command"
    RW_ALLOW = "rw_allow"
    RO_ALLOW = "ro_allow"
    EXIT = "exit"


ALLOW_CLASSES = (SyscallClass.RW_ALLOW, SyscallClass.RO_ALLOW)


class YieldMode(str, Enum):
    WAIT = "wait"
    NO_WAIT = "no_wait"


class ErrorCode(IntEnum):
    """Stable integer encodings; the trace format carries the names."""

    FAIL = 1
    BUSY = 2
    INVAL = 3
    NOMEM = 4
    NOSUPPORT = 5
    NODEVICE = 6
    RESERVE = 7
    SIZE = 8


@dataclass(frozen=True)
class UpcallDescriptor:
    """A registered userspace callback: handler name plus userdata."""

    fn_id: str = "null"
    userdata: int = 0

    @property
    def is_null(self) -> bool:
        return self.fn_id == "null"


NULL_UPCALL = UpcallDescriptor()


class SyscallInvocation(NamedTuple):
    klass: SyscallClass
    yield_mode: Optional[YieldMode] = None
    driver_id: int = 0
    subcommand: int = 0  # command number / subscribe number / buffer number
    arg0: int = 0
    arg1: int = 0
    base: int = 0
    length: int = 0
    fn_id: str = "null"
    userdata: int = 0

    @classmethod
    def yield_(cls, mode: YieldMode) -> "SyscallInvocation":
        return cls(SyscallClass.YIELD, yield_mode=mode)

    @classmethod
    def subscribe(cls, driver: int, sub: int, fn_id: str,
                  userdata: int = 0) -> "SyscallInvocation":
        return cls(SyscallClass.SUBSCRIBE, driver_id=driver, subcommand=sub,
                   fn_id=fn_id, userdata=userdata)

    @classmethod
    def command(cls, driver: int, cmd: int, arg0: int = 0,
                arg1: int = 0) -> "SyscallInvocation":
        return cls(SyscallClass.COMMAND, driver_id=driver, subcommand=cmd,
                   arg0=arg0, arg1=arg1)

    @classmethod
    def rw_allow(cls, driver: int, buf: int, base: int,
                 length: int) -> "SyscallInvocation":
        return cls(SyscallClass.RW_ALLOW, driver_id=driver, subcommand=buf,
                   base=base, length=length)

    @classmethod
    def ro_allow(cls, driver: int, buf: int, base: int,
                 length: int) -> "SyscallInvocation":
        return cls(SyscallClass.RO_ALLOW, driver_id=driver, subcommand=buf,
                   base=base, length=length)

    @classmethod
    def exit(cls) -> "SyscallInvocation":
        return cls(SyscallClass.EXIT)


class ReturnVariant(str, Enum):
    SUCCESS = "success"
    SUCCESS_VALUE = "success_value"
    SUCCESS_REGION = "success_region"
    SUCCESS_UPCALL = "success_upcall"
    FAILURE = "failure"
    FAILURE_REGION = "failure_region"


@dataclass(frozen=True)
class SyscallReturn:
    variant: ReturnVariant
    value: int = 0
    base: int = 0
    length: int = 0
    upcall: UpcallDescriptor = NULL_UPCALL
    error: Optional[ErrorCode] = None

    @classmethod
    def success(cls) -> "SyscallReturn":
        return cls(ReturnVariant.SUCCESS)

    @classmethod
    def success_value(cls, value: int) -> "SyscallReturn":
        return cls(ReturnVariant.SUCCESS_VALUE, value=value)

    @classmethod
    def success_region(cls, base: int, length: int) -> "SyscallReturn":
        return cls(ReturnVariant.SUCCESS_REGION, base=base, length=length)

    @classmethod
    def success_upcall(cls, upcall: UpcallDescriptor) -> "SyscallReturn":
        return cls(ReturnVariant.SUCCESS_UPCALL, upcall=upcall)

    @classmethod
    def failure(cls, error: ErrorCode) -> "SyscallReturn":
        return cls(ReturnVariant.FAILURE, error=error)

    @classmethod
    def failure_region(cls, error: ErrorCode, base: int,
                       length: int) -> "SyscallReturn":
        return cls(ReturnVariant.FAILURE_REGION, error=error, base=base,
                   length=length)


# --- invocation records -------------------------------------------------

# Each integer of a syscall record fills a register. An allow's ``seg``
# says what its base is relative to: the process's RAM, its program image
# or nothing.
REGISTER = Key(int, 0, U32_MAX, required=True)
_ALLOW = {"driver": REGISTER, "buf": REGISTER, "base": REGISTER,
          "len": REGISTER, "seg": Key(("ram", "flash", "abs"), default="ram")}
ARGS = Key(list, hi=2, default=(), item=Key(int, 0, U32_MAX))
SYSCALL_RECORDS: Dict[str, Schema] = {
    "yield": {"mode": Key(("wait", "no_wait"), default="wait")},
    "subscribe": {"driver": REGISTER, "sub": REGISTER,
                  "fn": Key(str, default="null"),
                  "userdata": Key(int, 0, U32_MAX, 0)},
    "command": {"driver": REGISTER, "cmd": REGISTER, "args": ARGS},
    "rw_allow": _ALLOW,
    "ro_allow": _ALLOW,
    "exit": {},
}
SYSCALL = Key(SYSCALL_RECORDS, tag="class", required=True)
_YIELDS = {mode.value: SyscallInvocation.yield_(mode) for mode in YieldMode}
_EXIT = SyscallInvocation.exit()


def invocation(record: Dict[str, Any]) -> SyscallInvocation:
    """The invocation a record that passed the SYSCALL walk names."""
    tag = record["class"]
    if tag == "command":
        return SyscallInvocation.command(record["driver"], record["cmd"],
                                         *record["args"])
    if tag == "yield":
        return _YIELDS[record["mode"]]
    if tag == "subscribe":
        return SyscallInvocation.subscribe(record["driver"], record["sub"],
                                           record["fn"], record["userdata"])
    if tag == "exit":
        return _EXIT
    return getattr(SyscallInvocation, tag)(record["driver"], record["buf"],
                                           record["base"], record["len"])


def decode_invocation(record: Dict[str, Any]) -> SyscallInvocation:
    """Map a structured scenario record onto an invocation; a record the
    SYSCALL schema refuses raises :class:`MalformedInvocation`."""
    violations: List[str] = []
    checked = walk(SYSCALL, record, "record", violations)
    if violations:
        raise MalformedInvocation("; ".join(violations))
    return invocation(checked)


def encode_invocation(inv: SyscallInvocation) -> Dict[str, Any]:
    if inv.klass == SyscallClass.YIELD:
        return {"class": "yield", "mode": inv.yield_mode.value}
    if inv.klass == SyscallClass.SUBSCRIBE:
        return {"class": "subscribe", "driver": inv.driver_id, "sub": inv.subcommand,
                "fn": inv.fn_id, "userdata": inv.userdata}
    if inv.klass == SyscallClass.COMMAND:
        return {"class": "command", "driver": inv.driver_id, "cmd": inv.subcommand,
                "args": [inv.arg0, inv.arg1]}
    if inv.klass in ALLOW_CLASSES:
        return {"class": inv.klass.value, "driver": inv.driver_id,
                "buf": inv.subcommand, "base": inv.base, "len": inv.length}
    return {"class": "exit"}


# --- return records -----------------------------------------------------

def encode_return(ret: SyscallReturn) -> Dict[str, Any]:
    """Encode a return for the trace; distinct returns give distinct records."""
    v = ret.variant
    if v == ReturnVariant.SUCCESS:
        return {"variant": "success"}
    if v == ReturnVariant.SUCCESS_VALUE:
        return {"variant": "success_value", "value": ret.value}
    if v == ReturnVariant.SUCCESS_REGION:
        return {"variant": "success_region", "base": ret.base, "len": ret.length}
    if v == ReturnVariant.SUCCESS_UPCALL:
        if ret.upcall.is_null:
            return {"variant": "success_upcall", "fn": "null"}
        return {"variant": "success_upcall", "fn": ret.upcall.fn_id,
                "userdata": ret.upcall.userdata}
    if v == ReturnVariant.FAILURE:
        return {"variant": "failure", "err": ret.error.name}
    return {"variant": "failure_region", "err": ret.error.name,
            "base": ret.base, "len": ret.length}


def match_return(pattern: Dict[str, Any], record: Dict[str, Any]) -> bool:
    """Subset match: every key in the pattern must equal the record's value."""
    return all(record.get(key) == value for key, value in pattern.items())
