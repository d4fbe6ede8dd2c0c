"""Data model and wire encoding of the system call interface.

Pure data: invocation classes, return variants, error codes, and the
structured-record encoding used both by scenario scripts (invocations) and
by the trace (returns). Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Any, Dict, Optional

from .errors import MalformedInvocation


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


@dataclass(frozen=True)
class SyscallInvocation:
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

def _require_int(record: Dict[str, Any], key: str, default: Optional[int] = None) -> int:
    value = record.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInvocation(f"field {key!r} must be an integer, got {value!r}")
    return value


def decode_invocation(record: Dict[str, Any]) -> SyscallInvocation:
    """Map a structured scenario record onto an invocation.

    Unknown class tags raise :class:`MalformedInvocation` rather than
    crashing; scenario parsing relies on that.
    """
    if not isinstance(record, dict):
        raise MalformedInvocation(f"record must be an object, got {record!r}")
    tag = record.get("class")
    if tag == "yield":
        mode = record.get("mode", "wait")
        if mode not in (YieldMode.WAIT.value, YieldMode.NO_WAIT.value):
            raise MalformedInvocation(f"bad yield mode {mode!r}")
        return SyscallInvocation.yield_(YieldMode(mode))
    if tag == "subscribe":
        fn = record.get("fn", "null")
        if not isinstance(fn, str):
            raise MalformedInvocation(f"subscribe fn must be a string, got {fn!r}")
        return SyscallInvocation.subscribe(
            _require_int(record, "driver"), _require_int(record, "sub"),
            fn, _require_int(record, "userdata", 0))
    if tag == "command":
        args = record.get("args", [0, 0])
        if not isinstance(args, list) or len(args) > 2 or \
                not all(isinstance(a, int) and not isinstance(a, bool) for a in args):
            raise MalformedInvocation(f"command args must be <= 2 integers, got {args!r}")
        args = list(args) + [0] * (2 - len(args))
        return SyscallInvocation.command(
            _require_int(record, "driver"), _require_int(record, "cmd"),
            args[0], args[1])
    if tag in ("rw_allow", "ro_allow"):
        ctor = (SyscallInvocation.rw_allow if tag == "rw_allow"
                else SyscallInvocation.ro_allow)
        return ctor(_require_int(record, "driver"), _require_int(record, "buf"),
                    _require_int(record, "base"), _require_int(record, "len"))
    if tag == "exit":
        return SyscallInvocation.exit()
    raise MalformedInvocation(f"unknown syscall class {tag!r}")


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
