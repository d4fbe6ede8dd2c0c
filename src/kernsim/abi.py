"""Data model and wire encoding of the system call interface.

Pure data: invocation classes, return variants, error codes, and the
structured records of invocations and returns. Scenario scripts give
invocations as records (:data:`SYSCALL_RECORDS`); the trace carries
both kinds as the compact JSON text that :func:`encode_invocation` and
:func:`encode_return` build with f-strings, byte for byte the
``json.dumps(record, separators=(",", ":"))`` of the record, strings
escaped by ``encode_basestring_ascii`` as the log's encoder does.
:func:`match_return` builds a return's record as a dict to match an
``expect`` pattern against, which is cheaper than parsing the text.
Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, NamedTuple, Optional

from .errors import Key, Schema

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


class SyscallReturn(NamedTuple):
    variant: ReturnVariant
    value: int = 0
    base: int = 0
    length: int = 0
    upcall: UpcallDescriptor = NULL_UPCALL
    error: Optional[ErrorCode] = None

    # Positional builds cost a third of keyword ones; success() is shared.
    @classmethod
    def success(cls) -> "SyscallReturn":
        return _SUCCESS_RETURN

    @classmethod
    def success_value(cls, value: int) -> "SyscallReturn":
        return cls(_SUCCESS_VALUE, value)

    @classmethod
    def success_region(cls, base: int, length: int) -> "SyscallReturn":
        return cls(_SUCCESS_REGION, 0, base, length)

    @classmethod
    def success_upcall(cls, upcall: UpcallDescriptor) -> "SyscallReturn":
        return cls(_SUCCESS_UPCALL, 0, 0, 0, upcall)

    @classmethod
    def failure(cls, error: ErrorCode) -> "SyscallReturn":
        return cls(_FAILURE, 0, 0, 0, NULL_UPCALL, error)

    @classmethod
    def failure_region(cls, error: ErrorCode, base: int,
                       length: int) -> "SyscallReturn":
        return cls(_FAILURE_REGION, 0, base, length, NULL_UPCALL, error)


# The members the encoders and constructors test against or build with,
# bound once: an Enum class attribute lookup costs far more than a module
# global. ReturnVariant unpacks in definition order.
_YIELD, _SUBSCRIBE, _COMMAND = \
    SyscallClass.YIELD, SyscallClass.SUBSCRIBE, SyscallClass.COMMAND
(_SUCCESS, _SUCCESS_VALUE, _SUCCESS_REGION, _SUCCESS_UPCALL, _FAILURE,
 _FAILURE_REGION) = ReturnVariant
_SUCCESS_RETURN = SyscallReturn(_SUCCESS)


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


# Invocation and return texts. Every value of a record is a register, a
# fixed name or a handler name; only handler names need escaping.
_YIELD_TEXTS = {mode: f'{{"class":"yield","mode":"{mode.value}"}}'
                for mode in YieldMode}


def encode_invocation(inv: SyscallInvocation) -> str:
    """The compact JSON text of an invocation's record."""
    klass = inv.klass
    if klass is _COMMAND:
        return (f'{{"class":"command","driver":{inv.driver_id},'
                f'"cmd":{inv.subcommand},"args":[{inv.arg0},{inv.arg1}]}}')
    if klass is _YIELD:
        return _YIELD_TEXTS[inv.yield_mode]
    if klass is _SUBSCRIBE:
        return (f'{{"class":"subscribe","driver":{inv.driver_id},'
                f'"sub":{inv.subcommand},"fn":{encode_basestring_ascii(inv.fn_id)},'
                f'"userdata":{inv.userdata}}}')
    if klass in ALLOW_CLASSES:
        return (f'{{"class":"{klass.value}","driver":{inv.driver_id},'
                f'"buf":{inv.subcommand},"base":{inv.base},"len":{inv.length}}}')
    return '{"class":"exit"}'


# --- return records -----------------------------------------------------

_FAILURE_TEXTS = {error: f'{{"variant":"failure","err":"{error.name}"}}'
                  for error in ErrorCode}


def encode_return(ret: SyscallReturn) -> str:
    """The compact JSON text of a return's record; distinct returns give
    distinct records."""
    v = ret.variant
    if v is _SUCCESS_VALUE:
        return f'{{"variant":"success_value","value":{ret.value}}}'
    if v is _SUCCESS:
        return '{"variant":"success"}'
    if v is _FAILURE:
        return _FAILURE_TEXTS[ret.error]
    if v is _SUCCESS_REGION:
        return (f'{{"variant":"success_region","base":{ret.base},'
                f'"len":{ret.length}}}')
    if v is _SUCCESS_UPCALL:
        if ret.upcall.is_null:
            return '{"variant":"success_upcall","fn":"null"}'
        fn = encode_basestring_ascii(ret.upcall.fn_id)
        return (f'{{"variant":"success_upcall","fn":{fn},'
                f'"userdata":{ret.upcall.userdata}}}')
    return (f'{{"variant":"failure_region","err":"{ret.error.name}",'
            f'"base":{ret.base},"len":{ret.length}}}')


def _return_record(ret: SyscallReturn) -> Dict[str, Any]:
    """The record whose text encode_return gives, as a dict."""
    v = ret.variant
    if v is _SUCCESS_VALUE:
        return {"variant": "success_value", "value": ret.value}
    if v is _SUCCESS:
        return {"variant": "success"}
    if v is _FAILURE:
        return {"variant": "failure", "err": ret.error.name}
    if v is _SUCCESS_REGION:
        return {"variant": "success_region", "base": ret.base, "len": ret.length}
    if v is _SUCCESS_UPCALL:
        if ret.upcall.is_null:
            return {"variant": "success_upcall", "fn": "null"}
        return {"variant": "success_upcall", "fn": ret.upcall.fn_id,
                "userdata": ret.upcall.userdata}
    return {"variant": "failure_region", "err": ret.error.name,
            "base": ret.base, "len": ret.length}


def match_return(pattern: Dict[str, Any], ret: SyscallReturn) -> bool:
    """Subset match: every key in the pattern must equal the value of the
    return's record."""
    record = _return_record(ret)
    return all(record.get(key) == value for key, value in pattern.items())
