"""Exception types shared across the simulator, and the schema keys that
describe every input file (board, register map, scenario). Each Key is
compiled once, when it is built, into the function that checks a value
against it, so boards, register maps and scripts are all checked by the
compiled checkers of their schemas."""

from dataclasses import dataclass, field
from math import inf
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True, slots=True)
class Key:
    """One key of an input object. ``type`` is int, str, list, dict (an
    object with any keys), a tuple of the words allowed,
    or a schema (key name -> Key) for a nested object; a tagged object's
    type maps each word its ``tag`` key may hold to a schema. ``lo`` and
    ``hi`` bound an integer, a list's length, or a string (lo: non-empty;
    hi: most UTF-8 bytes). ``item`` checks each list item or map value.
    An absent key (or a null one, if ``null``) reads as ``default``; an
    object's default is checked too. JSON true and false are not integers.

    A checked object reads as the dict of its keys, the tag first. A
    tagged object's ``make`` may map a word to the function that builds
    what such an object reads as instead, from its values in schema
    order; the object reads as INVALID if it broke a rule.

    ``check(value, path, out)``, compiled when the key is built, gives
    the value checked, an object's absent keys filled in. Each breach
    appends a violation naming the field by its path (and the bad value,
    cut at 80 characters) to ``out``, and the bad value reads as INVALID."""

    type: Any
    lo: Optional[int] = None
    hi: Optional[int] = None
    default: Any = None
    required: bool = False
    null: bool = False
    item: Optional["Key"] = None
    tag: Optional[str] = None
    make: Any = field(default=None, repr=False, compare=False)
    kind: str = field(init=False, repr=False, compare=False)
    check: Callable[[Any, Any, List[str]], Any] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = {int: "int", str: "str", list: "list", dict: "map"}.get(self.type) \
            if isinstance(self.type, type) else \
            "words" if type(self.type) is tuple else "object"
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "check", _COMPILERS[kind](self))


Schema = Dict[str, Key]
# Where a check found a bad value; falsy, so ``value or {}`` reads as empty.
INVALID = type("Invalid", (), {"__bool__": lambda self: False})()


def where(path) -> str:
    """A path as the input spells it (``capsules[1].buffer_size``). A
    path is a root name or a (parent path, key) pair."""
    keys = []
    while type(path) is tuple:
        path, key = path
        keys.insert(0, key)
    text = "" if keys else path
    for key in keys:
        text += f"[{key}]" if type(key) is int else f".{key}" if text else key
    return text


def _refuse(out: List[str], path, expected: str, value) -> Any:
    """Append the violation of a value at path that is not ``expected``
    (the value cut at 80 characters); the value reads as INVALID."""
    out.append(f"{where(path)} must be {expected}, got {value!r:.80}")
    return INVALID


def _utf8_size(text: str) -> float:
    try:
        return len(text.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return inf


def _int(key: Key):
    lo, hi = key.lo, inf if key.hi is None else key.hi
    expected = "an integer " + (f">= {lo}" if key.hi is None else f"in [{lo}, {hi}]")

    def check(value, path, out):
        if type(value) is int and lo <= value <= hi:
            return value
        return _refuse(out, path, expected, value)
    return check


def _str(key: Key):
    lo, hi = key.lo or 0, inf if key.hi is None else key.hi
    expected = ("a non-empty string" if lo else "a string") + \
        (f" of at most {hi} UTF-8 bytes" if key.hi is not None else "")

    def check(value, path, out):
        if type(value) is str and len(value) >= lo and \
                (hi is inf or _utf8_size(value) <= hi):
            return value
        return _refuse(out, path, expected, value)
    return check


def _words(key: Key):
    words = key.type
    expected = f"one of {words}"

    def check(value, path, out):
        if type(value) in (str, int) and value in words:
            return value
        return _refuse(out, path, expected, value)
    return check


def _list(key: Key):
    hi = inf if key.hi is None else key.hi
    item = key.item and key.item.check
    lo, top = _bounds(key.item)
    expected = "a list" if key.hi is None else f"a list of at most {hi} items"

    def check(value, path, out):
        if type(value) is list and len(value) <= hi:
            if item is None:
                return value
            for entry in value:
                if not (type(entry) is int and lo <= entry <= top):
                    return [item(entry, (path, i), out) for i, entry in enumerate(value)]
            return value  # a list of integers in range, as it is
        return _refuse(out, path, expected, value)
    return check


def _map(key: Key):
    item = key.item and key.item.check

    def check(value, path, out):
        if type(value) is dict:
            return value if item is None else \
                {name: item(entry, (path, name), out) for name, entry in value.items()}
        return _refuse(out, path, "an object", value)
    return check


def _object(key: Key):
    tag, variants, make = key.tag, key.type, key.make
    if tag is None:
        read, keys = reader(variants), tuple(variants)

        def check(value, path, out):
            if type(value) is dict:
                return dict(zip(keys, read(value, path, out)))
            return _refuse(out, path, "an object", value)
        return check

    def form(word):  # the reader, keys and make of a variant
        schema = variants[word]
        return reader(schema, tag), (tag, *schema), make and make[word]
    # A table that may grow (the capsule layers) is read at each check.
    forms = {word: form(word) for word in variants} if type(variants) is dict else None

    def check(value, path, out):
        word = value.get(tag) if type(value) is dict else None
        if type(word) is not str or word not in variants:
            if type(value) is not dict:
                return _refuse(out, path, "an object", value)
            return _refuse(out, (path, tag), f"one of {tuple(variants)}", word)
        read, keys, made = form(word) if forms is None else forms[word]
        if made is None:
            return dict(zip(keys, [word, *read(value, path, out)]))
        seen = len(out)
        values = read(value, path, out)
        return made(*values) if len(out) == seen else INVALID
    return check


_COMPILERS = {"int": _int, "str": _str, "words": _words, "list": _list,
              "map": _map, "object": _object}


def _bounds(key: Optional[Key]):
    """The range of an integer key, which a value in it passes without a
    call to its checker; an empty one for any other key."""
    if key is not None and key.kind == "int":
        return key.lo, inf if key.hi is None else key.hi
    return 1, 0


def reader(schema: Schema, tag: Optional[str] = None):
    """The compiled checker of the keys of an object of ``schema``, for a
    dict value (whose ``tag`` key, if any, already named the schema):
    read(value, path, out) gives the object's values in schema order, each
    bad one INVALID. Each key is checked in schema order, an absent one
    filled in from its default, and then each key the schema does not
    name is refused."""
    fields = [(name, key.check,
               _PLAIN.get(key.kind) if key.lo is key.hi is key.item is None else None,
               *_bounds(key)) for name, key in schema.items()]
    absent = {name: (key.required, key.null, key.default,
                     key.kind == "object" and key.default is not None)
              for name, key in schema.items()}
    allowed = {*schema, tag}

    def read(value, path, out):
        values = []
        get = value.get
        for name, check, plain, lo, hi in fields:
            entry = get(name, INVALID)
            if type(entry) is plain or type(entry) is int and lo <= entry <= hi:
                pass  # the common cases, checked without a call
            elif entry is INVALID or entry is None:
                entry = _absent(absent[name], check, entry, (path, name), out)
            else:
                entry = check(entry, (path, name), out)
            values.append(entry)
        if not value.keys() <= allowed:
            out.extend(f"{where((path, name))} is not a known key" for name in value
                       if name not in allowed)
        return values
    return read


def _absent(absent, check, entry, path, out):
    """The value of a key that is absent or null: its default if that is
    what it reads as, else the violation."""
    required, null, default, checked_default = absent
    if entry is None and not null:
        return check(entry, path, out)
    if required:
        out.append(f"{where(path)} is required")
        return INVALID
    return check(default, path, out) if checked_default else default


_PLAIN = {"str": str, "list": list, "map": dict}


class KernsimError(Exception):
    """Base class for all simulator errors."""


class SimulationDiagnostic(KernsimError):
    """A detected bug in kernel-side extension code.

    These are not recoverable outcomes: a capsule that overruns its step
    budget, re-enters a grant, uses a scoped handle after its visit, raises
    from an entry point (``crashed in <entry>``) or returns no
    ``SyscallReturn`` from ``command`` has broken its contract: exit code 3.
    """


# --- simulated memory -------------------------------------------------

class OutOfBounds(KernsimError):
    """Access or region extends past the end of the address space."""


class TooManyRegions(KernsimError):
    """Region configuration exceeds the MPU's region count."""


class AccessDenied(KernsimError):
    """A process touched memory outside its configured regions."""

    def __init__(self, pid, base, length, kind):
        super().__init__(f"pid {pid}: {kind} of [{base}, {base + length}) denied")
        self.pid = pid
        self.base = base
        self.length = length
        self.kind = kind


# --- register maps and MMIO ---------------------------------------------

class UnknownOffset(SimulationDiagnostic):
    """MMIO access at an offset no register claims."""


class IllegalAccessKind(SimulationDiagnostic):
    """Write to a read-only register, or read of a write-only one."""


class UnknownRegister(KernsimError):
    pass


class UnknownField(KernsimError):
    pass


class ValueOutOfRange(KernsimError):
    """Field value does not fit in the field's declared bit width."""


class UnknownEnumName(KernsimError):
    pass


# --- scoped buffer regions ---------------------------------------------

class RangeError(KernsimError):
    """An access through a scoped region lies outside the shared bytes."""


class WriteToReadOnly(KernsimError):
    """A capsule wrote through a read-only share.

    Delivered to the capsule, never escalated: the kernel does not fault.
    """


class NoSharedBuffer(KernsimError):
    """The addressed allow slot holds no shared region."""


class StaleHandle(SimulationDiagnostic):
    """A capsule retained a scoped buffer handle past its visitor call."""


# --- capabilities ---------------------------------------------------------

class PhaseError(KernsimError):
    """Operation attempted in the wrong board phase (e.g. minting after
    finalize)."""


class ForeignCapability(KernsimError):
    """Token was minted by a different board instance."""


class WrongKind(KernsimError):
    """Token kind does not match the privileged operation."""


# --- kernel ---------------------------------------------------------------

class ProcessDead(KernsimError):
    """Target process is faulted, exited, or never existed."""


class GrantNoMem(KernsimError):
    """The process's remaining memory cannot hold the grant allocation."""


class ReentrancyError(SimulationDiagnostic):
    """Nested grant entry for the same (capsule, process) pair."""


class CapsuleBudgetExceeded(SimulationDiagnostic):
    """A capsule call ran past its per-entry step budget."""


class InvalidTransition(KernsimError):
    """Loader event does not apply to the job's current state."""


# --- configuration and scenarios --------------------------------------------

class ConfigError(KernsimError):
    """Board configuration is invalid; carries every violation found."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SpecError(ConfigError):
    """A register map description is invalid; carries every violation."""


class ScenarioError(ConfigError):
    """Scenario script failed to parse or violated a script invariant."""
