"""Exception types shared across the simulator, and the schema keys that
describe every input file (board, register map, scenario). Each Key is
compiled once, when it is built, into the function that checks a value
against it: straight-line Python source written from the key's table and
compiled with ``exec``, as ``dataclasses`` writes ``__init__``. Boards,
register maps and scripts are all checked by these generated checkers."""

from dataclasses import dataclass, field
from itertools import count
from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Key:
    """One key of an input object. ``type`` is int, str, list, dict (an
    object with any keys), a tuple of the words allowed, or a schema (key
    name -> Key) for a nested object; a tagged object's type maps each
    word its ``tag`` key may hold to a schema. The tables are read once,
    when the key is built: a word added later is not known. ``lo`` and
    ``hi`` bound an integer, a list's length, or a string (lo: non-empty;
    hi: most UTF-8 bytes). ``item`` checks each list item or map value.
    An absent key (or a null one, if ``null``) reads as ``default``; an
    object's default is checked too. JSON true and false are not integers.

    A checked object reads as the dict of its keys, the tag first. A
    tagged object's ``make`` may map a word to the function that builds
    what such an object reads as instead, from its values in schema
    order; the object reads as INVALID if it broke a rule. ``context``
    names arguments that the key's check takes after ``out``; its make
    then gets the path, ``out`` and those arguments after the values.

    ``check(value, path, out)``, compiled when the key is built, gives
    the value checked, an object's absent keys filled in. Each breach
    appends a violation naming the field by its path (and the bad value,
    cut at 80 characters) to ``out``, and the bad value reads as INVALID.
    The check of an object tests each of its keys in line, a nested
    tagged object's keys too, and tests that every key is present and
    none unknown with one comparison of key sets; an absent key or a bad
    value calls ``_other``, which gives the default or calls the key's
    own check to refuse it, and an unknown key calls ``_unknown``."""

    type: Any
    lo: Optional[int] = None
    hi: Optional[int] = None
    default: Any = None
    required: bool = False
    null: bool = False
    item: Optional["Key"] = None
    tag: Optional[str] = None
    make: Any = field(default=None, repr=False, compare=False)
    context: Optional[Tuple[str, ...]] = field(default=None, repr=False, compare=False)
    kind: str = field(init=False, repr=False, compare=False)
    check: Callable[..., Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = {int: "int", str: "str", list: "list", dict: "map"}.get(self.type) \
            if isinstance(self.type, type) else \
            "words" if type(self.type) is tuple else "object"
        object.__setattr__(self, "kind", kind)
        source = _Source(("value", "path", "out", *(self.context or ())))
        source.check(self, "value", "path", 1, False, self.context)
        object.__setattr__(self, "check", source.compile(kind))


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


def _refuse_object(key: Key, value, path, out: List[str]) -> Any:
    """Refuse a value of a tagged object key that is not an object, or
    whose tag names no variant."""
    if type(value) is not dict:
        return _refuse(out, path, "an object", value)
    return _refuse(out, (path, key.tag), f"one of {tuple(key.type)}", value.get(key.tag))


def _other(key: Key, value, path, out: List[str]) -> Any:
    """What a value of a key that fails the key's test reads as. An absent
    key (INVALID), or a null one where the key allows null, reads as its
    default, checked if it is an object's, unless the key is required;
    the key's check refuses any other value."""
    if value is not INVALID and (value is not None or not key.null):
        return key.check(value, path, out)
    if key.required:
        out.append(f"{where(path)} is required")
        return INVALID
    return key.check(key.default, path, out) if key.kind == "object" and \
        key.default is not None else key.default


def _unknown(value: Dict[str, Any], path, allowed, out: List[str]) -> None:
    """Refuse each key of an object that its schema does not name."""
    out.extend(f"{where((path, name))} is not a known key" for name in value
               if name not in allowed)


def _items(item: Key, value: List[Any], path, out: List[str]) -> List[Any]:
    """A list's items, each checked."""
    return [item.check(entry, (path, i), out) for i, entry in enumerate(value)]


def _entries(item: Key, value: Dict[str, Any], path, out: List[str]) -> Dict[str, Any]:
    """An object's entries, each value checked."""
    return {name: item.check(entry, (path, name), out) for name, entry in value.items()}


def _utf8_size(text: str) -> float:
    try:
        return len(text.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return inf


class _Source:
    """The source of one checker, ``def check(params): ...; return value``,
    and the constants it names. The check of a value against a key is one
    if statement: the key's test, and a branch for a value that fails it."""

    def __init__(self, params):
        self.lines = [f"def check({', '.join(params)}):"]
        self.names = dict(_HELPERS)

    def name(self, value) -> str:
        """The name under which the source reads a constant."""
        name = f"_{len(self.names)}"
        self.names[name] = value
        return name

    def add(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)

    def compile(self, kind: str) -> Callable[..., Any]:
        """The checker of a key of ``kind``, under a file name of its own (a
        profile's row), shared by every key whose source is the same and
        names no constant (such as each integer key of the same bounds)."""
        self.add(1, "return value")
        source = "\n".join(self.lines)
        check = _SHARED.get(source)
        if check is None:
            shared = len(self.names) == len(_HELPERS)
            filename = f"<kernsim schema checker {next(_COMPILED)}: {kind}>"
            exec(compile(source, filename, "exec"), self.names)
            check = self.names["check"]
            if shared:
                _SHARED[source] = check
        return check

    def test(self, key: Key, var: str, path: str) -> Tuple[str, str]:
        """The test that ``var`` passes as a value of ``key`` at ``path``
        (a tagged object's: that it is one, and that its tag, kept in
        ``{var}_tag``, names a variant), and the expression that refuses
        it otherwise."""
        kind, lo, hi = key.kind, key.lo, key.hi
        if kind == "int":
            test = f"type({var}) is int and {lo} <= {var}" + \
                ("" if hi is None else f" <= {hi}")
            expected = "an integer " + (f">= {lo}" if hi is None else f"in [{lo}, {hi}]")
        elif kind == "str":
            test = f"type({var}) is str" + (f" and len({var}) >= {lo}" if lo else "") + \
                ("" if hi is None else f" and _utf8_size({var}) <= {hi}")
            expected = ("a non-empty string" if lo else "a string") + \
                ("" if hi is None else f" of at most {hi} UTF-8 bytes")
        elif kind == "words":
            test = f"type({var}) in (str, int) and {var} in {key.type!r}"
            expected = f"one of {key.type}"
        elif kind == "list":
            test = f"type({var}) is list" + \
                ("" if hi is None else f" and len({var}) <= {hi}")
            expected = "a list" if hi is None else f"a list of at most {hi} items"
        elif key.tag is None:
            test, expected = f"type({var}) is dict", "an object"
        else:
            return (f"type({var}) is dict and type({var}_tag := {var}.get({key.tag!r})) "
                    f"is str and {var}_tag in {self.name(key.type)}",
                    f"_refuse_object({self.name(key)}, {var}, {path}, out)")
        return test, f"_refuse(out, {path}, {expected!r}, {var})"

    def check(self, key: Key, var: str, path: str, indent: int, nested: bool,
              context=None) -> None:
        """Check the value in ``var``, at ``path``, against ``key``, leaving
        what it reads as in ``var``. A ``nested`` key's value is INVALID
        where the key is absent, and calls ``_other`` where it fails the
        test; a key's own check refuses it."""
        test, refuse = self.test(key, var, path)
        self.add(indent, f"if {test}:")
        body, kind, item = len(self.lines), key.kind, key.item
        if kind == "list" and item is not None and item.kind == "int":
            # A list of integers in range reads as it is.
            self.add(indent + 1, f"for entry in {var}:")
            self.add(indent + 2, f"if not ({self.test(item, 'entry', path)[0]}):")
            self.add(indent + 3, f"{var} = _items({self.name(item)}, {var}, {path}, out)")
            self.add(indent + 3, "break")
        elif item is not None:
            self.add(indent + 1, f"{var} = {'_items' if kind == 'list' else '_entries'}("
                                 f"{self.name(item)}, {var}, {path}, out)")
        elif kind == "object" and key.tag is None and nested:  # read once a file: not inlined
            self.add(indent + 1, f"{var} = {self.name(key.check)}({var}, {path}, out)")
        elif kind == "object" and key.tag is None:
            self.keys(key.type, None, None, var, path, indent + 1, context)
        elif kind == "object":
            words = list(key.type)
            for i, word in enumerate(words):
                self.add(indent + 1, "else:" if i == len(words) - 1 else
                         f"{'el' if i else ''}if {var}_tag == {word!r}:")
                self.keys(key.type[word], key.tag, key.make and key.make[word],
                          var, path, indent + 2, context)
        if len(self.lines) == body:
            self.add(indent + 1, "pass")
        self.add(indent, "else:")
        self.add(indent + 1, f"{var} = _other({self.name(key)}, {var}, {path}, out)"
                 if nested else f"{var} = {refuse}")

    def keys(self, schema: Schema, tag: Optional[str], make, var: str, path: str,
             indent: int, context) -> None:
        """Check each key of the object in ``var`` against ``schema`` (its
        ``tag`` key, if any, holding the word kept in ``{var}_tag``), and
        leave what the object reads as in ``var``."""
        level = len(self.lines)  # names this object's locals apart
        allowed = self.name(frozenset([*([tag] if tag else []), *schema]))
        values = [f"v{level}_{i}" for i in range(len(schema))]
        if make is not None:
            self.add(indent, f"seen{level} = len(out)")
        self.add(indent, f"if {var}.keys() == {allowed}:")
        for value, name in zip(values, schema):
            self.add(indent + 1, f"{value} = {var}[{name!r}]")
        self.add(indent + 1, f"unknown{level} = False")
        self.add(indent, "else:")
        for value, name in zip(values, schema):
            self.add(indent + 1, f"{value} = {var}.get({name!r}, INVALID)")
        self.add(indent + 1, f"unknown{level} = not {var}.keys() <= {allowed}")
        for value, (name, key) in zip(values, schema.items()):
            self.check(key, value, f"({path}, {name!r})", indent, True)
        self.add(indent, f"if unknown{level}:")
        self.add(indent + 1, f"_unknown({var}, {path}, {allowed}, out)")
        if make is not None:
            args = [*values, *(() if context is None else ("path", "out", *context))]
            self.add(indent, f"{var} = {self.name(make)}({', '.join(args)}) "
                             f"if len(out) == seen{level} else INVALID")
        else:
            self.add(indent, f"{var} = {{" + ", ".join(
                [*([f"{tag!r}: {var}_tag"] if tag else []),
                 *(f"{name!r}: {value}" for name, value in zip(schema, values))]) + "}")


# What every checker's source may name, and the checkers shared by source.
_HELPERS = {"INVALID": INVALID, "_other": _other, "_refuse": _refuse,
            "_refuse_object": _refuse_object, "_unknown": _unknown, "_items": _items,
            "_entries": _entries, "_utf8_size": _utf8_size}
_SHARED: Dict[str, Callable[..., Any]] = {}
_COMPILED = count(1)  # numbers each checker's file name


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
    """The object given as a token is not one this board minted."""


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
