"""Exception types shared across the simulator, and the one walker that
checks every input file (board, register map, scenario) against its
declarative schema."""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True, slots=True)
class Key:
    """One key of an input object. ``type`` is int, str, list, dict (an
    object with any keys), a tuple of the words allowed,
    or a schema (key name -> Key) for a nested object; a tagged object's
    type maps each word its ``tag`` key may hold to a schema. ``lo`` and
    ``hi`` bound an integer, a list's length, or a string (lo: non-empty;
    hi: most UTF-8 bytes). ``item`` checks each list item or map value.
    An absent key (or a null one, if ``null``) reads as ``default``; an
    object's default is walked too. JSON true and false are not integers."""

    type: Any
    lo: Optional[int] = None
    hi: Optional[int] = None
    default: Any = None
    required: bool = False
    null: bool = False
    item: Optional["Key"] = None
    tag: Optional[str] = None
    kind: str = field(init=False, repr=False, compare=False)
    plain: Any = field(init=False, repr=False, compare=False)  # needs no walk

    def __post_init__(self):
        kind = {int: "int", str: "str", list: "list", dict: "map"}.get(self.type) \
            if isinstance(self.type, type) else \
            "object" if type(self.type) is dict else "words"
        plain = kind in ("str", "list", "map") and self.lo is None and \
            self.hi is None and self.item is None
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "plain", self.type if plain else None)


Schema = Dict[str, Key]
# Where a walk found a bad value; falsy, so ``value or {}`` reads as empty.
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


def walk(key: Key, value, path, out: List[str]):
    """value checked against key, each object's absent keys filled in
    from its schema. Each breach appends a violation naming the field by
    its path (and the bad value, cut at 80 characters) to ``out``, and
    the bad value reads as INVALID."""
    kind, lo, hi, item = key.kind, key.lo, key.hi, key.item
    if kind == "int":
        if type(value) is int and lo <= value and (hi is None or value <= hi):
            return value
        expected = "an integer " + (f">= {lo}" if hi is None else f"in [{lo}, {hi}]")
    elif kind == "object":
        if type(value) is not dict:
            expected = "an object"
        else:
            word = key.tag and value.get(key.tag)  # a tagged object's variant
            schema = key.type if key.tag is None else \
                key.type.get(word) if type(word) is str else None
            if schema is not None:
                return _walk_object(schema, value, path, out, key.tag)
            path, value, expected = (path, key.tag), word, f"one of {tuple(key.type)}"
    elif kind == "list":
        if type(value) is list and (hi is None or len(value) <= hi):
            return value if item is None else [
                entry if type(entry) is int and item.kind == "int" and
                item.lo <= entry and (item.hi is None or entry <= item.hi)
                else walk(item, entry, (path, i), out)
                for i, entry in enumerate(value)]
        expected = "a list" if hi is None else f"a list of at most {hi} items"
    elif kind == "map":
        if type(value) is dict:
            return value if item is None else {
                name: walk(item, entry, (path, name), out)
                for name, entry in value.items()}
        expected = "an object"
    elif kind == "words":
        if type(value) in (str, int) and value in key.type:
            return value
        expected = f"one of {tuple(key.type)}"
    else:
        if type(value) is str and len(value) >= (lo or 0) and \
                (hi is None or _utf8_size(value) <= hi):
            return value
        expected = ("a non-empty string" if lo else "a string") + \
            (f" of at most {hi} UTF-8 bytes" if hi is not None else "")
    out.append(f"{where(path)} must be {expected}, got {value!r:.80}")
    return INVALID


def _utf8_size(text: str) -> float:
    try:
        return len(text.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return float("inf")


def _walk_object(schema: Schema, value: Dict[str, Any], path, out: List[str],
                 tag: Optional[str]) -> Dict[str, Any]:
    result = {} if tag is None else {tag: value[tag]}
    known = len(result)
    for name, key in schema.items():
        entry = value.get(name, INVALID)
        if entry is INVALID or entry is None and key.null:
            known += entry is None  # a null that reads as the default
            if key.required:
                out.append(f"{where((path, name))} is required")
            result[name] = (INVALID if key.required else
                            key.default if key.kind != "object" or key.default is None
                            else _walk_object(key.type, key.default, (path, name),
                                              out, None))
            continue
        known += 1
        if type(entry) is key.plain or type(entry) is int and key.kind == "int" \
                and key.lo <= entry and (key.hi is None or entry <= key.hi):
            result[name] = entry  # the common cases, checked without a call
        else:
            result[name] = walk(key, entry, (path, name), out)
    if known != len(value):
        out.extend(f"{where((path, name))} is not a known key" for name in value
                   if name not in schema and name != tag)
    return result


class KernsimError(Exception):
    """Base class for all simulator errors."""


class SimulationDiagnostic(KernsimError):
    """A detected bug in kernel-side extension code.

    These are not recoverable outcomes: a capsule that overruns its step
    budget, re-enters a grant, or touches a register it must not touch has
    violated its contract, and the run halts with exit code 3.
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


# --- buffer windows ------------------------------------------------------

class RangeError(KernsimError):
    """Requested window lies outside the current window."""


class WindowInFlight(SimulationDiagnostic):
    """A window was used while a split-phase operation owns it."""


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
