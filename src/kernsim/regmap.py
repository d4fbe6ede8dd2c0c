"""Declarative MMIO register maps with typed field access.

A peripheral's register layout is described in a data file shaped like the
datasheet: registers with offsets, widths, and access kinds, and bit
fields with optional named enumerations. :func:`load_register_map`
validates a description (reporting every violation, not just the first),
and :class:`RegisterFile` gives a peripheral instance storage whose
software-facing accessors enforce the declared access kinds. Bit shifting
and masking for fields is derived from the description, never hand-written
at call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import (
    IllegalAccessKind,
    SpecError,
    UnknownEnumName,
    UnknownField,
    UnknownOffset,
    UnknownRegister,
    ValueOutOfRange,
    int_in,
)

VALID_WIDTHS = (8, 16, 32)
VALID_ACCESS = ("R", "W", "RW")


@dataclass(frozen=True)
class FieldSpec:
    name: str
    offset: int  # bit offset within the register
    width: int   # bit width
    enum: Optional[Dict[str, int]] = None

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.offset

    def encode(self, value: int) -> int:
        return (value << self.offset) & self.mask

    def extract(self, reg_value: int) -> int:
        return (reg_value & self.mask) >> self.offset


@dataclass(frozen=True)
class RegisterSpec:
    name: str
    offset: int   # byte offset within the peripheral
    width: int    # bits
    access: str
    fields: Tuple[FieldSpec, ...] = ()

    @property
    def size(self) -> int:
        return self.width // 8

    @property
    def value_mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def readable(self) -> bool:
        return "R" in self.access

    @property
    def writable(self) -> bool:
        return "W" in self.access

    def field(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise UnknownField(f"{self.name} has no field {name!r}")


@dataclass
class RegisterMapSpec:
    name: str
    registers: List[RegisterSpec] = field(default_factory=list)

    def __post_init__(self):
        self._by_name = {reg.name: reg for reg in self.registers}
        self._by_offset = {reg.offset: reg for reg in self.registers}

    def register(self, name: str) -> RegisterSpec:
        reg = self._by_name.get(name)
        if reg is None:
            raise UnknownRegister(f"{self.name} has no register {name!r}")
        return reg

    def by_offset(self, offset: int) -> Optional[RegisterSpec]:
        return self._by_offset.get(offset)

    def missing(self, registers: Dict[str, Tuple[str, ...]],
                writable: Tuple[str, ...]) -> List[str]:
        """What this map lacks of the registers and fields a peripheral
        model uses, and which of the registers its driver writes are
        not writable."""
        lacks: List[str] = []
        for rname, fnames in registers.items():
            reg = self._by_name.get(rname)
            if reg is None:
                lacks.append(f"no register {rname!r}, which the model uses")
                continue
            have = {f.name for f in reg.fields}
            lacks.extend(f"{rname} has no field {fname!r}, which the model uses"
                         for fname in fnames if fname not in have)
            if rname in writable and not reg.writable:
                lacks.append(f"{rname} must be writable: its driver writes it")
        return lacks


def load_register_map(data: Dict[str, Any]) -> RegisterMapSpec:
    """Validate a map description; collects all violations before raising."""
    if not isinstance(data, dict):
        raise SpecError([f"register map must be an object, got {data!r}"])
    violations: List[str] = []
    name = data.get("name")
    if not isinstance(name, str) or not name:
        violations.append("peripheral name missing")
        name = "?"

    registers: List[RegisterSpec] = []
    seen_names: set = set()
    for raw in _entries(data, "registers", "map", violations):
        rname = raw.get("name", "?")
        offset = raw.get("offset")
        width = raw.get("width")
        access = raw.get("access")
        bad = False
        if rname in seen_names:
            violations.append(f"duplicate register name {rname!r}")
            bad = True
        seen_names.add(rname)
        if not int_in(offset, 0):
            violations.append(f"{rname}: bad offset {offset!r}")
            bad = True
        if not int_in(width, 0) or width not in VALID_WIDTHS:
            violations.append(f"{rname}: width must be one of {VALID_WIDTHS}, got {width!r}")
            bad = True
        if access not in VALID_ACCESS:
            violations.append(f"{rname}: access must be one of {VALID_ACCESS}, got {access!r}")
            bad = True
        if bad:
            continue
        if offset % (width // 8) != 0:
            violations.append(f"{rname}: offset {offset} not aligned to {width // 8}-byte width")

        fields: List[FieldSpec] = []
        used_bits = 0
        fseen: set = set()
        for fraw in _entries(raw, "fields", rname, violations):
            fname = fraw.get("name", "?")
            foff = fraw.get("offset")
            fwidth = fraw.get("width")
            if fname in fseen:
                violations.append(f"{rname}.{fname}: duplicate field name")
                continue
            fseen.add(fname)
            if not int_in(foff, 0) or not int_in(fwidth, 1):
                violations.append(f"{rname}.{fname}: bad field offset/width")
                continue
            if foff + fwidth > width:
                violations.append(
                    f"{rname}.{fname}: field [{foff}, {foff + fwidth}) overflows "
                    f"{width}-bit register")
                continue
            fmask = ((1 << fwidth) - 1) << foff
            if used_bits & fmask:
                violations.append(f"{rname}.{fname}: overlaps another field")
                continue
            used_bits |= fmask
            enum = fraw.get("enum")
            if enum is not None and not isinstance(enum, dict):
                violations.append(f"{rname}.{fname}: enum must be an object")
            elif enum:
                for ename, evalue in enum.items():
                    if not int_in(evalue, 0, (1 << fwidth) - 1):
                        violations.append(
                            f"{rname}.{fname}: enum {ename!r}={evalue!r} does not fit "
                            f"in {fwidth} bits")
            fields.append(FieldSpec(fname, foff, fwidth, enum))

        registers.append(RegisterSpec(rname, offset, width, access, tuple(fields)))

    # Extent overlap across the whole peripheral.
    by_offset = sorted(registers, key=lambda r: (r.offset, r.name))
    for left, right in zip(by_offset, by_offset[1:]):
        if left.offset + left.size > right.offset:
            violations.append(
                f"registers {left.name} and {right.name} overlap at offset {right.offset}")

    if violations:
        raise SpecError(violations)
    return RegisterMapSpec(name, registers)


def _entries(data: Dict[str, Any], key: str, where: str,
             violations: List[str]) -> List[Dict[str, Any]]:
    """The entries listed under ``key`` that are objects with a string
    name, if any; anything else is a violation."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        violations.append(f"{where}: {key} must be a list, got {entries!r}")
        return []
    kept = []
    for entry in entries:
        if isinstance(entry, dict) and isinstance(entry.get("name", "?"), str):
            kept.append(entry)
        else:
            violations.append(f"{where}: {key} entry must be an object with a "
                              f"string name, got {entry!r}")
    return kept


class RegisterFile:
    """Instance storage for one peripheral, with access-kind enforcement.

    Software (driver) accesses use :meth:`mmio_read` / :meth:`mmio_write`
    and the field accessors; an access outside the declared matrix is a
    detected error, never silent. The hardware side of the peripheral
    updates its own registers through :meth:`hw_set` / :meth:`hw_get`,
    which bypass the access matrix and do not run write hooks. A
    peripheral model on a per-tick path may instead index :attr:`values`
    (register value by byte offset) directly, with the same semantics.
    """

    def __init__(self, spec: RegisterMapSpec,
                 on_write: Optional[Callable[[RegisterSpec, int], None]] = None):
        self.spec = spec
        self.on_write = on_write
        self.values: Dict[int, int] = {reg.offset: 0 for reg in spec.registers}

    def _reg_at(self, offset: int) -> RegisterSpec:
        reg = self.spec.by_offset(offset)
        if reg is None:
            raise UnknownOffset(f"{self.spec.name}: no register at offset {offset}")
        return reg

    # -- software-facing MMIO --------------------------------------------

    def mmio_read(self, offset: int) -> int:
        reg = self._reg_at(offset)
        if not reg.readable:
            raise IllegalAccessKind(f"{self.spec.name}.{reg.name} is not readable")
        return self.values[reg.offset]

    def mmio_write(self, offset: int, value: int) -> None:
        reg = self._reg_at(offset)
        if not reg.writable:
            raise IllegalAccessKind(f"{self.spec.name}.{reg.name} is not writable")
        self.values[reg.offset] = value & reg.value_mask
        if self.on_write is not None:
            self.on_write(reg, self.values[reg.offset])

    def read_reg(self, name: str) -> int:
        return self.mmio_read(self.spec.register(name).offset)

    def write_reg(self, name: str, value: int) -> None:
        self.mmio_write(self.spec.register(name).offset, value)

    # -- field accessors ---------------------------------------------------

    def _resolve_value(self, fspec: FieldSpec, value) -> int:
        if isinstance(value, str):
            if not fspec.enum:
                raise UnknownEnumName(f"field {fspec.name} declares no enum")
            if value not in fspec.enum:
                raise UnknownEnumName(f"field {fspec.name} has no value {value!r}")
            return fspec.enum[value]
        if not int_in(value, 0, (1 << fspec.width) - 1):
            raise ValueOutOfRange(
                f"value {value!r} does not fit in {fspec.width}-bit field {fspec.name}")
        return value

    def field_set(self, reg_name: str, field_name: str, value) -> None:
        """Read-modify-write of only the field's bits.

        The modify step uses the current stored value so the operation is
        well-defined even on write-only registers; the write itself goes
        through the software path and is access-checked.
        """
        reg = self.spec.register(reg_name)
        fspec = reg.field(field_name)
        raw = self._resolve_value(fspec, value)
        current = self.values[reg.offset]
        self.mmio_write(reg.offset, (current & ~fspec.mask) | fspec.encode(raw))

    def field_get(self, reg_name: str, field_name: str) -> int:
        reg = self.spec.register(reg_name)
        fspec = reg.field(field_name)
        return fspec.extract(self.mmio_read(reg.offset))

    # -- hardware-side access ------------------------------------------------

    def hw_set(self, reg_name: str, value: int) -> None:
        reg = self.spec.register(reg_name)
        self.values[reg.offset] = value & reg.value_mask

    def hw_get(self, reg_name: str) -> int:
        return self.values[self.spec.register(reg_name).offset]

    def hw_field_set(self, reg_name: str, field_name: str, value: int) -> None:
        reg = self.spec.register(reg_name)
        fspec = reg.field(field_name)
        current = self.values[reg.offset]
        self.values[reg.offset] = (current & ~fspec.mask) | fspec.encode(value)

    def hw_field_get(self, reg_name: str, field_name: str) -> int:
        reg = self.spec.register(reg_name)
        return reg.field(field_name).extract(self.values[reg.offset])
