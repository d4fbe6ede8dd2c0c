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
    INVALID,
    IllegalAccessKind,
    Key,
    Schema,
    SpecError,
    UnknownEnumName,
    UnknownField,
    UnknownOffset,
    UnknownRegister,
    ValueOutOfRange,
    walk,
)


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

    def missing(self, model) -> List[str]:
        """What this map lacks of a peripheral model's register contract:
        the registers and fields it uses, the widths it relies on, and
        write access to the registers its driver writes."""
        lacks: List[str] = []
        for rname, fnames in model.REGISTERS.items():
            reg = self._by_name.get(rname)
            if reg is None:
                lacks.append(f"no register {rname!r}, which the model uses")
                continue
            have = {f.name for f in reg.fields}
            lacks.extend(f"{rname} has no field {fname!r}, which the model uses"
                         for fname in fnames if fname not in have)
            if reg.width < model.WIDTHS.get(rname, 0):
                lacks.append(f"{rname} must be {model.WIDTHS[rname]} bits wide, "
                             f"which the model relies on, not {reg.width}")
            if rname in model.WRITABLE and not reg.writable:
                lacks.append(f"{rname} must be writable: its driver writes it")
        return lacks


_FIELD: Schema = {
    "name": Key(str, default="?"),
    "offset": Key(int, 0, required=True),
    "width": Key(int, 1, required=True),
    "enum": Key(dict, null=True, item=Key(int, 0)),
}
_REGISTER: Schema = {
    "name": Key(str, default="?"),
    "offset": Key(int, 0, required=True),
    "width": Key((8, 16, 32), required=True),
    "access": Key(("R", "W", "RW"), required=True),
    "fields": Key(list, default=(), item=Key(_FIELD)),
}
REGISTER_MAP: Schema = {
    "name": Key(str, 1, required=True),
    "registers": Key(list, default=(), item=Key(_REGISTER)),
}


def load_register_map(data: Dict[str, Any]) -> RegisterMapSpec:
    """Validate a map description; collects all violations before raising.
    The walk checks each key; the layout rules are checked here, on the
    registers and fields whose keys passed."""
    violations: List[str] = []
    spec = walk(Key(REGISTER_MAP), data, "register map", violations)
    registers: List[RegisterSpec] = []
    seen_names: set = set()
    for raw in spec and spec["registers"] or ():
        if not raw or INVALID in raw.values():
            continue
        rname, offset, width = raw["name"], raw["offset"], raw["width"]
        if rname in seen_names:
            violations.append(f"duplicate register name {rname!r}")
            continue
        seen_names.add(rname)
        if offset % (width // 8) != 0:
            violations.append(f"{rname}: offset {offset} not aligned to {width // 8}-byte width")
        fields: List[FieldSpec] = []
        used_bits = 0
        fseen: set = set()
        for fraw in raw["fields"]:
            if not fraw or INVALID in fraw.values():
                continue
            fname, foff, fwidth, enum = (fraw["name"], fraw["offset"],
                                         fraw["width"], fraw["enum"])
            if fname in fseen:
                violations.append(f"{rname}.{fname}: duplicate field name")
                continue
            fseen.add(fname)
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
            for ename, evalue in (enum or {}).items():
                if evalue is not INVALID and evalue >> fwidth:
                    violations.append(
                        f"{rname}.{fname}: enum {ename!r}={evalue!r} does not fit "
                        f"in {fwidth} bits")
            fields.append(FieldSpec(fname, foff, fwidth, enum))
        registers.append(RegisterSpec(rname, offset, width, raw["access"],
                                      tuple(fields)))

    # Extent overlap across the whole peripheral.
    by_offset = sorted(registers, key=lambda r: (r.offset, r.name))
    for left, right in zip(by_offset, by_offset[1:]):
        if left.offset + left.size > right.offset:
            violations.append(
                f"registers {left.name} and {right.name} overlap at offset {right.offset}")

    if violations:
        raise SpecError(violations)
    return RegisterMapSpec(spec["name"], registers)


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
        if type(value) is not int or value < 0 or value >> fspec.width:
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
