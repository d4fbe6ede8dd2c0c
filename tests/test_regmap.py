import json
import random
from pathlib import Path

import pytest

from kernsim.errors import (
    IllegalAccessKind,
    SpecError,
    UnknownEnumName,
    UnknownField,
    UnknownOffset,
    UnknownRegister,
    ValueOutOfRange,
)
from kernsim.regmap import RegisterFile, load_register_map

from oracles import field_extract_reference, field_update_reference

MAPS_DIR = Path(__file__).resolve().parents[1] / "src" / "kernsim" / "maps"


def alarm_map_dict():
    return {
        "name": "alarm",
        "registers": [
            {"name": "COUNT", "offset": 0, "width": 32, "access": "R"},
            {"name": "COMPARE", "offset": 4, "width": 32, "access": "RW"},
            {"name": "CTRL", "offset": 8, "width": 32, "access": "RW",
             "fields": [{"name": "ENABLE", "offset": 0, "width": 1},
                        {"name": "IRQEN", "offset": 1, "width": 1}]},
        ],
    }


def test_valid_alarm_map_loads():
    spec = load_register_map(alarm_map_dict())
    assert [r.name for r in spec.registers] == ["COUNT", "COMPARE", "CTRL"]
    assert spec.register("CTRL").field("IRQEN").mask == 0b10


def test_overlapping_registers_rejected():
    data = {"name": "p", "registers": [
        {"name": "A", "offset": 0, "width": 32, "access": "RW"},
        {"name": "B", "offset": 0, "width": 32, "access": "RW"},
    ]}
    with pytest.raises(SpecError) as exc:
        load_register_map(data)
    assert any("overlap" in v for v in exc.value.violations)


def test_field_overflow_rejected():
    data = {"name": "p", "registers": [
        {"name": "A", "offset": 0, "width": 32, "access": "RW",
         "fields": [{"name": "ENABLE", "offset": 31, "width": 2}]},
    ]}
    with pytest.raises(SpecError) as exc:
        load_register_map(data)
    assert any("overflow" in v for v in exc.value.violations)


def test_all_violations_reported_at_once():
    data = {"name": "p", "registers": [
        {"name": "A", "offset": 2, "width": 32, "access": "RW"},   # misaligned
        {"name": "B", "offset": 4, "width": 32, "access": "RW",
         "fields": [{"name": "F", "offset": 30, "width": 4},       # overflow
                    {"name": "G", "offset": 0, "width": 2,
                     "enum": {"big": 9}}]},                         # enum too big
        {"name": "C", "offset": 4, "width": 32, "access": "RW"},   # overlap
    ]}
    with pytest.raises(SpecError) as exc:
        load_register_map(data)
    assert len(exc.value.violations) >= 3


def test_duplicate_register_name_rejected():
    data = {"name": "p", "registers": [
        {"name": "A", "offset": 0, "width": 32, "access": "RW"},
        {"name": "A", "offset": 4, "width": 32, "access": "RW"},
    ]}
    with pytest.raises(SpecError) as exc:
        load_register_map(data)
    assert exc.value.violations == ["duplicate register name 'A'"]


def test_duplicate_field_name_rejected():
    data = {"name": "p", "registers": [
        {"name": "A", "offset": 0, "width": 32, "access": "RW",
         "fields": [{"name": "F", "offset": 0, "width": 1},
                    {"name": "F", "offset": 4, "width": 1}]},
    ]}
    with pytest.raises(SpecError) as exc:
        load_register_map(data)
    assert exc.value.violations == ["A.F: duplicate field name"]


def test_field_overlap_rejected():
    data = {"name": "p", "registers": [
        {"name": "A", "offset": 0, "width": 32, "access": "RW",
         "fields": [{"name": "F", "offset": 0, "width": 4},
                    {"name": "G", "offset": 3, "width": 2}]},
    ]}
    with pytest.raises(SpecError):
        load_register_map(data)


def test_shipped_maps_all_load():
    for path in sorted(MAPS_DIR.glob("*.json")):
        load_register_map(json.loads(path.read_text()))


def test_mmio_write_then_read():
    regs = RegisterFile(load_register_map(alarm_map_dict()))
    regs.mmio_write(4, 500)
    assert regs.mmio_read(4) == 500


def test_access_kind_enforced_never_silent():
    regs = RegisterFile(load_register_map(alarm_map_dict()))
    with pytest.raises(IllegalAccessKind):
        regs.mmio_write(0, 1)  # COUNT is R
    data = {"name": "p", "registers": [
        {"name": "W", "offset": 0, "width": 32, "access": "W"}]}
    wregs = RegisterFile(load_register_map(data))
    with pytest.raises(IllegalAccessKind):
        wregs.mmio_read(0)


def test_access_kind_matrix_exhaustive_per_map():
    # Every (register, operation) pair outside the declared matrix rejects.
    for path in sorted(MAPS_DIR.glob("*.json")):
        spec = load_register_map(json.loads(path.read_text()))
        regs = RegisterFile(spec)
        for reg in spec.registers:
            if reg.readable:
                regs.mmio_read(reg.offset)
            else:
                with pytest.raises(IllegalAccessKind):
                    regs.mmio_read(reg.offset)
            if reg.writable:
                regs.mmio_write(reg.offset, 0)
            else:
                with pytest.raises(IllegalAccessKind):
                    regs.mmio_write(reg.offset, 0)


def test_unknown_offset_detected():
    regs = RegisterFile(load_register_map(alarm_map_dict()))
    with pytest.raises(UnknownOffset):
        regs.mmio_read(100)


def test_field_set_touches_only_field_bits():
    regs = RegisterFile(load_register_map(alarm_map_dict()))
    regs.mmio_write(8, 0)
    regs.field_set("CTRL", "ENABLE", 1)
    assert regs.mmio_read(8) == 0b01
    regs.field_set("CTRL", "IRQEN", 1)
    assert regs.mmio_read(8) == 0b11
    regs.field_set("CTRL", "ENABLE", 0)
    assert regs.mmio_read(8) == 0b10


def test_enum_fields_accept_declared_names_only():
    data = {"name": "p", "registers": [
        {"name": "CFG", "offset": 0, "width": 32, "access": "RW",
         "fields": [{"name": "cs_pol", "offset": 0, "width": 1,
                     "enum": {"active_high": 0, "active_low": 1}}]}]}
    regs = RegisterFile(load_register_map(data))
    regs.field_set("CFG", "cs_pol", "active_low")
    assert regs.field_get("CFG", "cs_pol") == 1
    with pytest.raises(UnknownEnumName):
        regs.field_set("CFG", "cs_pol", "active_sideways")


def test_accessors_refuse_names_the_map_does_not_declare():
    # Peripheral models resolve only names the board check found in their
    # maps; the named accessors still refuse any other name.
    regs = RegisterFile(load_register_map(alarm_map_dict()))
    with pytest.raises(UnknownRegister):
        regs.read_reg("STATUS")
    with pytest.raises(UnknownField):
        regs.field_get("CTRL", "BUSY")
    with pytest.raises(UnknownEnumName, match="declares no enum"):
        regs.field_set("CTRL", "ENABLE", "on")


def test_value_out_of_range():
    data = {"name": "p", "registers": [
        {"name": "A", "offset": 0, "width": 32, "access": "RW",
         "fields": [{"name": "F", "offset": 0, "width": 2}]}]}
    regs = RegisterFile(load_register_map(data))
    with pytest.raises(ValueOutOfRange):
        regs.field_set("A", "F", 4)


def _random_spec(rng):
    width = rng.choice([8, 16, 32])
    fields = []
    used = 0
    for i in range(rng.randrange(1, 5)):
        for _ in range(8):  # try to place a non-overlapping field
            fw = rng.randrange(1, width + 1)
            fo = rng.randrange(0, width - fw + 1)
            mask = ((1 << fw) - 1) << fo
            if not (used & mask):
                used |= mask
                fields.append({"name": f"F{i}", "offset": fo, "width": fw})
                break
    return load_register_map({"name": "p", "registers": [
        {"name": "REG", "offset": 0, "width": width, "access": "RW",
         "fields": fields}]})


def test_field_round_trip_randomized_against_oracle():
    # get(set(r, f, v)) == v with every other bit untouched, 10^4 cases.
    rng = random.Random(0xF1E1D)
    for _ in range(10_000):
        spec = _random_spec(rng)
        regs = RegisterFile(spec)
        reg = spec.registers[0]
        start = rng.randrange(0, 1 << reg.width)
        regs.mmio_write(0, start)
        fspec = rng.choice(reg.fields)
        value = rng.randrange(0, 1 << fspec.width)
        regs.field_set("REG", fspec.name, value)
        got = regs.mmio_read(0)
        assert got == field_update_reference(start, fspec.offset, fspec.width,
                                             value)
        assert regs.field_get("REG", fspec.name) == \
            field_extract_reference(got, fspec.offset, fspec.width) == value
