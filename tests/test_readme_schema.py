"""README's "Board configuration" and "Scenario scripts" give one table
per input object. Each table must list exactly the keys its schema
names, and mark as required exactly the keys the schema requires.
"Trace format" names every trace auditor."""

import re
from pathlib import Path

from kernsim.abi import SYSCALL_RECORDS
from kernsim.audit import ALL_AUDITS
from kernsim.board import BOARD, LAYER
from kernsim.regmap import REGISTER_MAP
from kernsim.scenario import SCENARIO, STATEMENTS

README = Path(__file__).resolve().parents[1] / "README.md"
_REGISTER = REGISTER_MAP["registers"].item.type

# Each object schema by the name its README table is marked with; the
# objects with no keys (a halt statement, an exit call) have no table.
SCHEMAS = {
    "board": BOARD,
    "peripherals": BOARD["peripherals"].type,
    **{f"peripherals.{name}": key.type
       for name, key in BOARD["peripherals"].type.items()},
    "capsules[]": LAYER,
    "register map": REGISTER_MAP,
    "registers[]": _REGISTER,
    "fields[]": _REGISTER["fields"].item.type,
    "scenario": SCENARIO,
    "credential": SCENARIO["credential"].type,
    **{f"op={op}": schema for op, schema in STATEMENTS.items() if schema},
    **{f"class={tag}": schema for tag, schema in SYSCALL_RECORDS.items()
       if schema},
}


def readme_tables():
    """{marked name: {key: required column}} for each marked table."""
    tables = {}
    lines = README.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        marker = re.fullmatch(r"<!-- keys: (.+) -->", line)
        if not marker:
            continue
        rows = {}
        for row in lines[i + 3:]:  # past the header and its rule
            if not row.startswith("|"):
                break
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[-1]
        for name in marker.group(1).split(", "):
            tables[name] = rows
    return tables


def test_every_schema_object_has_a_table():
    assert sorted(readme_tables()) == sorted(SCHEMAS)


def test_each_table_names_the_keys_of_its_schema():
    for name, rows in readme_tables().items():
        schema = SCHEMAS[name]
        assert list(rows) == list(schema), name
        required = {key: rows[key] == "yes" for key in rows}
        assert required == {key: spec.required for key, spec in schema.items()}, name


def test_trace_format_names_every_auditor():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Trace format"):text.index("## Tests")]
    assert [name for name in ALL_AUDITS if f"- `{name}`: " not in section] == []
