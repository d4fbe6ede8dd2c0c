"""Pins the exact violation list of every single-field mutation of three
valid inputs: a board with every optional key spelled out, the shipped
alarm register map (named through a board's ``map`` key) and the fuzz
scenario. Each field is set to each of nine values in turn, and the list
that `check` (or the scenario parser) reports is compared with
``violation_messages.jsonl``, so that any reworded message shows as a
diff of that file.

Rewrite the pin file after a deliberate wording change with::

    PYTHONPATH=src python tests/test_violation_messages.py
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # for conftest when run as a script

from conftest import DATA_DIR  # noqa: E402
from test_scenario_fuzz import SCENARIO  # noqa: E402

from kernsim.board import check_board  # noqa: E402
from kernsim.errors import ScenarioError  # noqa: E402
from kernsim.scenario import parse_script_bytes  # noqa: E402

PIN_FILE = HERE / "violation_messages.jsonl"
VALUES = (-1, 0, 2 ** 32, 2 ** 64, True, None, "x", [1], {"a": 1})

FULL_BOARD = {
    "name": "test",
    "ram_size": 65536,
    "loader": "sync",
    "verifier": "digest_match",
    "mpu_max_regions": 8,
    "upcall_queue_depth": 8,
    "capsule_step_budget": 100_000,
    "max_processes": 8,
    "trusted_key_ids": [7],
    "peripherals": {
        "alarm": {"irq": 0, "initial_count": 0},
        "uart": {"irq": 1, "bytes_per_tick": 1, "map": "uart.json"},
        "hashengine": {"irq": 2, "chunk_bytes": 64},
    },
    "capsules": [
        {"name": "alarm_driver", "type": "alarm", "driver_id": 0},
        {"name": "console", "type": "console", "driver_id": 1,
         "buffer_size": 64, "provides": {}, "requires": {},
         "min_buffer_size": 0},
        {"name": "probe_a", "type": "probe", "driver_id": 2},
        {"name": "probe_b", "type": "probe", "driver_id": 3},
        {"name": "manager", "type": "manager", "driver_id": 4},
    ],
    "capabilities": {"manager": ["ProcessManagement"]},
}
MAP_BOARD = {
    "name": "test", "ram_size": 65536,
    "peripherals": {"alarm": {"irq": 0, "map": "alarm.json"}},
    "capsules": [{"name": "alarm_driver", "type": "alarm", "driver_id": 0}],
}
ALARM_MAP = json.loads((DATA_DIR / "maps" / "alarm.json").read_text())


def _fields(node, prefix=()):
    """The key path of every field of a JSON value, nested ones included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _fields(child, prefix + (key,))


def _mutations(doc):
    """The unchanged document, then each field set to each value."""
    yield "", None, doc
    for path in _fields(doc):
        for value in VALUES:
            changed = copy.deepcopy(doc)
            node = changed
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield ".".join(map(str, path)), value, changed


def _board_violations(workdir: Path, board, alarm_map=None):
    if alarm_map is not None:
        (workdir / "alarm.json").write_text(json.dumps(alarm_map))
    path = workdir / "board.json"
    path.write_text(json.dumps(board))
    return check_board(path)


def _scenario_violations(doc):
    try:
        parse_script_bytes(json.dumps(doc).encode("utf-8"), "fuzz")
    except ScenarioError as exc:
        return exc.violations
    return []


def current_records():
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "uart.json").write_bytes(
            (DATA_DIR / "maps" / "uart.json").read_bytes())
        runs = (
            ("board", FULL_BOARD, lambda doc: _board_violations(workdir, doc)),
            ("alarm_map", ALARM_MAP,
             lambda doc: _board_violations(workdir, MAP_BOARD, doc)),
            ("scenario", SCENARIO, _scenario_violations),
        )
        for name, doc, violations in runs:
            for field, value, changed in _mutations(doc):
                yield {"input": name, "field": field, "value": value,
                       "violations": violations(changed)}


def _lines(records):
    return [json.dumps(record) for record in records]


def test_every_violation_message_is_pinned():
    pinned = PIN_FILE.read_text(encoding="utf-8").splitlines()
    current = _lines(current_records())
    assert len(current) == len(pinned)
    changed = [(old, new) for old, new in zip(pinned, current) if old != new]
    assert changed == []


if __name__ == "__main__":
    PIN_FILE.write_text("\n".join(_lines(current_records())) + "\n",
                        encoding="utf-8")
