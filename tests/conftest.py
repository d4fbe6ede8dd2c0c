import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from kernsim.audit import parse_trace, run_all_audits  # noqa: E402
from kernsim.board import Board  # noqa: E402

from oracles import subset_match  # noqa: E402

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "kernsim"
BOARDS_DIR = DATA_DIR / "boards"
SCENARIOS_DIR = DATA_DIR / "scenarios"
# Names that the trace must escape: a quote, a backslash, control
# characters, non-ASCII characters and a lone surrogate.
AWKWARD_NAMES = ("on_tx", 'say "hi"', "back\\slash", "nul\x00", "line\nfeed",
                 "tab\t", "caf\u00e9", "\u2603\U0001f600", "lone\ud800", "", "null")


def minimal_board_dict(**overrides):
    """A small fully-featured board for unit tests, built without files."""
    cfg = {
        "name": "test",
        "ram_size": 65536,
        "loader": "sync",
        "verifier": "digest_match",
        "peripherals": {
            "alarm": {"irq": 0},
            "uart": {"irq": 1, "bytes_per_tick": 1},
            "hashengine": {"irq": 2, "chunk_bytes": 64},
        },
        "capsules": [
            {"name": "alarm_driver", "type": "alarm", "driver_id": 0},
            {"name": "console", "type": "console", "driver_id": 1,
             "buffer_size": 64},
            {"name": "probe_a", "type": "probe", "driver_id": 2},
            {"name": "probe_b", "type": "probe", "driver_id": 3},
            {"name": "manager", "type": "manager", "driver_id": 4},
        ],
        "capabilities": {"manager": ["ProcessManagement"]},
    }
    cfg.update(overrides)
    return cfg


def schema_fields(key, node, prefix=()):
    """The key path of every field of ``node`` that its schema names,
    nested ones included: each key an object's schema names, whether the
    object holds it or not, and each item or entry the node holds of a
    list or an object with any keys."""
    if key.kind == "object":
        schema = key.type if key.tag is None else key.type[node[key.tag]]
        for name in ([key.tag] if key.tag else []) + list(schema):
            yield prefix + (name,)
            if name in node and name in schema:
                yield from schema_fields(schema[name], node[name], prefix + (name,))
    elif key.kind in ("list", "map"):
        for name, child in (enumerate(node) if key.kind == "list"
                            else node.items()):
            yield prefix + (name,)
            if key.item is not None:
                yield from schema_fields(key.item, child, prefix + (name,))


def set_field(doc, path, value):
    """doc with the field at path set to value, added if absent."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def make_board(**overrides) -> Board:
    return Board.from_dict(minimal_board_dict(**overrides))


def unjustified_expects(records):
    """The expect events whose verdict does not follow from the pattern
    and the actual record they log."""
    return [record for record in records if record["kind"] == "expect"
            and record["payload"]["pass"] != subset_match(
                record["payload"]["pattern"], record["payload"]["actual"])]


def trace_events(board: Board):
    """The events the board has logged so far, parsed back from its
    in-memory trace, with the record keys as attributes. Every trace read
    this way must pass all the trace auditors, and justify each expect's
    verdict."""
    records = parse_trace(board.trace.out.getvalue().encode("utf-8"))
    violations = {name: found for name, found in run_all_audits(records).items()
                  if found}
    assert not violations, violations
    assert not unjustified_expects(records), unjustified_expects(records)
    return [SimpleNamespace(**record) for record in records]


def uart_bytes(trace) -> bytes:
    """The bytes a UART has sent, read from the uart_tx events of its
    in-memory trace."""
    return bytes(record["payload"]["byte"]
                 for record in parse_trace(trace.out.getvalue().encode("utf-8"))
                 if record["kind"] == "uart_tx")


def script_source(main, handlers=None, min_memory=1024, pad="", **extra) -> bytes:
    """A scenario file's bytes. A non-empty ``pad`` lengthens the payload
    by an upcall handler of that name that nothing subscribes."""
    handlers = dict(handlers or {})
    if pad:
        handlers[pad] = []
    doc = {"name": extra.pop("name", "app"), "min_memory": min_memory,
           "main": main, "handlers": handlers}
    doc.update(extra)
    return json.dumps(doc).encode("utf-8")


def load_one(board: Board, main, handlers=None, min_memory=1024, **extra):
    """Finalize-free helper: load a script on a building board and return
    (job, pid)."""
    job = board.load_app(script_source(main, handlers, min_memory, **extra))
    return job, job.pid


@pytest.fixture
def board() -> Board:
    return make_board()
