"""The trace streams to its sink: byte-identical with the pinned traces,
the same bytes on every sink, each line the compact JSON of its record,
and memory that stays flat as a run logs more events."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from kernsim.audit import parse_trace
from kernsim.board import run_simulation
from kernsim.trace import TraceLog

from conftest import BOARDS_DIR, DATA_DIR, SCENARIOS_DIR, minimal_board_dict

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json")
                  .read_text(encoding="utf-8"))["sweep"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_shipped_scenario_trace_matches_its_pin(tmp_path, name):
    board, app = name.split("/")
    trace_path = tmp_path / "t.jsonl"
    code = run_simulation(BOARDS_DIR / f"{board}.json",
                          [SCENARIOS_DIR / f"{app}.json"], trace_path=trace_path)
    assert code == PINS[name]["exit"]
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == \
        PINS[name]["sha256"]


def _run_demo(**kwargs):
    return run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "demo_a.json",
                           SCENARIOS_DIR / "demo_b.json"], **kwargs)


def test_stdout_sink_gives_the_file_sink_bytes(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert _run_demo(trace_path=trace_path) == 0
    capsys.readouterr()
    assert _run_demo() == 0
    assert capsys.readouterr().out.encode("utf-8") == trace_path.read_bytes()


def test_pretty_trace_is_each_compact_record_indented(tmp_path, monkeypatch):
    compact, pretty = tmp_path / "compact.jsonl", tmp_path / "pretty.json"
    assert _run_demo(trace_path=compact) == 0
    monkeypatch.setenv("KERNSIM_TRACE_PRETTY", "1")
    assert _run_demo(trace_path=pretty) == 0
    records = parse_trace(compact.read_bytes())
    assert pretty.read_text(encoding="utf-8") == \
        "".join(json.dumps(r, indent=2) + "\n" for r in records)


def _peak_bytes_and_events(tmp_path, iterations):
    app = tmp_path / f"spin{iterations}.json"
    app.write_text(json.dumps({"name": "spin", "min_memory": 128, "main": [
        {"op": "loop", "count": iterations, "body": [
            {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]},
        {"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        code = run_simulation(BOARDS_DIR / "demo_sync.json", [app],
                              max_ticks=10 * iterations, trace_path=trace_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, trace_path.read_bytes().count(b"\n")


def test_peak_memory_stays_flat_as_the_trace_grows(tmp_path):
    small_peak, small_events = _peak_bytes_and_events(tmp_path, 5_000)
    large_peak, large_events = _peak_bytes_and_events(tmp_path, 20_000)
    assert large_events - small_events == 30_000
    per_event = (large_peak - small_peak) / (large_events - small_events)
    assert per_event < 100, f"{per_event:.0f} B of peak memory per trace event"


def _compact(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


_NESTED = {"a": [1, {"b": None, "c": [True, False]}], "d": {"e": {"f": -3}}}


def test_templated_line_is_the_compact_json_of_its_record():
    ticks = iter(range(0, 10_000, 7))
    trace = TraceLog(lambda: next(ticks))
    events = [
        ("kernel", "boot", {"board": "b"}),
        ('capsule:quo"te', "syscall", None),
        ("capsule:back\\slash", "kind\\with\"both", {}),
        ("capsule:cönsole", "upcall_run", {"fn": "on_tx_dönë", "args": [1, 2]}),
        ("hw:ürt✓", "uart_tx", {"byte": 255}),
        ("kernel", "boot", _NESTED),
        ('capsule:quo"te', "syscall", {"k": "☃\U0001f600\x00\n"}),
        ("kernel", "quiescent", {}),
        ("process:1", "irq_raised", {"irq": 0}),  # a new pair, mid-run
        ("hw:ürt✓", "uart_tx", None),
    ]
    expected = []
    for seq, (actor, kind, payload) in enumerate(events):
        tick = seq * 7
        trace.log(actor, kind, payload)
        expected.append(_compact({"seq": seq, "tick": tick, "actor": actor,
                                  "kind": kind, "payload": payload or {}}))
    assert trace.out.getvalue().splitlines(keepends=True) == expected


def test_board_trace_with_escaped_names_is_compact_json_line_by_line(tmp_path):
    cfg = minimal_board_dict()
    for layer in cfg["capsules"]:
        if layer["name"] == "console":
            layer["name"] = 'cönsole "\\1"'
    (tmp_path / "uart.json").write_text(json.dumps(
        dict(json.loads((DATA_DIR / "maps" / "uart.json").read_text()),
             name='ürt"\\')))
    cfg["peripherals"]["uart"]["map"] = "uart.json"
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    trace_path = tmp_path / "t.jsonl"
    assert run_simulation(board_path, [SCENARIOS_DIR / "console_hello.json"],
                          trace_path=trace_path) == 0
    lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
    actors = {json.loads(line)["actor"] for line in lines}
    assert {'capsule:cönsole "\\1"', 'hw:ürt"\\'} <= actors
    assert lines == [_compact(json.loads(line)) for line in lines]
