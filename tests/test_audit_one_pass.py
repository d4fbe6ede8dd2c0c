"""An auditor reads the trace in one forward pass, so its time grows with
the events, not with allows times events."""

import json

from kernsim.audit import audit_zero_length_allows, parse_trace
from kernsim.board import run_simulation

from conftest import BOARDS_DIR


class OnePassEvents(list):
    """A trace that counts the passes made over it and refuses slices."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def __getitem__(self, index):
        if isinstance(index, slice):
            raise AssertionError(f"the trace was sliced: {index}")
        return super().__getitem__(index)


def test_zero_length_allow_audit_iterates_the_trace_once(tmp_path):
    # Shares and zero-length allows, each followed by a probe read through
    # the share, and zero-length allows to a missing buffer and driver.
    app = tmp_path / "allows.json"
    app.write_text(json.dumps({"name": "allows", "min_memory": 256, "main": [
        {"op": "loop", "count": 20, "body": [
            {"op": "syscall", "call": {"class": "ro_allow", "driver": 2, "buf": 0,
                                       "base": 0, "len": 8}},
            {"op": "syscall", "call": {"class": "command", "driver": 2, "cmd": 4,
                                       "args": [1]}},
            {"op": "syscall", "call": {"class": "ro_allow", "driver": 2, "buf": 0,
                                       "base": 4000, "len": 0}}]},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 2, "buf": 1,
                                   "base": 0, "len": 0}},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 9, "buf": 0,
                                   "base": 0, "len": 0}},
        {"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert run_simulation(BOARDS_DIR / "demo_sync.json", [app],
                          trace_path=trace_path) == 0
    events = parse_trace(trace_path.read_bytes())
    assert sum(e["kind"] == "mem_access" for e in events) >= 20
    assert sum(e["kind"] == "syscall" and "len" in e["payload"]["call"]
               for e in events) == 42
    one_pass = OnePassEvents(events)
    assert audit_zero_length_allows(one_pass) == []
    assert one_pass.passes == 1
