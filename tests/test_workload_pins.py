"""Each benchmark workload, at seeds 0 and 15, still gives the exit code
and the trace bytes that perfbench/pins.json pins, so a change that moves
a byte of a workload's trace fails here and not only in a benchmark run."""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from kernsim.board import run_simulation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles the file without writing bytecode next to it.
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
PINS = json.loads((PERFBENCH / "pins.json").read_text())["seeds"]


def _assert_matches_its_pin(name, seed, tmp_path):
    workload = WORKLOADS["generate"](name, seed, tmp_path / "in")
    trace = tmp_path / "trace.jsonl"
    code = run_simulation(workload.board, workload.apps,
                          max_ticks=workload.max_ticks, trace_path=trace)
    pin = PINS[name][str(seed)]
    assert code == pin["exit"]
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == pin["sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS["GENERATORS"]))
def test_seed_0_matches_its_pin(name, tmp_path):
    _assert_matches_its_pin(name, 0, tmp_path)


# A second seed, so that a change meant to keep every byte is checked on
# the content of two seeds, not one.
@pytest.mark.parametrize("name", sorted(WORKLOADS["GENERATORS"]))
def test_seed_15_matches_its_pin(name, tmp_path):
    _assert_matches_its_pin(name, 15, tmp_path)
