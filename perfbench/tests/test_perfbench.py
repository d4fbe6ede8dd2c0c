"""The benchmark's own checks, at reduced workload size.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

# Not used while the workloads were written, so the purpose checks below
# also show that the generator's claims hold beyond the development seeds.
HELD_OUT_SEED = 90210
SCALE = 0.25

# The workload on which each per-layer metric must read non-zero.
HEAVY = {
    "board.config_s": "console_boot",
    "board.build_s": "console_boot",
    "board.run_s": "idle_timers",
    "scenario.parse_s": "console_boot",
    "scenario.parse_bytes": "console_boot",
    "scenario.advance_s": "syscall_storm",
    "scenario.advance_calls": "syscall_storm",
    "loader.pack_s": "console_boot",
    "loader.digest_s": "console_boot",
    "loader.digest_bytes": "console_boot",
    "loader.advance_s": "console_boot",
    "loader.jobs": "console_boot",
    "loader.load_ticks": "console_boot",
    "kernel.loop_step_s": "idle_timers",
    "kernel.loop_steps": "idle_timers",
    "kernel.idle_steps": "idle_timers",
    "kernel.useful_step_ratio": "syscall_storm",
    "kernel.quiescent_s": "idle_timers",
    "kernel.syscall_s": "syscall_storm",
    "kernel.syscalls.yield": "syscall_storm",
    "kernel.syscalls.command": "syscall_storm",
    "kernel.syscalls.rw_allow": "syscall_storm",
    "kernel.syscalls.exit": "syscall_storm",
    "kernel.syscalls.subscribe": "console_boot",
    "kernel.syscalls.ro_allow": "console_boot",
    "kernel.grant_enter_s": "console_boot",
    "kernel.schedule_upcall_s": "console_boot",
    "kernel.upcalls.queued": "console_boot",
    "kernel.upcalls.replaced": "console_boot",
    "kernel.upcalls.dropped": "console_boot",
    "capsules.call_s": "syscall_storm",
    "capsules.calls": "syscall_storm",
    "capsules.console_commands": "console_boot",
    "capsules.busy_returns": "console_boot",
    "capsules.busy_ratio": "console_boot",
    "hw.tick_s": "idle_timers",
    "hw.ticks": "idle_timers",
    "hw.busy_ticks": "console_boot",
    "hw.irq_service_s": "idle_timers",
    "hw.irqs": "idle_timers",
    "regmap.access_s": "idle_timers",
    "regmap.accesses": "idle_timers",
    "memory.check_s": "syscall_storm",
    "memory.checks": "syscall_storm",
    "memory.access_s": "syscall_storm",
    "memory.accesses": "syscall_storm",
    "memory.faults": "syscall_storm",
    "trace.log_s": "syscall_storm",
    "trace.events": "syscall_storm",
    "trace.events.uart_tx": "console_boot",
    "trace.write_s": "syscall_storm",
    "trace.bytes": "syscall_storm",
}


@pytest.fixture(scope="module")
def layer_metrics(tmp_path_factory):
    """Per-layer metrics of one untraced and one traced reduced run."""
    metrics = {}
    for name in workloads.GENERATORS:
        work = tmp_path_factory.mktemp(name)
        wl = workloads.generate(name, HELD_OUT_SEED, work, scale=SCALE)
        samples = []
        for traced in (False, True):
            sample = run.child(run.run_job(wl, work / f"{traced}.jsonl", traced))
            assert sample is not None and sample["exit"] == run.EXIT_CODE
            samples.append({**sample, "traced": traced})
        # Wrapping changes no output byte.
        assert samples[0]["sha256"] == samples[1]["sha256"]
        facts = run.child({"job": "analyze", "trace": str(work / "True.jsonl")})
        assert facts["violations"] == []
        metrics[name] = run.per_layer(samples, {samples[1]["sha256"]: facts})
    return metrics


def test_idle_timers_is_idle(layer_metrics):
    m = layer_metrics["idle_timers"]
    assert m["kernel.idle_steps"] >= 0.95 * m["kernel.loop_steps"]


def test_syscall_storm_is_busy(layer_metrics):
    m = layer_metrics["syscall_storm"]
    assert m["kernel.idle_steps"] <= 0.05 * m["kernel.loop_steps"]


def test_console_boot_contends_and_loads(layer_metrics):
    m = layer_metrics["console_boot"]
    assert m["capsules.busy_returns"] > 0
    assert m["loader.jobs"] == 8


@pytest.mark.parametrize("metric", sorted(HEAVY))
def test_metric_nonzero_on_heavy_workload(layer_metrics, metric):
    assert layer_metrics[HEAVY[metric]][metric] > 0


@pytest.mark.parametrize("workload, modules, share", [
    ("idle_timers", ("hw", "regmap", "kernel"), 0.6),
    ("syscall_storm", ("trace", "scenario", "memory"), 0.5),
    ("console_boot", ("hw", "trace", "loader"), 0.3),
])
def test_self_time_goes_where_the_workload_aims(layer_metrics, workload,
                                                modules, share):
    m = layer_metrics[workload]
    spans = {f"{span}_s": span.split(".")[0] for span in run.SPAN_NAMES}
    total = sum(m[key] for key in spans)
    aimed = sum(m[key] for key, module in spans.items() if module in modules)
    assert aimed >= share * total


def test_generator_is_seeded(tmp_path):
    def files(seed, sub):
        wl = workloads.generate("syscall_storm", seed, tmp_path / sub, scale=SCALE)
        return [p.read_bytes() for p in [wl.board, *wl.apps]]

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_pins_cover_the_sweep(tmp_path):
    pins = json.loads(run.PINS.read_text())
    names = [r["name"] for r in run.sweep_job(tmp_path)["runs"]]
    assert len(names) == 28
    assert sorted(pins["sweep"]) == sorted(names)
    assert all(pin["exit"] == 0 for pin in pins["sweep"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idle_timers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
