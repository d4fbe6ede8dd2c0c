"""Seeded generators for the benchmark's three batch workloads.

Each generator writes a board JSON and one scenario JSON per process into
a directory. kernsim sees only those files. Every workload is a closed
loop: a scripted process issues its next system call only after the
previous one has returned.

The seed changes the content of a workload (deadlines, offsets, data
bytes, stagger) but not its size, so that host time stays comparable
from seed to seed. ``scale`` shrinks a workload for the benchmark's own
tests; the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

ALARM_DRIVER = 0
CONSOLE_DRIVER = 1
PROBE_DRIVER = 2

# Why each workload was chosen; BENCHMARK.json carries the same sentences.
WHY = {
    "idle_timers": "about 99% of kernel loop steps are idle, so it isolates "
                   "per-tick cost (hw tick, regmap, loop step, quiescent); "
                   "trace, memory and syscalls are nearly unused",
    "syscall_storm": "every tick does work and the run is event-dense, so it "
                     "loads syscall dispatch, interpreter, capsules, MPU and "
                     "trace paths and bypasses idle ticking",
    "console_boot": "async loading of large scripts dominates set-up; busy "
                    "UART ticks each emit a hardware event and processes "
                    "contend for one console (BUSY, upcall replacement)",
}


@dataclass
class Workload:
    """Generated input files plus the run parameters that go with them."""

    name: str
    board: Path
    apps: List[Path]
    max_ticks: int


def _board(name: str, loader: str, ram_size: int) -> Dict:
    return {
        "name": name,
        "ram_size": ram_size,
        "mpu_max_regions": 8,
        "upcall_queue_depth": 8,
        "capsule_step_budget": 100000,
        "max_processes": 8,
        "loader": loader,
        "verifier": "digest_match",
        "trusted_key_ids": [],
        "peripherals": {
            "alarm": {"irq": 0},
            "uart": {"irq": 1, "bytes_per_tick": 1},
            "hashengine": {"irq": 2, "chunk_bytes": 64},
        },
        "capsules": [
            {"name": "uart_pins", "type": "annotation",
             "provides": {"uart_dma": "present"}, "min_buffer_size": 4},
            {"name": "console", "type": "console", "driver_id": CONSOLE_DRIVER,
             "requires": {"uart_dma": "present"}, "buffer_size": 64},
            {"name": "alarm_driver", "type": "alarm", "driver_id": ALARM_DRIVER},
            {"name": "probe", "type": "probe", "driver_id": PROBE_DRIVER},
        ],
        "capabilities": {},
    }


def _command(driver: int, cmd: int, arg0: int = 0, arg1: int = 0) -> Dict:
    return {"op": "syscall", "call": {"class": "command", "driver": driver,
                                      "cmd": cmd, "args": [arg0, arg1]}}


def _write(path: Path, doc: Dict) -> Path:
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return path


def idle_timers(rng: random.Random, out: Path, scale: float) -> Workload:
    """4 processes sleep on absolute alarm deadlines about 2,000-9,000
    ticks apart. Each process has the same number of deadlines and the
    same last deadline, so only their spacing depends on the seed."""
    horizon = int(100_000 * scale)
    count = max(1, horizon // 5_500)
    apps = []
    for p in range(4):
        gaps = [rng.randint(2_000, 9_000) for _ in range(count)]
        total = sum(gaps)
        deadlines, elapsed = [], 0
        for gap in gaps:
            elapsed += gap
            deadlines.append(elapsed * horizon // total)
        main = [{"op": "sync_command", "driver": ALARM_DRIVER, "cmd": 1,
                 "args": [d, 0], "fn": "on_alarm", "userdata": i}
                for i, d in enumerate(deadlines)]
        main.append({"op": "halt"})
        doc = {"name": f"sleeper{p}", "min_memory": 512, "main": main,
               "handlers": {"on_alarm": []}}
        apps.append(_write(out / f"sleeper{p}.json", doc))
    board = _write(out / "board.json", _board("idle_timers", "sync", 65536))
    return Workload("idle_timers", board, apps, max_ticks=horizon + 1_000)


def syscall_storm(rng: random.Random, out: Path, scale: float) -> Workload:
    """8 processes each make one rw allow to the probe driver, then run a
    seeded 16-step body, looped, where a step is write_local, probe write
    byte, probe read byte, expect, yield no_wait. The expect checks the
    byte read back against what the step wrote."""
    iterations = max(1, int(47 * scale))
    apps = []
    for p in range(8):
        body = []
        for _ in range(16):
            local_off = rng.randrange(0, 252)
            local = bytes(rng.randrange(256) for _ in range(4))
            probe_off = rng.randrange(0, 256)
            value = rng.randrange(256)
            # Read back either the probe's byte or one written locally.
            if rng.random() < 0.5 or local_off <= probe_off < local_off + 4:
                read_off, expected = probe_off, value
            else:
                i = rng.randrange(4)
                read_off, expected = local_off + i, local[i]
            body += [
                {"op": "write_local", "offset": local_off, "data": local.hex()},
                _command(PROBE_DRIVER, 1, probe_off, value),
                _command(PROBE_DRIVER, 2, read_off),
                {"op": "expect", "pattern": {"variant": "success_value",
                                             "value": expected}},
                {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}},
            ]
        main = [
            {"op": "syscall", "call": {"class": "rw_allow", "driver": PROBE_DRIVER,
                                       "buf": 0, "base": 0, "len": 256}},
            {"op": "expect", "pattern": {"variant": "success_region", "len": 0}},
            {"op": "loop", "count": iterations, "body": body},
            # Half the processes end with the exit syscall, half with a
            # local write past their RAM that the MPU refuses.
            {"op": "syscall", "call": {"class": "exit"}} if p % 2 == 0 else
            {"op": "write_local", "offset": 4096, "data": "00"},
        ]
        doc = {"name": f"storm{p}", "min_memory": 1024, "main": main}
        apps.append(_write(out / f"storm{p}.json", doc))
    board = _write(out / "board.json", _board("syscall_storm", "sync", 65536))
    return Workload("syscall_storm", board, apps, max_ticks=200_000)


def console_boot(rng: random.Random, out: Path, scale: float) -> Workload:
    """8 large scripts load through the async loader (hash engine), then
    each streams its seeded data through the console in 64-byte DMA
    chunks, arming an absolute alarm timeout per chunk. A chunk that meets
    a busy console is dropped when its timeout fires. Each stream ends
    with a stale-timeout epilogue: two already-expired timeouts before one
    wait (the second replaces the first in the upcall queue), then one
    after unsubscribing (dropped for the null subscription)."""
    chunks = max(2, int(192 * scale))
    period = 250
    apps = []
    for p in range(8):
        # At full size, loading all eight scripts takes about 10,400 ticks,
        # so the first timeouts fall after it.
        start = 12_000 + rng.randrange(0, period)
        main = [
            {"op": "syscall", "call": {"class": "subscribe", "driver": CONSOLE_DRIVER,
                                       "sub": 0, "fn": "on_tx"}},
            {"op": "syscall", "call": {"class": "subscribe", "driver": ALARM_DRIVER,
                                       "sub": 0, "fn": "on_timeout"}},
            {"op": "syscall", "call": {"class": "ro_allow", "driver": CONSOLE_DRIVER,
                                       "buf": 0, "base": 0, "len": 64}},
            {"op": "expect", "pattern": {"variant": "success_region", "len": 0}},
        ]
        for k in range(chunks):
            data = bytes(rng.randrange(256) for _ in range(64))
            main += [
                {"op": "write_local", "offset": 0, "data": data.hex()},
                _command(ALARM_DRIVER, 1, start + k * period),
                {"op": "expect", "pattern": {"variant": "success"}},
                _command(CONSOLE_DRIVER, 1, 64),
                {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
            ]
        main += [
            _command(ALARM_DRIVER, 1, 0),
            _command(ALARM_DRIVER, 1, 0),
            {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
            {"op": "syscall", "call": {"class": "subscribe", "driver": ALARM_DRIVER,
                                       "sub": 0, "fn": "null"}},
            _command(ALARM_DRIVER, 1, 0),
            {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}},
            {"op": "halt"},
        ]
        doc = {"name": f"streamer{p}", "min_memory": 1024, "main": main,
               "handlers": {"on_tx": [], "on_timeout": []}}
        apps.append(_write(out / f"streamer{p}.json", doc))
    board = _write(out / "board.json", _board("console_boot", "async", 1 << 20))
    return Workload("console_boot", board, apps,
                    max_ticks=12_000 + (chunks + 2) * period + 50_000)


GENERATORS: Dict[str, Callable[[random.Random, Path, float], Workload]] = {
    "idle_timers": idle_timers,
    "syscall_storm": syscall_storm,
    "console_boot": console_boot,
}


def generate(name: str, seed: int, out_dir, scale: float = 1.0) -> Workload:
    """Write workload ``name`` for ``seed`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](random.Random(f"{name}:{seed}"), out, scale)
