"""Rewrite pins.json: the exit code, trace sha256 and deterministic
counters that every benchmark run is checked against.

Usage (from the repository root): python3 perfbench/pin.py

Run it only when a change alters trace bytes on purpose, and say so in
the change. It refuses to pin a run with an unexpected exit code or an
auditor violation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

PINNED_SEEDS = range(16)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    pins = {"sweep": {}, "seeds": {}}
    try:
        for name, got in run.child(run.sweep_job(work)).items():
            if got["exit"] != run.EXIT_CODE or got["violations"]:
                raise SystemExit(f"{name}: exit {got['exit']}, {got['violations'][:3]}")
            pins["sweep"][name] = {"exit": got["exit"], "sha256": got["sha256"]}
        for name in sorted(workloads.GENERATORS):
            pins["seeds"][name] = {}
            for seed in PINNED_SEEDS:
                wl = workloads.generate(name, seed, work / f"{name}-{seed}")
                trace = work / f"{name}-{seed}.jsonl"
                got = run.child(run.run_job(wl, trace, False))
                facts = run.child({"job": "analyze", "trace": str(trace)})
                if got["exit"] != run.EXIT_CODE or facts["violations"]:
                    raise SystemExit(f"{name} seed {seed}: exit {got['exit']}, "
                                     f"{facts['violations'][:3]}")
                pins["seeds"][name][str(seed)] = run.pin_of(
                    {**facts, "sha256": got["sha256"]}, got["exit"])
                trace.unlink()
                print(f"pinned {name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
