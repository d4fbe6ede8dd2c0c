"""Correctness facts derived from one trace file.

Everything here is a function of the trace bytes alone, so two runs with
the same sha256 share one analysis. The deterministic counters are the
ones a simulator-only speed-up must leave identical.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path
from typing import Any, Dict

from kernsim.audit import parse_trace, run_all_audits


def digest(path) -> Dict[str, Any]:
    """sha256, size, event count and final tick of a trace file."""
    data = Path(path).read_bytes()
    last = data.rstrip(b"\n").rpartition(b"\n")[2]
    tick = int(last.split(b'"tick":', 1)[1].split(b",", 1)[0]) if last else 0
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "events": data.count(b"\n"), "ticks": tick}


def analyze(path) -> Dict[str, Any]:
    """Deterministic counters and auditor findings for one trace."""
    events = parse_trace(Path(path).read_bytes())
    kinds = Counter(e["kind"] for e in events)
    syscalls = Counter(e["payload"]["call"]["class"]
                       for e in events if e["kind"] == "syscall")
    returns = Counter(e["payload"]["ret"]["variant"]
                      for e in events if e["kind"] == "syscall_return")
    queued = [e["payload"].get("replaced") for e in events
              if e["kind"] == "upcall_queued"]
    loader = [(e["tick"], e["payload"]["state"]) for e in events
              if e["kind"] == "loader_state"]
    settled = [t for t, state in loader if state in ("runnable", "rejected")]
    violations = [f"{name}: {v}" for name, found in run_all_audits(events).items()
                  for v in found]
    return {
        "ticks": events[-1]["tick"] if events else 0,
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "syscalls": dict(sorted(syscalls.items())),
        "returns": dict(sorted(returns.items())),
        "upcalls": {"queued": queued.count(False), "replaced": queued.count(True),
                    "dropped": kinds["upcall_dropped"]},
        "load_ticks": max(settled) - loader[0][0] if settled else 0,
        "violations": violations,
    }
