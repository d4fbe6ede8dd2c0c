"""kernsim benchmark: one workload, timed end to end or traced per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's board and scenario files (see
workloads.py). Each ``kernsim run`` goes through ``kernsim.cli.main`` in
a fresh child process, one child at a time, with its trace written to a
temporary file. Children are started until ``--seconds`` have passed;
every timing is the median over children. Times are host seconds scaled
to a fixed reference speed of the host (see ``at_reference_speed``).

``--trace 0`` reports the end-to-end metrics from untraced children.
``--trace 1`` alternates traced and untraced children and reports the
per-module metrics (layers.py), the unattributed remainder and the
tracing overhead.

Every invocation also checks outputs: each child's exit code, trace
sha256 and deterministic counters against pins.json (or, for a seed that
is not pinned, against each other and against one run of a pinned seed),
the six trace auditors, and an untimed sweep of every shipped scenario
on both demo boards. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` over
``attempted`` is the benchmark's fail ratio.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
WORK = ROOT / ".perfbench_tmp"
CHILD_TIMEOUT_S = 60
# Every workload, like every shipped scenario, ends in clean quiescence.
EXIT_CODE = 0
# Host seconds that child.reference_s takes at the reference speed, a round
# figure near its time on a 2-vCPU Intel Xeon virtual machine with Python
# 3.11.7.
REF_NOMINAL_S = 0.065

END_TO_END = {"wall_s": "s", "setup_s": "s", "ticks_per_s": "1/s",
              "events_per_s": "1/s", "peak_rss_mb": "MB"}

SYSCALL_CLASSES = ("yield", "subscribe", "command", "rw_allow", "ro_allow", "exit")
EVENT_KINDS = (
    "boot", "capsule_registered", "cap_minted", "finalized", "config_error",
    "loader_state", "hash_submit", "process_created", "process_state",
    "syscall", "syscall_return", "expect", "mem_access", "mem_fault",
    "upcall_queued", "upcall_dropped", "upcall_run", "grant_alloc",
    "grant_nomem", "irq_raised", "irq_serviced", "alarm_deliver", "uart_tx",
    "uart_done", "capsule_error", "privileged_op", "diagnostic", "tick_limit",
    "quiescent")
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in layers.SPANS))
WRAPPER_COUNTS = tuple(dict.fromkeys(
    [count for _, _, count, _ in layers.SPANS if count] + list(layers.HOOK_COUNTS)))


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {f"{span}_s": "s" for span in SPAN_NAMES}
    units.update({name: "count" for name in WRAPPER_COUNTS})
    units.update({"scenario.parse_bytes": "bytes", "loader.digest_bytes": "bytes",
                  "hw.ticks": "ticks", "hw.busy_ticks": "ticks",
                  "kernel.useful_step_ratio": "ratio", "capsules.busy_ratio": "ratio",
                  "loader.load_ticks": "ticks", "trace.bytes": "bytes",
                  "memory.faults": "count"})
    units.update({f"kernel.syscalls.{c}": "count" for c in SYSCALL_CLASSES})
    units.update({f"kernel.upcalls.{u}": "count"
                  for u in ("queued", "replaced", "dropped")})
    units.update({f"trace.events.{k}": "count" for k in EVENT_KINDS})
    units.update({"sim.ticks": "ticks", "sim.events": "count",
                  "unattributed_s": "s", "tracing_overhead_s": "s"})
    return units


class Ledger:
    """Attempted and failed runs, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, problems: List[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


def child(job: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Run one child job to completion; None if it did not succeed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child timed out: {job['job']}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def at_reference_speed(sample: Dict[str, Any]) -> Dict[str, Any]:
    """Scale a run child's host times to the reference speed.

    A shared host's CPU speed drifts by up to a fifth over minutes, which
    moves every child of a run alike. Each child times a fixed reference
    job just before and after its run (``ref_s``); multiplying its times
    by REF_NOMINAL_S / ``ref_s`` gives the times the run would have taken
    had the host run at the speed where the job takes REF_NOMINAL_S. The
    job does not touch kernsim, so a change to kernsim moves these times
    as it moves host time. The unscaled ``host_wall_s`` is kept.
    """
    if "ref_s" not in sample:
        return sample
    factor = REF_NOMINAL_S / sample["ref_s"]
    sample["host_wall_s"] = sample["wall_s"]
    for key in ("wall_s", "setup_s", "unattributed_s"):
        if key in sample:
            sample[key] *= factor
    if "self_s" in sample:
        sample["self_s"] = {span: t * factor for span, t in sample["self_s"].items()}
    return sample


def pin_of(facts: Dict[str, Any], exit_code: int) -> Dict[str, Any]:
    """The pinned form of one run: exit code, sha256 and counters."""
    return {"exit": exit_code, "sha256": facts["sha256"], "ticks": facts["ticks"],
            "events": facts["events"], "syscalls": facts["syscalls"],
            "returns": facts["returns"]}


def mismatches(pin: Dict[str, Any], got: Dict[str, Any]) -> List[str]:
    return [f"{key} {got.get(key)!r} != pinned {pin[key]!r}"
            for key in pin if got.get(key) != pin[key]]


def run_job(wl: workloads.Workload, trace: Path, traced: bool) -> Dict[str, Any]:
    return {"job": "run", "board": str(wl.board), "apps": [str(a) for a in wl.apps],
            "max_ticks": wl.max_ticks, "trace": str(trace), "traced": traced}


def sweep_job(work: Path) -> Dict[str, Any]:
    """Every shipped scenario on both demo boards, one trace file each."""
    runs = []
    for board in ("demo", "demo_sync"):
        for app in sorted((ROOT / "src/kernsim/scenarios").glob("*.json")):
            runs.append({"name": f"{board}/{app.stem}", "app": str(app),
                         "board": str(ROOT / f"src/kernsim/boards/{board}.json"),
                         "trace": str(work / f"sweep-{board}-{app.stem}.jsonl")})
    return {"job": "sweep", "runs": runs}


def sweep(work: Path, pins: Dict[str, Any], ledger: Ledger) -> None:
    """Untimed run of every shipped scenario, checked against its pin."""
    result = child(sweep_job(work)) or {}
    for name, pin in pins["sweep"].items():
        got = result.get(name)
        problems = ["did not run"] if got is None else \
            mismatches(pin, got) + got["violations"]
        ledger.record(problems, f"sweep {name}")


def verify(samples: List[Dict[str, Any]], traces: Dict[str, Path],
           pin: Optional[Dict[str, Any]], ledger: Ledger,
           what: str) -> Dict[str, Dict[str, Any]]:
    """Check each child's run; returns the analysis of each trace seen."""
    facts = {}
    for sha, path in traces.items():
        analysis = child({"job": "analyze", "trace": str(path)})
        if analysis is not None:
            facts[sha] = {**analysis, "sha256": sha}
    expected = pin["sha256"] if pin else samples[0].get("sha256")
    for i, sample in enumerate(samples):
        problems = []
        if sample.get("exit") != EXIT_CODE:
            problems.append(f"exit {sample.get('exit')} != {EXIT_CODE}")
        sha = sample.get("sha256")
        if sha != expected:
            problems.append(f"trace sha256 {sha} != expected {expected}")
        analysis = facts.get(sha)
        if analysis is None:
            problems.append("trace not analysed")
        else:
            problems += analysis["violations"]
            if pin:
                problems += mismatches(pin, pin_of(analysis, sample["exit"]))
        sample["ok"] = ledger.record(problems, f"{what} child {i}")
    return facts


def measure(wl: workloads.Workload, work: Path, seconds: float, traced: bool,
            pin: Optional[Dict[str, Any]], ledger: Ledger):
    """Start children one at a time until ``seconds`` have passed."""
    samples: List[Dict[str, Any]] = []
    traces: Dict[str, Path] = {}
    deadline = perf_counter() + seconds
    i = 0
    # Traced mode alternates untraced and traced children and needs both.
    while perf_counter() < deadline or i < (2 if traced else 1):
        trace = work / f"trace-{i}.jsonl"
        result = at_reference_speed(
            child(run_job(wl, trace, traced and i % 2 == 1)) or {})
        result["traced"] = traced and i % 2 == 1
        samples.append(result)
        sha = result.get("sha256")
        if sha and sha not in traces:
            traces[sha] = trace
        else:
            trace.unlink(missing_ok=True)
        i += 1
    facts = verify(samples, traces, pin, ledger, wl.name)
    good = [s for s in samples if s["ok"]] or [s for s in samples if "wall_s" in s]
    return good, facts


def end_to_end(samples: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        "wall_s": median(s["wall_s"] for s in samples),
        "setup_s": median(s["setup_s"] for s in samples),
        "ticks_per_s": median(s["ticks"] / s["wall_s"] for s in samples),
        "events_per_s": median(s["events"] / s["wall_s"] for s in samples),
        "peak_rss_mb": median(s["rss_mb"] for s in samples),
    }


def per_layer(samples: List[Dict[str, Any]], facts: Dict[str, Any]) -> Dict[str, float]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    out: Dict[str, float] = {}
    for span in SPAN_NAMES:
        out[f"{span}_s"] = median(s["self_s"][span] for s in traced)
    # Counts are deterministic, so the first traced child's stand for all.
    counts = traced[0]["counts"]
    for name in WRAPPER_COUNTS:
        out[name] = counts[name]
    steps = counts["kernel.loop_steps"]
    out["kernel.useful_step_ratio"] = (steps - counts["kernel.idle_steps"]) / steps
    commands = counts["capsules.console_commands"]
    out["capsules.busy_ratio"] = counts["capsules.busy_returns"] / commands \
        if commands else 0.0
    analysis = facts[traced[0]["sha256"]]
    out["loader.load_ticks"] = analysis["load_ticks"]
    out["trace.bytes"] = traced[0]["bytes"]
    out["memory.faults"] = analysis["kinds"].get("mem_fault", 0)
    for klass in SYSCALL_CLASSES:
        out[f"kernel.syscalls.{klass}"] = analysis["syscalls"].get(klass, 0)
    for key, value in analysis["upcalls"].items():
        out[f"kernel.upcalls.{key}"] = value
    for kind in EVENT_KINDS:
        out[f"trace.events.{kind}"] = analysis["kinds"].get(kind, 0)
    out["sim.ticks"] = analysis["ticks"]
    out["sim.events"] = analysis["events"]
    out["unattributed_s"] = median(s["unattributed_s"] for s in traced)
    out["tracing_overhead_s"] = (median(s["wall_s"] for s in traced)
                                 - median(s["wall_s"] for s in plain))
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src/kernsim/cli.py").is_file() or not PINS.is_file():
        print("perfbench: kernsim sources or pins.json not found", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    ledger = Ledger()
    try:
        sweep(work, pins, ledger)
        seed_pins = pins["seeds"][args.workload]
        pin = seed_pins.get(str(args.seed))
        if pin is None:
            # An unpinned seed is checked for self-consistency; one run of
            # a pinned seed checks the bytes.
            ref_seed = min(seed_pins, key=int)
            ref = workloads.generate(args.workload, int(ref_seed), work / "ref")
            result = child(run_job(ref, work / "ref.jsonl", False)) or {}
            result["traced"] = False
            traces = {result["sha256"]: work / "ref.jsonl"} if "sha256" in result else {}
            verify([result], traces, seed_pins[ref_seed], ledger,
                   f"reference seed {ref_seed}")
        wl = workloads.generate(args.workload, args.seed, work / "inputs")
        samples, facts = measure(wl, work, args.seconds, bool(args.trace), pin, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in ledger.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    timed = [s for s in samples if not s["traced"]]
    if not timed or (args.trace and not any(s["traced"] for s in samples)):
        print("perfbench: no child completed a run", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(samples, facts)
        units = per_layer_units()
    else:
        values = end_to_end(timed)
        units = END_TO_END
    print(f"# {args.workload} seed {args.seed}: {len(timed)} untraced and "
          f"{len(samples) - len(timed)} traced samples, fail ratio "
          f"{len(ledger.failures)}/{ledger.attempted}; unscaled host wall_s "
          f"{median(s['host_wall_s'] for s in timed):.4g} s, reference job "
          f"{median(s['ref_s'] for s in timed):.4g} s "
          f"(nominal {REF_NOMINAL_S} s)")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
