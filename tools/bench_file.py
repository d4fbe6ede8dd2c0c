"""Write a BENCH file: the benchmark's figures for the checked-out tree.

Usage (from the repository root):

    python3 tools/bench_file.py N

writes ``BENCH_<N>.json`` at the repository root. The procedure is fixed,
so that two files made on two commits compare. Each of 10 rounds runs,
once for every workload that ``BENCHMARK.json`` declares,

    python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0

(``S`` is ``BENCHMARK.json``'s ``run_seconds``), one run at a time. The first workload of a round rotates from round to
round, so that no workload always runs first or last. The last stdout
line of each run gives its end-to-end metrics and its ``correct`` and
``failed`` fields.

The file holds:

- the commit, the tracked files that differ from it, and the Python
  version;
- for each workload, each end-to-end metric's median, lower and upper
  quartile, and every round's value, in round order;
- each round's ``correct``, ``attempted`` and ``failed``;
- the deterministic counters that ``perfbench/check.py`` ``analyze``
  gives for the workload's seed-0 trace, run once in this process, with
  that trace's exit code, sha256 and size;
- start-up: the median wall time of 25 fresh ``python -c "import
  kernsim.cli"`` processes, and of 25 bare ``python -c pass`` ones,
  interleaved, with whether the interpreter writes bytecode.

Wall times move from run to run by themselves, so they are compared
through their quartiles, not as exact figures; the counters repeat
exactly. The script exits 1 when a run fails or reads ``correct: false``,
or a counter trace has auditor findings, and 0 otherwise; it writes the
file either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"
ROUNDS = 10
STARTUP_SAMPLES = 25


def spread(values: List[Optional[float]]) -> Dict[str, Any]:
    """Median and quartiles of the values that are not None, and every
    value, in the order given: None stands for a run that failed."""
    present = [v for v in values if v is not None]
    if len(present) < 2:
        return {"median": None, "q1": None, "q3": None, "values": values}
    q1, q2, q3 = quantiles(present, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def run_workload(name: str, seconds: float) -> Dict[str, Any]:
    """One benchmark run's last stdout line, parsed; a failed run gives
    ``correct: false`` and no metrics."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", name,
         "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        print(f"{name}: run failed ({proc.returncode}): {proc.stderr[-2000:]}",
              file=sys.stderr)
        return {"correct": False, "attempted": None, "failed": None, "metrics": {}}
    return result


def counters(name: str, check: Dict[str, Any], generate) -> Dict[str, Any]:
    """The deterministic counters of the workload's seed-0 trace."""
    from kernsim.board import run_simulation

    with tempfile.TemporaryDirectory() as tmp:
        workload = generate(name, 0, Path(tmp) / "in")
        trace = Path(tmp) / "trace.jsonl"
        code = run_simulation(workload.board, workload.apps,
                              max_ticks=workload.max_ticks, trace_path=trace)
        digest = check["digest"](trace)
        return {"exit": code, "sha256": digest["sha256"], "bytes": digest["bytes"],
                **check["analyze"](trace)}


def startup(samples: int) -> Dict[str, Any]:
    """Wall times of fresh interpreters that import ``kernsim.cli``, and
    of bare ones, taken in turn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = {"import_kernsim_cli_s": "import kernsim.cli", "bare_python_s": "pass"}
    walls: Dict[str, List[float]] = {key: [] for key in commands}
    for _ in range(samples):
        for key, code in commands.items():
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            walls[key].append(perf_counter() - start)
    return {"samples": samples,
            "writes_bytecode": not (sys.flags.dont_write_bytecode
                                    or "PYTHONDONTWRITEBYTECODE" in os.environ),
            **{key: spread(values) for key, values in walls.items()}}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="the N of BENCH_<N>.json")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]

    sys.path.insert(0, str(SRC))
    # run_path compiles the files without writing bytecode next to them.
    check = runpy.run_path(str(PERFBENCH / "check.py"))
    generate = runpy.run_path(str(PERFBENCH / "workloads.py"))["generate"]
    names = [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]

    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_no in range(ROUNDS):
        shift = round_no % len(names)
        for name in names[shift:] + names[:shift]:
            result = run_workload(name, seconds)
            runs[name].append(result)
            print(f"round {round_no} {name}: correct {result['correct']}, "
                  f"wall_s {result['metrics'].get('wall_s', {}).get('value')}",
                  file=sys.stderr)

    workloads = {}
    for name in names:
        workloads[name] = {
            "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                    **spread([r["metrics"].get(m["name"], {}).get("value")
                                              for r in runs[name]])}
                        for m in metrics},
            "rounds": [{key: r[key] for key in ("correct", "attempted", "failed")}
                       for r in runs[name]],
            "counters": counters(name, check, generate),
        }
    bench = {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted": git("diff", "--name-only", "HEAD").splitlines(),
        "python": platform.python_version(),
        "command": "python3 perfbench/run.py --workload W --seed 0 "
                   f"--seconds {seconds:g} --trace 0",
        "rounds": ROUNDS,
        "workloads": workloads,
        "startup": startup(STARTUP_SAMPLES),
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    ok = all(r["correct"] for w in runs.values() for r in w) and not any(
        w["counters"]["violations"] for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
