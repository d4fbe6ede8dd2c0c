"""One benchmark child process: a single job, result as a JSON line.

Usage: python3 perfbench/child.py '<job JSON>'

Jobs:
  {"job": "run", "board": ..., "apps": [...], "max_ticks": N,
   "trace": PATH, "traced": BOOL}
      One ``kernsim run`` through ``kernsim.cli.main``. Times are host
      seconds from entering ``cli.main``; ``setup_s`` ends when
      ``Board.run`` is entered. ``ref_s`` is the mean host time of a fixed
      reference job run just before and just after, a measure of how
      fast the host is running at the time. ``rss_mb`` is this process's
      own peak.
      With ``traced``, every module's public functions are wrapped first
      (see layers.py) and per-span self times and counts are added.
  {"job": "analyze", "trace": PATH}
      Deterministic counters and auditor findings of one trace.
  {"job": "sweep", "runs": [{"name", "board", "app", "trace"}, ...]}
      Untimed runs of shipped scenarios; exit code, sha256, auditors.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402  (needs kernsim on the path)
from kernsim import cli  # noqa: E402
from kernsim.board import Board  # noqa: E402

# Sizes of the reference job, 65-90 ms of host time a call.
REF_ARITH_LOOPS = 450_000
REF_DICT_LOOPS = 60_000


def reference_s():
    """Host seconds for a fixed pure-Python job made of what kernsim's hot
    paths are made of: integer arithmetic, dict updates and small
    ``json.dumps`` calls. It keeps no object alive, so it triggers no
    garbage collection and its time does not depend on the heap the run
    leaves behind."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ARITH_LOOPS):
        acc += i ^ (i >> 3)
    table = {}
    for i in range(REF_DICT_LOOPS):
        key = i & 63
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        if i & 15 == 0:
            json.dumps({"tick": i, "kind": "ref", "value": table[key]})
    return perf_counter() - t0


def run(job):
    rec = None
    if job["traced"]:
        import layers
        rec = layers.install()
    marks = {}
    inner_run = Board.run

    def timed_run(self, *args, **kwargs):
        marks["run"] = perf_counter()
        return inner_run(self, *args, **kwargs)

    Board.run = timed_run
    argv = ["run", "--board", job["board"], "--max-ticks", str(job["max_ticks"]),
            "--trace", job["trace"]]
    for app in job["apps"]:
        argv += ["--app", app]
    ref_before = reference_s()
    t0 = perf_counter()
    code = cli.main(argv)
    wall = perf_counter() - t0
    ref_after = reference_s()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"exit": code, "wall_s": wall, "setup_s": marks["run"] - t0,
              "ref_s": (ref_before + ref_after) / 2,
              "rss_mb": rss_mb, **check.digest(job["trace"])}
    if rec is not None:
        result.update(self_s=rec.self_s, counts=rec.counts,
                      unattributed_s=wall - rec.spanned_s)
    return result


def sweep(job):
    out = {}
    for item in job["runs"]:
        code = cli.main(["run", "--board", item["board"], "--app", item["app"],
                         "--trace", item["trace"]])
        facts = check.analyze(item["trace"])
        out[item["name"]] = {"exit": code, "sha256": check.digest(item["trace"])["sha256"],
                             "violations": facts["violations"]}
    return out


def main():
    # Stay on one CPU, the highest-numbered one allowed, so that a run does
    # not migrate between CPUs mid-run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    job = json.loads(sys.argv[1])
    if job["job"] == "run":
        result = run(job)
    elif job["job"] == "analyze":
        result = check.analyze(job["trace"])
    else:
        result = sweep(job)
    print(json.dumps(result), flush=True)
    # Skip interpreter teardown: freeing every trace object of a large run
    # takes up to a second, and nothing is left to close or flush.
    os._exit(0)


if __name__ == "__main__":
    main()
