"""Differential tests: Board.run, which skips idle ticks, against the
per-tick reference stepper in oracles.py. Traces must be byte-identical
and exit codes equal."""

import json
import random

import pytest

from kernsim.board import DEFAULT_MAX_TICKS, Board, BoardConfig

from conftest import BOARDS_DIR, SCENARIOS_DIR, minimal_board_dict, script_source
from oracles import RING, run_per_tick

SCENARIOS = sorted(p.name for p in SCENARIOS_DIR.glob("*.json"))
GROUPS = [
    ["manager_victim.json", "manager_killer.json"],
    ["grant_worker.json", "grant_hog.json"],
    ["demo_a.json", "demo_b.json"],
    SCENARIOS,
]


def _run_both(make_board, sources, max_ticks):
    """Build two identical boards, load the same apps, and run one with
    Board.run and the other with the per-tick stepper."""
    results = []
    for runner in (Board.run, run_per_tick):
        board = make_board()
        board.finalize()
        for name, source in sources:
            board.load_app(source, name)
        code = runner(board, max_ticks)
        results.append((code, board.trace.out.getvalue().encode("utf-8")))
    return results


def _assert_same(make_board, sources, max_ticks):
    (code, trace), (ref_code, ref_trace) = _run_both(make_board, sources,
                                                     max_ticks)
    assert code == ref_code
    assert trace == ref_trace
    return code, trace


@pytest.mark.parametrize("board_name", ["demo.json", "demo_sync.json"])
@pytest.mark.parametrize("apps", [[s] for s in SCENARIOS] + GROUPS,
                         ids=lambda apps: "all" if apps is SCENARIOS
                         else "+".join(a[:-5] for a in apps))
def test_shipped_scenarios_match_per_tick_stepper(board_name, apps):
    data = json.loads((BOARDS_DIR / board_name).read_text(encoding="utf-8"))
    if apps is SCENARIOS and board_name == "demo_sync.json":
        # Synchronous loading makes all 14 scenarios live at once.
        data["max_processes"] = len(SCENARIOS)
    config = BoardConfig.from_dict(data, BOARDS_DIR)
    sources = [(a[:-5], (SCENARIOS_DIR / a).read_bytes()) for a in apps]
    _assert_same(lambda: Board(config), sources, DEFAULT_MAX_TICKS)


def _sleep(deadline):
    return {"op": "sync_command", "driver": 0, "cmd": 1,
            "args": [deadline, 0], "fn": "on_alarm"}


def _console_write(data):
    return [
        {"op": "write_local", "offset": 0, "data": data.hex()},
        {"op": "syscall", "call": {"class": "subscribe", "driver": 1, "sub": 0,
                                   "fn": "on_tx"}},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 1, "buf": 0,
                                   "base": 0, "len": len(data)}},
        {"op": "syscall", "call": {"class": "command", "driver": 1, "cmd": 1,
                                   "args": [len(data), 0]}},
        {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
    ]


def _random_app(rng, index, initial_count):
    main = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("sleep", "sleep_raw", "console", "spin", "mismatch"))
        if kind == "sleep":
            # Relative to COUNT, so a count near the top of the ring wraps.
            main.append(_sleep((initial_count + rng.randint(1, 3000)) % RING))
        elif kind == "sleep_raw":
            # Often already passed, or about half the ring away.
            main.append(_sleep(rng.randrange(RING)))
        elif kind == "console":
            size = rng.randint(1, 64)
            write = _console_write(bytes(rng.randrange(256) for _ in range(size)))
            # Fails, for exit code 1, when another process holds the console.
            write.insert(-1, {"op": "expect", "pattern": {"variant": "success"}})
            main.extend(write)
        elif kind == "spin":
            main.append({"op": "loop", "count": rng.randint(1, 40), "body": [
                {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]})
        else:
            main.append({"op": "expect", "pattern": {"variant": "failure",
                                                     "error": "NOMEM"}})
    if rng.random() < 0.5:
        main.append({"op": "halt"})
    # Padding varies the payload the async loader hashes.
    return script_source(main, {"on_alarm": [], "on_tx": []}, 256,
                         name=f"app{index}", pad="x" * rng.randrange(600))


def _random_board(rng):
    initial_count = rng.choice((0, rng.randrange(RING),
                                RING - rng.randint(1, 3000)))
    return minimal_board_dict(
        loader=rng.choice(("sync", "async")),
        peripherals={
            "alarm": {"irq": 0, "initial_count": initial_count},
            "uart": {"irq": 1, "bytes_per_tick": rng.randint(1, 5)},
            "hashengine": {"irq": 2, "chunk_bytes": rng.choice((1, 7, 64, 500))},
        })


@pytest.mark.parametrize("seed", range(24))
def test_random_boards_match_per_tick_stepper(seed):
    rng = random.Random(seed)
    cfg = _random_board(rng)
    initial_count = cfg["peripherals"]["alarm"]["initial_count"]
    sources = [(f"app{i}", _random_app(rng, i, initial_count))
               for i in range(rng.randint(1, 3))]
    _assert_same(lambda: Board.from_dict(cfg), sources, rng.randint(1, 5000))


def test_tick_limit_inside_an_idle_gap_matches():
    cfg = minimal_board_dict(peripherals={
        "alarm": {"irq": 0, "initial_count": RING - 100}})
    cfg["capsules"] = [{"name": "alarm_driver", "type": "alarm", "driver_id": 0}]
    cfg["capabilities"] = {}
    source = script_source([_sleep(4000), {"op": "halt"}], {"on_alarm": []})
    code, trace = _assert_same(lambda: Board.from_dict(cfg),
                               [("sleeper", source)], 2500)
    assert code == 0
    last = json.loads(trace.splitlines()[-1])
    assert last["kind"] == "tick_limit" and last["tick"] == 2500


def test_wide_uart_and_async_loads_match():
    cfg = minimal_board_dict(loader="async", peripherals={
        "alarm": {"irq": 0},
        "uart": {"irq": 1, "bytes_per_tick": 3},
        "hashengine": {"irq": 2, "chunk_bytes": 5}})
    sources = [(f"w{i}", script_source(_console_write(bytes(range(10 * i + 7))),
                                       {"on_tx": []}, 256, name=f"w{i}"))
               for i in range(3)]
    code, trace = _assert_same(lambda: Board.from_dict(cfg), sources,
                               DEFAULT_MAX_TICKS)
    assert code == 0
    assert trace.count(b'"kind":"uart_tx"') == 7 + 17 + 27
    assert trace.count(b'"kind":"hash_submit"') == 3
