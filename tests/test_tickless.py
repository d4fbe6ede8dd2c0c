"""Differential tests: Board.run, which skips idle ticks, against the
per-tick reference stepper in oracles.py. Traces must be byte-identical
and exit codes equal."""

import json
import random

import pytest

from kernsim.board import DEFAULT_MAX_TICKS, Board, BoardConfig
from kernsim.buffers import BufferWindow

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


# --- a busy UART: bytes moved in one batch per clock step -----------------

def _send_txdata_between_transfers(board):
    """Make the board write one to three bytes to TXDATA at the first loop
    step after each DMA transfer ends. That step falls on the same tick
    under both runners, so the traces must still match."""
    uart, loop_step, out = board.chip.uart, board.kernel.loop_step, board.trace.out
    # The trace text read so far, the bytes sent in it (its uart_tx
    # lines), and the bytes sent at the last TXDATA write.
    read = sent = seen = 0

    def count_sent():
        nonlocal read, sent
        out.seek(read)
        sent += out.read().count('"kind":"uart_tx"')
        read = out.tell()

    def step():
        nonlocal seen
        count_sent()
        if not uart.busy and sent != seen:
            for i in range(1 + sent % 3):
                uart.regs.write_reg("TXDATA", (sent + i) & 0xFF)
                count_sent()
            seen = sent
        return loop_step()

    board.kernel.loop_step = step
    return board


def _uart_heavy_app(rng, index, buffer_size):
    main = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            # Soon enough to fall inside a transfer or on its last tick.
            main.append(_sleep(rng.randint(1, 2 * buffer_size + 20)))
        size = rng.randint(1, buffer_size)
        main.extend(_console_write(bytes(rng.randrange(256) for _ in range(size))))
    return script_source(main, {"on_alarm": [], "on_tx": []}, 1024,
                         name=f"tx{index}")


@pytest.mark.parametrize("seed", range(16))
def test_uart_heavy_boards_match_per_tick_stepper(seed):
    rng = random.Random(f"uart:{seed}")
    buffer_size = rng.randint(1, 300)
    cfg = minimal_board_dict(
        loader=rng.choice(("sync", "async")),
        peripherals={"alarm": {"irq": 0},
                     "uart": {"irq": 1, "bytes_per_tick": rng.randint(1, 5)},
                     "hashengine": {"irq": 2, "chunk_bytes": rng.choice((1, 64))}},
        capsules=[{"name": "alarm_driver", "type": "alarm", "driver_id": 0},
                  {"name": "console", "type": "console", "driver_id": 1,
                   "buffer_size": buffer_size}],
        capabilities={})
    sources = [(f"tx{i}", _uart_heavy_app(rng, i, buffer_size))
               for i in range(rng.randint(1, 3))]
    code, trace = _assert_same(
        lambda: _send_txdata_between_transfers(Board.from_dict(cfg)),
        sources, DEFAULT_MAX_TICKS)
    assert trace.count(b'"kind":"uart_tx"') > 0


def _hw_transfers(board, lengths):
    """Drive the UART of a board without a console: at the first loop step
    the UART is idle, start the next transfer of ``lengths`` (0 is an empty
    one) after a TXDATA write, and take each completion in its IRQ."""
    uart, loop_step = board.chip.uart, board.kernel.loop_step
    board.chip.irqc.set_handler(1, uart.take_completion)
    todo = list(lengths)

    def step():
        if todo and not uart.busy:
            uart.regs.write_reg("TXDATA", len(todo))
            uart.start_tx(BufferWindow(bytes(i % 251 for i in range(todo.pop(0)))))
        return loop_step()

    board.kernel.loop_step = step
    return board


@pytest.mark.parametrize("bytes_per_tick", [1, 2, 5])
def test_empty_and_raw_uart_transfers_match_per_tick_stepper(bytes_per_tick):
    cfg = minimal_board_dict(
        peripherals={"alarm": {"irq": 0},
                     "uart": {"irq": 1, "bytes_per_tick": bytes_per_tick}},
        capsules=[{"name": "alarm_driver", "type": "alarm", "driver_id": 0}],
        capabilities={})
    sleeper = script_source([_sleep(7), _sleep(40), {"op": "halt"}],
                            {"on_alarm": []})
    # 600 bytes span more than two of the trace's write chunks.
    lengths = [0, 5, 0, 0, 23, 1, 0, 64, 600]
    code, trace = _assert_same(lambda: _hw_transfers(Board.from_dict(cfg), lengths),
                               [("sleeper", sleeper)], DEFAULT_MAX_TICKS)
    assert code == 0
    assert trace.count(b'"kind":"uart_tx"') == sum(lengths) + len(lengths)
    assert trace.count(b'"actor":"hw:uart","kind":"irq_raised"') == len(lengths)


def _one_transfer_and_a_sleeper(deadline, bytes_per_tick):
    cfg = minimal_board_dict(
        peripherals={"alarm": {"irq": 0},
                     "uart": {"irq": 1, "bytes_per_tick": bytes_per_tick}},
        capsules=[{"name": "alarm_driver", "type": "alarm", "driver_id": 0},
                  {"name": "console", "type": "console", "driver_id": 1,
                   "buffer_size": 200}],
        capabilities={})
    sources = [("tx", script_source(_console_write(bytes(range(200))),
                                    {"on_tx": []}, 1024, name="tx")),
               ("sleeper", script_source([_sleep(deadline), {"op": "halt"}],
                                         {"on_alarm": []}, name="sleeper"))]
    return lambda: Board.from_dict(cfg), sources


@pytest.mark.parametrize("bytes_per_tick", [1, 3])
@pytest.mark.parametrize("where", ["inside", "last"])
def test_alarm_match_inside_or_at_the_end_of_a_transfer_matches(bytes_per_tick,
                                                                 where):
    # A first run with a far deadline finds the ticks the transfer spans;
    # the deadline does not move them.
    make_board, sources = _one_transfer_and_a_sleeper(5000, bytes_per_tick)
    board = make_board()
    board.finalize()
    for name, source in sources:
        board.load_app(source, name)
    board.run()
    sent = [e["tick"] for e in map(json.loads, board.trace.out.getvalue().splitlines())
            if e["kind"] == "uart_tx"]
    first, last = sent[0], sent[-1]
    assert last - first >= 2
    deadline = (first + last) // 2 if where == "inside" else last
    make_board, sources = _one_transfer_and_a_sleeper(deadline, bytes_per_tick)
    code, trace = _assert_same(make_board, sources, DEFAULT_MAX_TICKS)
    assert code == 0
    at_deadline = [(e["actor"], e["kind"]) for e in map(json.loads, trace.splitlines())
                   if e["tick"] == deadline and e["actor"].startswith("hw:")]
    moved = bytes_per_tick if where == "inside" else 200 - (last - first) * bytes_per_tick
    assert at_deadline[:moved + 1] == ([("hw:alarm", "irq_raised")]
                                       + [("hw:uart", "uart_tx")] * moved)
    assert (("hw:uart", "irq_raised") in at_deadline) == (where == "last")


def test_event_order_on_a_tick_shared_by_an_alarm_match_and_the_last_byte():
    # bytes_per_tick 2 sends "hello" on ticks 1, 1, 2, 2 and 3; the alarm
    # matches on tick 3. That tick logs the alarm's IRQ, then the last
    # byte, then the UART's completion IRQ.
    events = [
        (1, "uart", "uart_tx", '{"byte":104}'),
        (1, "uart", "uart_tx", '{"byte":101}'),
        (2, "uart", "uart_tx", '{"byte":108}'),
        (2, "uart", "uart_tx", '{"byte":108}'),
        (3, "alarm", "irq_raised", '{"irq":0}'),
        (3, "uart", "uart_tx", '{"byte":111}'),
        (3, "uart", "irq_raised", '{"irq":1}'),
    ]
    for steps in ([3], [1, 1, 1], [2, 1], [1, 2]):
        board = Board.from_dict(minimal_board_dict(peripherals={
            "alarm": {"irq": 0}, "uart": {"irq": 1, "bytes_per_tick": 2}}))
        chip = board.chip
        chip.alarm.regs.write_reg("COMPARE", 3)
        chip.alarm.regs.field_set("CTRL", "ENABLE", 1)
        chip.alarm.regs.field_set("CTRL", "IRQEN", 1)
        chip.uart.start_tx(BufferWindow(bytearray(b"hello")))
        before = board.trace.out.getvalue()
        for n in steps:
            chip.tick(n)
        # The board logged its boot events first.
        expected = "".join(
            f'{{"seq":{seq},"tick":{tick},"actor":"hw:{actor}","kind":"{kind}",'
            f'"payload":{payload}}}\n'
            for seq, (tick, actor, kind, payload)
            in enumerate(events, start=before.count("\n")))
        assert board.trace.out.getvalue() == before + expected, steps
