import json
import random
from pathlib import Path

import pytest

from kernsim.audit import parse_trace
from kernsim.board import Board, BoardConfig
from kernsim.capsules import MAX_BUFFER_SIZE
from kernsim.hw import (
    AlarmHw,
    Chip,
    HashEngineHw,
    InterruptController,
    SimClock,
    UartHw,
    ticks_until,
)
from kernsim.loader import fnv1a64
from kernsim.regmap import load_register_map
from kernsim.trace import SERIES_CHUNK, TraceLog

from conftest import minimal_board_dict, script_source, trace_events, uart_bytes

MAPS_DIR = Path(__file__).resolve().parents[1] / "src" / "kernsim" / "maps"


def _spec(name):
    return load_register_map(json.loads((MAPS_DIR / f"{name}.json").read_text()))


def make_alarm(initial_count=0):
    irqc = InterruptController(TraceLog())
    hw = AlarmHw(_spec("alarm"), irqc, 0, initial_count=initial_count)
    return hw, irqc


def received(periph):
    """Each completion periph's client is handed, as a tuple of its arguments."""
    got = []
    periph.client = lambda *completion: got.append(completion)
    return got


def test_ticks_until_half_ring():
    # 0 once the deadline has passed, on it or up to half the ring behind
    assert ticks_until(100, 100) == 0
    assert ticks_until(101, 100) == 0
    assert ticks_until(99, 100) == 1
    assert ticks_until(0, 2 ** 31) == 2 ** 31  # the farthest still to come
    assert ticks_until(0, 2 ** 31 + 1) == 0
    # wraparound: deadline just before the wrap, now just after
    assert ticks_until(5, 2 ** 32 - 5) == 0
    assert ticks_until(2 ** 32 - 5, 5) == 10


def test_alarm_fires_when_count_passes_compare():
    hw, irqc = make_alarm()
    hw.regs.write_reg("COMPARE", 3)
    hw.regs.field_set("CTRL", "ENABLE", 1)
    hw.regs.field_set("CTRL", "IRQEN", 1)
    for _ in range(2):
        hw.tick()
    assert not irqc.any_pending()
    hw.tick()
    assert irqc.any_pending()
    assert hw.count == 3


def test_alarm_fires_once_per_compare_value():
    hw, irqc = make_alarm()
    hw.regs.write_reg("COMPARE", 1)
    hw.regs.field_set("CTRL", "ENABLE", 1)
    hw.regs.field_set("CTRL", "IRQEN", 1)
    for _ in range(10):
        hw.tick()
    line = irqc.lines[0]
    assert line.pending
    line.pending = False
    for _ in range(10):
        hw.tick()
    assert not line.pending  # latched until COMPARE is rewritten


def test_alarm_immediate_fire_on_passed_compare_write():
    hw, irqc = make_alarm(initial_count=100)
    hw.regs.field_set("CTRL", "ENABLE", 1)
    hw.regs.field_set("CTRL", "IRQEN", 1)
    irqc.lines[0].pending = False
    hw.regs.write_reg("COMPARE", 100)  # deadline == now
    assert irqc.lines[0].pending


def test_alarm_count_free_runs_and_never_resets():
    hw, _ = make_alarm()
    hw.regs.write_reg("COMPARE", 2)
    hw.regs.field_set("CTRL", "ENABLE", 1)
    hw.regs.field_set("CTRL", "IRQEN", 1)
    for _ in range(5):
        hw.tick()
    assert hw.count == 5


def test_uart_one_byte_per_tick_and_completion_irq():
    irqc = InterruptController(TraceLog())
    uart = UartHw(_spec("uart"), irqc, 1, TraceLog())
    got = received(uart)
    buffer = bytearray(b"hello, world")
    assert uart.regs.field_get("STATUS", "TXBUSY") == 0
    uart.transmit_buffer(buffer, 5)  # the first 5 bytes, not the whole buffer
    assert uart.busy
    assert uart.regs.read_reg("TXLEN") == 5
    for _ in range(4):
        uart.tick()
    assert not irqc.any_pending()
    assert uart_bytes(uart.trace) == b"hell"
    uart.tick()
    assert irqc.any_pending()
    assert uart_bytes(uart.trace) == b"hello"
    assert got == [] and irqc.service() == 1
    [(returned, count)] = got
    assert returned is buffer and count == 5
    assert not uart.busy
    assert uart.regs.field_get("STATUS", "TXBUSY") == 0
    assert uart.regs.read_reg("TXLEN") == 5


def test_a_second_transfer_on_a_busy_uart_is_refused_and_the_first_goes_on():
    irqc = InterruptController(TraceLog())
    uart = UartHw(_spec("uart"), irqc, 1, TraceLog())
    got = received(uart)
    first, second = bytearray(b"abc"), bytearray(b"wxyz")
    uart.transmit_buffer(first, 3)
    uart.tick()
    with pytest.raises(RuntimeError):
        uart.transmit_buffer(second, 4)
    assert uart.regs.read_reg("TXLEN") == 3
    assert uart.regs.field_get("STATUS", "TXBUSY") == 1
    uart.tick(2)
    assert uart_bytes(uart.trace) == b"abc"
    assert irqc.service() == 1
    [(returned, count)] = got
    assert returned is first and count == 3
    assert first == b"abc" and second == b"wxyz"
    assert not uart.busy and irqc.service() == 0 and len(got) == 1


@pytest.mark.parametrize("length", [-1, 4])
def test_a_transfer_outside_its_buffer_is_refused(length):
    irqc = InterruptController(TraceLog())
    uart = UartHw(_spec("uart"), irqc, 1, TraceLog())
    with pytest.raises(ValueError):
        uart.transmit_buffer(bytearray(b"abc"), length)
    assert not uart.busy and uart.regs.read_reg("TXLEN") == 0


def test_uart_txdata_register_emits_single_byte():
    irqc = InterruptController(TraceLog())
    uart = UartHw(_spec("uart"), irqc, 1, TraceLog())
    uart.regs.write_reg("TXDATA", 0x41)
    assert uart_bytes(uart.trace) == b"A"


def test_hash_engine_timing_is_ceil_len_over_64():
    irqc = InterruptController(TraceLog())
    engine = HashEngineHw(_spec("hashengine"), irqc, 2)
    got = received(engine)
    payload = b"x" * 130  # ceil(130/64) = 3 ticks
    engine.submit(payload, "job", fnv1a64(payload))
    assert engine.regs.read_reg("LEN") == 130
    for _ in range(2):
        engine.tick()
    assert not irqc.any_pending()
    engine.tick()
    assert irqc.any_pending() and irqc.service() == 1
    [(tag, digest)] = got
    assert tag == "job"
    assert digest == fnv1a64(payload)
    assert (engine.regs.read_reg("DIGEST_HI") << 32
            | engine.regs.read_reg("DIGEST_LO")) == digest
    assert not engine.busy
    assert engine.regs.field_get("STATUS", "BUSY") == 0
    assert engine.regs.field_get("STATUS", "DONE") == 1
    engine.submit(b"", "next", 0)  # a new job clears DONE
    assert engine.regs.field_get("STATUS", "BUSY") == 1
    assert engine.regs.field_get("STATUS", "DONE") == 0
    assert engine.regs.read_reg("LEN") == 0


def test_hash_engine_digest_hidden_until_done():
    irqc = InterruptController(TraceLog())
    engine = HashEngineHw(_spec("hashengine"), irqc, 2)
    engine.submit(b"y" * 100, 1, 0x1234_5678_9ABC_DEF0)
    assert engine.regs.read_reg("DIGEST_LO") == 0
    assert engine.regs.read_reg("DIGEST_HI") == 0
    assert engine.regs.field_get("STATUS", "BUSY") == 1
    assert engine.regs.field_get("STATUS", "DONE") == 0
    engine.tick()
    assert engine.regs.read_reg("DIGEST_LO") == 0
    engine.tick()
    assert engine.regs.read_reg("DIGEST_LO") == 0x9ABC_DEF0
    assert engine.regs.read_reg("DIGEST_HI") == 0x1234_5678


def test_idle_tick_raises_nothing():
    clock = SimClock()
    irqc = InterruptController(TraceLog())
    chip = Chip(clock, irqc, AlarmHw(_spec("alarm"), irqc, 0),
                UartHw(_spec("uart"), irqc, 1, TraceLog()),
                HashEngineHw(_spec("hashengine"), irqc, 2))
    chip.tick(1)
    assert not irqc.any_pending()
    assert chip.ticks_until_event() is None
    assert clock.now == 1


def test_interrupt_priority_is_ascending_irq_id():
    irqc = InterruptController(TraceLog())
    order = []
    for irq_id, name in ((5, "b"), (1, "a")):
        irqc.add_line(irq_id, name, lambda irq_id=irq_id: order.append(irq_id))
    irqc.raise_irq(5)
    irqc.raise_irq(1)
    assert irqc.service() == 2
    assert order == [1, 5]


def test_irq_stays_pending_until_handled_and_clears_on_delivery():
    irqc = InterruptController(TraceLog())
    fired = []
    irqc.add_line(0, "a", lambda: fired.append(0))
    assert irqc.service() == 0
    irqc.raise_irq(0)
    assert irqc.any_pending()
    assert irqc.service() == 1
    assert not irqc.any_pending()
    assert fired == [0]


def test_register_history_is_deterministic_across_runs():
    def run():
        history = []
        hw, irqc = make_alarm()
        hw.regs.write_reg("COMPARE", 4)
        hw.regs.field_set("CTRL", "ENABLE", 1)
        hw.regs.field_set("CTRL", "IRQEN", 1)
        for _ in range(8):
            hw.tick()
            history.append((hw.count, hw.regs.hw_get("COMPARE"),
                            hw.regs.hw_get("CTRL"), irqc.any_pending()))
        return history

    assert run() == run()


# --- next-event advance ----------------------------------------------------------


def _arm(hw, compare):
    hw.regs.write_reg("COMPARE", compare)
    hw.regs.field_set("CTRL", "ENABLE", 1)
    hw.regs.field_set("CTRL", "IRQEN", 1)


def test_alarm_ticks_until_event():
    hw, irqc = make_alarm()
    assert hw.ticks_until_event() is None
    _arm(hw, 10)
    assert hw.ticks_until_event() == 10
    hw.tick(4)
    assert hw.ticks_until_event() == 6
    hw.tick(6)
    assert irqc.any_pending()
    assert hw.ticks_until_event() is None  # fired: latched until rewritten


def test_alarm_ticks_until_event_across_the_wrap():
    hw, irqc = make_alarm(initial_count=2 ** 32 - 5)
    _arm(hw, 3)
    assert hw.ticks_until_event() == 8
    hw.tick(7)
    assert hw.count == 2 and not irqc.any_pending()
    hw.tick(1)
    assert hw.count == 3 and irqc.any_pending()


def test_alarm_compare_written_to_a_passed_value_fires_at_once():
    hw, irqc = make_alarm(initial_count=100)
    _arm(hw, 200)
    assert hw.ticks_until_event() == 100
    hw.regs.write_reg("COMPARE", 40)  # already passed
    assert irqc.any_pending()
    assert hw.ticks_until_event() is None


def test_uart_ticks_until_event():
    irqc = InterruptController(TraceLog())
    uart = UartHw(_spec("uart"), irqc, 1, TraceLog(), bytes_per_tick=2)
    assert uart.ticks_until_event() is None
    uart.transmit_buffer(bytearray(b"abc"), 3)
    assert uart.ticks_until_event() == 2
    uart.tick()
    assert uart.ticks_until_event() == 1 and not irqc.any_pending()
    uart.tick()
    assert uart.ticks_until_event() is None and irqc.any_pending()


def test_hash_engine_ticks_until_event():
    irqc = InterruptController(TraceLog())
    engine = HashEngineHw(_spec("hashengine"), irqc, 2)
    assert engine.ticks_until_event() is None
    engine.submit(b"x" * 130, "job", 0)
    assert engine.ticks_until_event() == 3
    engine.tick(2)
    assert engine.ticks_until_event() == 1 and not irqc.any_pending()
    engine.tick(1)
    assert engine.ticks_until_event() is None and irqc.any_pending()


def test_hash_engine_zero_length_payload_fires_after_one_tick():
    irqc = InterruptController(TraceLog())
    engine = HashEngineHw(_spec("hashengine"), irqc, 2)
    got = received(engine)
    engine.submit(b"", "empty", fnv1a64(b""))
    assert engine.ticks_until_event() == 1
    engine.tick()
    assert irqc.any_pending() and irqc.service() == 1
    assert got == [("empty", fnv1a64(b""))]


def make_chip(initial_count=0, bytes_per_tick=1):
    clock = SimClock()
    trace = TraceLog(clock)
    irqc = InterruptController(trace)
    chip = Chip(clock, irqc,
                AlarmHw(_spec("alarm"), irqc, 0, initial_count=initial_count),
                UartHw(_spec("uart"), irqc, 1, bytes_per_tick=bytes_per_tick,
                       trace=trace),
                HashEngineHw(_spec("hashengine"), irqc, 2))
    for periph in (chip.alarm, chip.uart, chip.hashengine):
        periph.client = lambda *completion: None
    return chip, trace


def test_chip_has_a_next_event_exactly_while_a_peripheral_has_work():
    # ticks_until_event() is the chip's only work test; the UART's and the
    # hash engine's busy, which Chip.tick and the loader guard on, agree.
    chip, _ = make_chip()
    alarm, uart, engine = chip.alarm, chip.uart, chip.hashengine
    seen = []

    def check():
        assert alarm.armed == (alarm.ticks_until_event() is not None)
        for periph in (uart, engine):
            assert periph.busy == (periph.ticks_until_event() is not None)
        seen.append(chip.ticks_until_event() is not None)
        assert seen[-1] == (alarm.armed or uart.busy or engine.busy)

    check()  # idle
    alarm.regs.write_reg("COMPARE", 10)
    check()  # a compare value, but disabled
    alarm.regs.field_set("CTRL", "ENABLE", 1)
    check()  # enabled without its IRQ
    alarm.regs.field_set("CTRL", "IRQEN", 1)
    check()  # armed
    chip.tick(10)
    check()  # fired, latched until COMPARE is rewritten
    uart.transmit_buffer(bytearray(b"hi"), 2)
    check()  # a transfer in flight
    chip.tick(2)
    check()  # the transfer done
    engine.submit(b"x" * 100, "job", 0)
    alarm.regs.write_reg("COMPARE", 100)
    check()  # a hash job in flight and the alarm armed again
    chip.tick(2)
    check()  # the hash job done, the alarm still armed
    assert seen == [False, False, False, True, False, True, False, True, True]


def test_lines_added_out_of_order_are_serviced_in_ascending_irq_id():
    irqc = InterruptController(TraceLog())
    order = []

    def handler(irq_id):
        order.append(irq_id)
        if irq_id == 3:  # raises a line behind it and one ahead of it
            irqc.raise_irq(1)
            irqc.raise_irq(5)

    for irq_id in (5, 1, 9, 3):
        irqc.add_line(irq_id, f"p{irq_id}", lambda irq_id=irq_id: handler(irq_id))
    irqc.raise_irq(9)
    irqc.raise_irq(3)
    assert irqc.service() == 3
    assert order == [3, 5, 9]
    assert irqc.service() == 1
    assert order == [3, 5, 9, 1]
    assert not irqc.any_pending()


def _chip_state(chip, trace):
    periphs = (chip.alarm, chip.uart, chip.hashengine)
    return (chip.clock.now, [dict(p.regs.values) for p in periphs],
            trace.out.getvalue())


def test_chip_tick_n_matches_n_single_ticks():
    rng = random.Random(7)
    for _ in range(30):
        initial_count = rng.choice((0, 2 ** 32 - rng.randint(1, 500)))
        chips = [make_chip(initial_count) for _ in range(2)]
        compare = (initial_count + rng.randint(1, 800)) & 0xFFFFFFFF
        payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 5000)))
        for chip, _ in chips:
            _arm(chip.alarm, compare)
            chip.hashengine.submit(payload, "job", fnv1a64(payload))
        (fast, fast_trace), (slow, slow_trace) = chips
        while fast.ticks_until_event() is not None:
            assert slow.ticks_until_event() == fast.ticks_until_event()
            n = rng.randint(1, fast.ticks_until_event())
            fast.tick(n)
            for _ in range(n):
                slow.tick(1)
            assert _chip_state(fast, fast_trace) == _chip_state(slow, slow_trace)
            fast.irqc.service()
            slow.irqc.service()
        assert slow.ticks_until_event() is None
        assert fast_trace.out.getvalue().encode("utf-8").count(b"irq_raised") == 2


def test_chip_tick_rejects_stepping_past_the_next_event():
    chip, _ = make_chip()
    _arm(chip.alarm, 50)
    assert chip.ticks_until_event() == 50
    with pytest.raises(ValueError):
        chip.tick(51)
    with pytest.raises(ValueError):
        chip.tick(0)
    chip.uart.transmit_buffer(bytearray(b"hi"), 2)
    assert chip.ticks_until_event() == 2
    with pytest.raises(ValueError):
        chip.tick(3)
    assert chip.clock.now == 0
    chip.tick(2)
    assert chip.clock.now == 2


@pytest.mark.parametrize("bytes_per_tick", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("length", [0, 1, 7, 64])
def test_chip_tick_n_through_a_busy_uart_matches_n_single_ticks(bytes_per_tick,
                                                                length):
    payload = bytes(range(length))
    ticks = max(1, -(-length // bytes_per_tick))
    chips = [make_chip(bytes_per_tick=bytes_per_tick) for _ in range(2)]
    got = received(chips[0][0].uart)
    for chip, _ in chips:
        chip.uart.transmit_buffer(bytearray(payload), length)
        _arm(chip.alarm, ticks)  # matches on the tick the transfer ends
    (fast, fast_trace), (slow, slow_trace) = chips
    assert fast.ticks_until_event() == ticks
    fast.tick(ticks)
    for _ in range(ticks):
        slow.tick(1)
    assert _chip_state(fast, fast_trace) == _chip_state(slow, slow_trace)
    events = parse_trace(fast_trace.out.getvalue().encode("utf-8"))
    sent = [(e["tick"], e["payload"]["byte"]) for e in events
            if e["kind"] == "uart_tx"]
    assert sent == [(1 + i // bytes_per_tick, byte)
                    for i, byte in enumerate(payload)]
    assert [(e["tick"], e["actor"]) for e in events
            if e["kind"] == "irq_raised"] == [(ticks, "hw:alarm"),
                                              (ticks, "hw:uart")]
    assert fast.irqc.service() == 2
    assert [count for _, count in got] == [length]


def test_idle_chip_takes_any_step():
    chip, _ = make_chip()
    assert chip.ticks_until_event() is None
    chip.tick(10 ** 9)
    assert chip.clock.now == 10 ** 9 and not chip.irqc.any_pending()


def test_long_sleep_needs_loop_steps_per_event_not_per_tick():
    cfg = minimal_board_dict(peripherals={"alarm": {"irq": 0}}, capabilities={},
                             capsules=[{"name": "alarm_driver", "type": "alarm",
                                        "driver_id": 0}])
    board = Board.from_dict(cfg)
    board.load_app(script_source(
        [{"op": "sync_command", "driver": 0, "cmd": 1, "args": [100_000, 0],
          "fn": "on_alarm"}, {"op": "halt"}], {"on_alarm": []}))
    steps = []
    loop_step = board.kernel.loop_step
    board.kernel.loop_step = lambda: steps.append(1) or loop_step()
    assert board.run(200_000) == 0
    runs = [e.tick for e in trace_events(board) if e.kind == "upcall_run"]
    assert runs == [100_000]
    assert trace_events(board)[-1].kind == "quiescent"
    assert len(steps) < 20


def _console_board(size, out=None):
    """A board whose one process sends ``size`` bytes of "Z" in one
    console transfer and waits for it to finish."""
    cfg = minimal_board_dict(ram_size=max(65536, 4 * size + 8192),
                             capsules=[{"name": "console", "type": "console",
                                        "driver_id": 1, "buffer_size": size}],
                             capabilities={})
    board = Board(BoardConfig.from_dict(cfg), out=out)
    board.load_app(script_source([
        {"op": "write_local", "offset": 0, "data": "5a" * size},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 1, "buf": 0,
                                   "base": 0, "len": size}},
        {"op": "sync_command", "driver": 1, "cmd": 1, "args": [size, 0],
         "fn": "on_tx_done"},
        {"op": "halt"}], {"on_tx_done": []}, min_memory=max(8192, 2 * size)))
    return board


def test_console_transfer_needs_loop_steps_per_transfer_not_per_byte():
    board = _console_board(4096)
    steps = []
    loop_step = board.kernel.loop_step
    board.kernel.loop_step = lambda: steps.append(1) or loop_step()
    assert board.run(10_000) == 0
    assert uart_bytes(board.trace) == b"Z" * 4096
    events = trace_events(board)
    assert sum(e.kind == "uart_tx" for e in events) == 4096
    assert sum(e.kind == "upcall_run" for e in events) == 1
    assert events[-1].kind == "quiescent"
    assert len(steps) < 20


def test_console_transfer_costs_python_calls_per_transfer_not_per_byte(monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TraceLog, "log", counted("log", TraceLog.log))
    monkeypatch.setattr(UartHw, "tick", counted("uart.tick", UartHw.tick))
    counts = []
    for size in (64, 4096):
        calls.clear()
        board = _console_board(size)
        assert board.run(10_000) == 0
        assert uart_bytes(board.trace) == b"Z" * size
        counts.append(dict(calls))
    assert counts[0] == counts[1]


class _WriteSizes:
    """A trace stream that keeps only the size of each write."""

    def __init__(self):
        self.writes = []
        self.uart_tx = 0  # the uart_tx lines written

    def write(self, text):
        self.writes.append((len(text), text.count("\n")))
        self.uart_tx += text.count('"kind":"uart_tx"')


def test_a_64k_transfer_streams_in_bounded_writes():
    out = _WriteSizes()
    board = _console_board(MAX_BUFFER_SIZE, out)
    assert board.run(10 * MAX_BUFFER_SIZE) == 0
    assert out.uart_tx == MAX_BUFFER_SIZE
    # Every line is far shorter than 200 bytes, so no write may hold more
    # than one chunk's worth of lines.
    assert max(lines for _, lines in out.writes) == SERIES_CHUNK
    assert max(size for size, _ in out.writes) < SERIES_CHUNK * 200
    assert sum(lines for _, lines in out.writes) > MAX_BUFFER_SIZE
