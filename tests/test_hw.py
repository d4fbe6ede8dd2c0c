import json
import random
from pathlib import Path

import pytest

from kernsim.audit import parse_trace
from kernsim.board import Board
from kernsim.buffers import BufferWindow
from kernsim.hw import (
    AlarmHw,
    Chip,
    HashEngineHw,
    InterruptController,
    SimClock,
    UartHw,
    tick_passed,
)
from kernsim.loader import fnv1a64
from kernsim.regmap import load_register_map
from kernsim.trace import TraceLog

from conftest import minimal_board_dict, script_source, trace_events

MAPS_DIR = Path(__file__).resolve().parents[1] / "src" / "kernsim" / "maps"


def _spec(name):
    return load_register_map(json.loads((MAPS_DIR / f"{name}.json").read_text()))


def make_alarm(initial_count=0):
    irqc = InterruptController()
    hw = AlarmHw(_spec("alarm"), irqc, 0, initial_count=initial_count)
    return hw, irqc


def test_tick_passed_half_ring():
    assert tick_passed(100, 100)
    assert tick_passed(101, 100)
    assert not tick_passed(99, 100)
    # wraparound: deadline just before the wrap, now just after
    assert tick_passed(5, 2 ** 32 - 5)
    assert not tick_passed(2 ** 32 - 5, 5)


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
    irqc = InterruptController()
    uart = UartHw(_spec("uart"), irqc, 1)
    window = BufferWindow(bytearray(b"hello"))
    uart.start_tx(window)
    assert uart.busy
    for _ in range(4):
        uart.tick()
    assert not irqc.any_pending()
    assert bytes(uart.output) == b"hell"
    uart.tick()
    assert irqc.any_pending()
    assert bytes(uart.output) == b"hello"
    returned, count = uart.take_completion()
    assert returned is window and count == 5
    assert not uart.busy


def test_uart_txdata_register_emits_single_byte():
    irqc = InterruptController()
    uart = UartHw(_spec("uart"), irqc, 1)
    uart.regs.write_reg("TXDATA", 0x41)
    assert bytes(uart.output) == b"A"


def test_hash_engine_timing_is_ceil_len_over_64():
    irqc = InterruptController()
    engine = HashEngineHw(_spec("hashengine"), irqc, 2, digest_fn=fnv1a64)
    payload = b"x" * 130  # ceil(130/64) = 3 ticks
    engine.submit(payload, "job")
    for _ in range(2):
        engine.tick()
    assert not irqc.any_pending()
    engine.tick()
    assert irqc.any_pending()
    tag, digest = engine.take_completion()
    assert tag == "job"
    assert digest == fnv1a64(payload)
    assert (engine.regs.read_reg("DIGEST_HI") << 32
            | engine.regs.read_reg("DIGEST_LO")) == digest
    assert not engine.busy


def test_hash_engine_digest_hidden_until_done():
    irqc = InterruptController()
    engine = HashEngineHw(_spec("hashengine"), irqc, 2, digest_fn=fnv1a64)
    engine.submit(b"y" * 100, 1)
    assert engine.regs.read_reg("DIGEST_LO") == 0
    assert engine.regs.field_get("STATUS", "BUSY") == 1


def test_idle_tick_raises_nothing():
    clock = SimClock()
    irqc = InterruptController()
    chip = Chip(clock, irqc, AlarmHw(_spec("alarm"), irqc, 0),
                UartHw(_spec("uart"), irqc, 1),
                HashEngineHw(_spec("hashengine"), irqc, 2, digest_fn=fnv1a64))
    chip.tick(1)
    assert not irqc.any_pending()
    assert not chip.busy()
    assert clock.now == 1


def test_interrupt_priority_is_ascending_irq_id():
    irqc = InterruptController()
    order = []
    for irq_id, name in ((5, "b"), (1, "a")):
        irqc.add_line(irq_id, name)
        irqc.set_handler(irq_id, lambda irq_id=irq_id: order.append(irq_id))
    irqc.raise_irq(5)
    irqc.raise_irq(1)
    assert irqc.service() == 2
    assert order == [1, 5]


def test_irq_stays_pending_until_handled_and_clears_on_delivery():
    irqc = InterruptController()
    fired = []
    irqc.add_line(0, "a")
    irqc.raise_irq(0)
    assert irqc.service() == 0
    assert irqc.any_pending()
    irqc.set_handler(0, lambda: fired.append(0))
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
    irqc = InterruptController()
    uart = UartHw(_spec("uart"), irqc, 1, bytes_per_tick=2)
    assert uart.ticks_until_event() is None
    uart.start_tx(BufferWindow(bytearray(b"abc")))
    assert uart.ticks_until_event() == 2
    uart.tick()
    assert uart.ticks_until_event() == 1 and not irqc.any_pending()
    uart.tick()
    assert uart.ticks_until_event() is None and irqc.any_pending()


def test_hash_engine_ticks_until_event():
    irqc = InterruptController()
    engine = HashEngineHw(_spec("hashengine"), irqc, 2, digest_fn=fnv1a64)
    assert engine.ticks_until_event() is None
    engine.submit(b"x" * 130, "job")
    assert engine.ticks_until_event() == 3
    engine.tick(2)
    assert engine.ticks_until_event() == 1 and not irqc.any_pending()
    engine.tick(1)
    assert engine.ticks_until_event() is None and irqc.any_pending()


def test_hash_engine_zero_length_payload_fires_after_one_tick():
    irqc = InterruptController()
    engine = HashEngineHw(_spec("hashengine"), irqc, 2, digest_fn=fnv1a64)
    engine.submit(b"", "empty")
    assert engine.ticks_until_event() == 1
    engine.tick()
    assert irqc.any_pending()
    assert engine.take_completion() == ("empty", fnv1a64(b""))


def make_chip(initial_count=0, bytes_per_tick=1):
    clock = SimClock()
    trace = TraceLog(lambda: clock.now)
    irqc = InterruptController(trace)
    chip = Chip(clock, irqc,
                AlarmHw(_spec("alarm"), irqc, 0, initial_count=initial_count),
                UartHw(_spec("uart"), irqc, 1, bytes_per_tick=bytes_per_tick,
                       trace=trace),
                HashEngineHw(_spec("hashengine"), irqc, 2, digest_fn=fnv1a64))
    for line in irqc.lines.values():
        line.handler = lambda: None
    return chip, trace


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
            chip.hashengine.submit(payload, "job")
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
    chip.uart.start_tx(BufferWindow(bytearray(b"hi")))
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
    for chip, _ in chips:
        chip.uart.start_tx(BufferWindow(bytearray(payload)))
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
    assert fast.uart.take_completion()[1] == length


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


def test_console_transfer_needs_loop_steps_per_transfer_not_per_byte():
    cfg = minimal_board_dict(capsules=[{"name": "console", "type": "console",
                                        "driver_id": 1, "buffer_size": 4096}],
                             capabilities={})
    board = Board.from_dict(cfg)
    board.load_app(script_source([
        {"op": "write_local", "offset": 0, "data": "5a" * 4096},
        {"op": "syscall", "call": {"class": "ro_allow", "driver": 1, "buf": 0,
                                   "base": 0, "len": 4096}},
        {"op": "sync_command", "driver": 1, "cmd": 1, "args": [4096, 0],
         "fn": "on_tx_done"},
        {"op": "halt"}], {"on_tx_done": []}, min_memory=8192))
    steps = []
    loop_step = board.kernel.loop_step
    board.kernel.loop_step = lambda: steps.append(1) or loop_step()
    assert board.run(10_000) == 0
    assert bytes(board.chip.uart.output) == b"Z" * 4096
    events = trace_events(board)
    assert sum(e.kind == "uart_tx" for e in events) == 4096
    assert sum(e.kind == "upcall_run" for e in events) == 1
    assert events[-1].kind == "quiescent"
    assert len(steps) < 20
