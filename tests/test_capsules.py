import json
from pathlib import Path

import pytest

from kernsim.buffers import BufferWindow
from kernsim.capsules import ConsoleDriver, validate_composition
from kernsim.hw import InterruptController, UartHw
from kernsim.regmap import load_register_map
from kernsim.trace import TraceLog

from conftest import uart_bytes

MAPS_DIR = Path(__file__).resolve().parents[1] / "src" / "kernsim" / "maps"
UART_SPEC = load_register_map(json.loads((MAPS_DIR / "uart.json").read_text()))


# --- composition -----------------------------------------------------------

def _layer(name, **annotations):
    """A capsule layer as a board file spells it."""
    return {"name": name, **annotations}


def test_configurable_provider_satisfies_any_requirement():
    layers = [
        _layer("spi_controller", provides={"cs_polarity": "configurable"}),
        _layer("spi_sensor", requires={"cs_polarity": "active_low"}),
    ]
    assert validate_composition(layers) == []


def test_polarity_mismatch_names_both_layers():
    layers = [
        _layer("spi_controller", provides={"cs_polarity": "active_high"}),
        _layer("spi_sensor", requires={"cs_polarity": "active_low"}),
    ]
    mismatches = validate_composition(layers)
    assert len(mismatches) == 1
    assert "spi_controller" in mismatches[0] and "spi_sensor" in mismatches[0]
    assert "cs_polarity" in mismatches[0]


def test_empty_stack_is_valid():
    assert validate_composition([]) == []


def test_missing_property_is_a_mismatch():
    layers = [
        _layer("base", provides={}),
        _layer("top", requires={"dma": "present"}),
    ]
    assert len(validate_composition(layers)) == 1


def test_bottom_layer_cannot_require():
    layers = [_layer("top", requires={"dma": "present"})]
    assert len(validate_composition(layers)) == 1


def test_buffer_size_below_declared_minimum():
    layers = [
        _layer("uart_pins", min_buffer_size=32),
        _layer("console", buffer_size=16),
    ]
    mismatches = validate_composition(layers)
    assert len(mismatches) == 1
    assert "uart_pins" in mismatches[0] and "console" in mismatches[0]
    layers[1]["buffer_size"] = 32
    assert validate_composition(layers) == []


def test_validation_matches_pairwise_brute_force():
    # Completeness: ok iff every adjacent pair satisfies by brute force.
    def brute_force_ok(layers):
        for i, layer in enumerate(layers):
            below = layers[i - 1] if i else None
            for prop, wanted in layer.get("requires", {}).items():
                have = below.get("provides", {}).get(prop) if below else None
                if have != wanted and have != "configurable":
                    return False
            if (below and "buffer_size" in layer and "min_buffer_size" in below
                    and layer["buffer_size"] < below["min_buffer_size"]):
                return False
        return True

    cases = []
    values = ["active_high", "active_low", "configurable"]
    for provided in values:
        for wanted in ["active_high", "active_low"]:
            cases.append([
                _layer("a", provides={"p": provided}),
                _layer("b", requires={"p": wanted}),
            ])
    for bufsize in (8, 16, 32):
        cases.append([_layer("a", min_buffer_size=16),
                      _layer("b", buffer_size=bufsize)])
    for layers in cases:
        assert (validate_composition(layers) == []) == brute_force_ok(layers)


# --- console over the uart -------------------------------------------------------

class _NullServices:
    def __init__(self):
        self.upcalls = []

    def schedule_upcall(self, pid, sub, args):
        self.upcalls.append((pid, sub, tuple(args)))
        return True


def make_console(buffer_size=64):
    irqc = InterruptController(TraceLog())
    uart = UartHw(UART_SPEC, irqc, 1, TraceLog())
    console = ConsoleDriver("console", 1, uart, buffer_size)
    console.attach(_NullServices())
    return console, uart, irqc


def test_console_write_round_trip_returns_same_window():
    console, uart, irqc = make_console()
    window = BufferWindow(bytearray(64))
    window.write(0, b"hi kernel")
    window.slice(0, 9)
    done = []
    assert console.write(window, lambda w, n: done.append((w, n)))
    for _ in range(9):
        uart.tick()
    irqc.set_handler(1, console.handle_interrupt)
    irqc.service()
    assert done and done[0][0] is window and done[0][1] == 9
    assert uart_bytes(uart.trace) == b"hi kernel"
    assert window.capacity == 64


def test_console_busy_while_pending_first_unaffected():
    console, uart, irqc = make_console()
    first = BufferWindow(bytearray(b"first"))
    second = BufferWindow(bytearray(b"second"))
    assert console.write(first, lambda w, n: None)
    assert not console.write(second, lambda w, n: None)
    for _ in range(5):
        uart.tick()
    assert uart_bytes(uart.trace) == b"first"


def test_sliced_window_sends_exactly_the_window():
    console, uart, irqc = make_console()
    window = BufferWindow(bytearray(b"abcdefgh" * 8))  # capacity 64
    window.slice(0, 3)
    done = []
    console.write(window, lambda w, n: done.append((w.capacity, n)))
    for _ in range(3):
        uart.tick()
    irqc.set_handler(1, console.handle_interrupt)
    irqc.service()
    assert uart_bytes(uart.trace) == b"abc"
    assert done == [(64, 3)]


def test_completion_never_runs_inside_start_call():
    # The completion is deferred to interrupt service, never the start call.
    console, uart, irqc = make_console()
    window = BufferWindow(bytearray(b"z"))
    ran = []
    started = console.write(window, lambda w, n: ran.append(n))
    assert started and ran == []
    uart.tick()
    assert ran == []  # raised the IRQ, but nothing serviced it yet
    irqc.set_handler(1, console.handle_interrupt)
    irqc.service()
    assert ran == [1]


def test_empty_window_refused():
    console, uart, irqc = make_console()
    window = BufferWindow(bytearray(8))
    window.slice(0, 0)
    with pytest.raises(ValueError):
        console.write(window, lambda w, n: None)


def test_write_without_a_client_refused():
    console, uart, irqc = make_console()
    with pytest.raises(ValueError):
        console.write(BufferWindow(bytearray(b"x")), None)
    assert not console.pending and not uart.busy


def test_completion_client_may_start_the_next_write():
    console, uart, irqc = make_console()
    irqc.set_handler(1, console.handle_interrupt)
    second = BufferWindow(bytearray(b"two"))
    restarted = []
    assert console.write(BufferWindow(bytearray(b"one")), lambda w, n:
                         restarted.append(console.write(second, lambda w, n: None)))
    for _ in range(3):
        uart.tick()
    irqc.service()
    assert restarted == [True] and console.pending
    for _ in range(3):
        uart.tick()
    irqc.service()
    assert uart_bytes(uart.trace) == b"onetwo" and not console.pending
