import json
from pathlib import Path

import pytest

from kernsim.abi import ErrorCode, SyscallReturn
from kernsim.capsules import ConsoleDriver, validate_composition
from kernsim.errors import NoSharedBuffer, RangeError
from kernsim.hw import InterruptController, UartHw
from kernsim.regmap import load_register_map
from kernsim.trace import TraceLog

from conftest import uart_bytes
from oracles import tagged_json

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
    # Completeness: ok iff every adjacent pair satisfies by brute force. A
    # provided value must be the same JSON value as the wanted one, and a
    # provided null is provided.
    def brute_force_ok(layers):
        for i, layer in enumerate(layers):
            below = layers[i - 1] if i else None
            for prop, wanted in layer.get("requires", {}).items():
                provides = below.get("provides", {}) if below else {}
                if prop not in provides:
                    return False
                have = provides[prop]
                if tagged_json(have) != tagged_json(wanted) and have != "configurable":
                    return False
            if (below and "buffer_size" in layer and "min_buffer_size" in below
                    and layer["buffer_size"] < below["min_buffer_size"]):
                return False
        return True

    cases = []
    wanted_values = ["active_high", "active_low", 1, True, 1.0, 0, False, None,
                     [1], [True]]
    for provided in wanted_values + ["configurable"]:
        for wanted in wanted_values:
            cases.append([
                _layer("a", provides={"p": provided}),
                _layer("b", requires={"p": wanted}),
            ])
    for wanted in wanted_values:
        cases.append([_layer("a", provides={}), _layer("b", requires={"p": wanted})])
    for bufsize in (8, 16, 32):
        cases.append([_layer("a", min_buffer_size=16),
                      _layer("b", buffer_size=bufsize)])
    for layers in cases:
        assert (validate_composition(layers) == []) == brute_force_ok(layers)


# --- console over the uart -------------------------------------------------------

class _Share:
    """A read-only share over ``data``: as through a scoped region, a read
    past its end raises RangeError."""

    def __init__(self, data):
        self.data = bytes(data)

    def read(self, offset, length):
        if offset + length > len(self.data):
            raise RangeError(f"read [{offset}, {offset + length}) outside share")
        return self.data[offset:offset + length]


class _ShareServices:
    """Each pid's read-only share 0 holds its bytes in ``shares``; upcalls
    are recorded."""

    def __init__(self, shares):
        self.shares = {pid: _Share(data) for pid, data in shares.items()}
        self.upcalls = []

    def with_ro_buffer(self, pid, buf_num, visitor):
        if pid not in self.shares:
            raise NoSharedBuffer(f"pid {pid} shares nothing")
        return visitor(self.shares[pid])

    def schedule_upcall(self, pid, sub, args):
        self.upcalls.append((pid, sub, tuple(args)))
        return True


def make_console(shares, buffer_size=64):
    irqc = InterruptController(TraceLog())
    uart = UartHw(UART_SPEC, irqc, 1, TraceLog())
    console = ConsoleDriver("console", 1, uart, buffer_size)
    console.attach(_ShareServices(shares))
    uart.client = console.handle_interrupt
    return console, uart, irqc


def _write(console, pid, length):
    return console.command(ConsoleDriver.CMD_WRITE, length, 0, pid)


def test_console_write_sends_exactly_the_bytes_asked_for_and_returns_the_buffer():
    console, uart, irqc = make_console({1: b"hi kernel, and more"})
    buffer = console.buffer
    assert _write(console, 1, 9) == SyscallReturn.success()
    assert console.buffer is None and uart.busy
    for _ in range(9):
        uart.tick()
    irqc.service()
    assert uart_bytes(uart.trace) == b"hi kernel"
    assert console.kern.upcalls == [(1, 0, (9, 0, 0))]
    assert console.buffer is buffer and len(buffer) == 64


def test_completion_never_runs_inside_the_command():
    # The completion is deferred to interrupt service, never the command.
    console, uart, irqc = make_console({1: b"z"})
    assert _write(console, 1, 1) == SyscallReturn.success()
    assert console.kern.upcalls == []
    uart.tick()
    assert console.kern.upcalls == []  # raised the IRQ, but nothing serviced it yet
    irqc.service()
    assert console.kern.upcalls == [(1, 0, (1, 0, 0))]


@pytest.mark.parametrize("pid, length, err", [
    (1, 0, ErrorCode.SIZE),        # an empty write
    (1, 9, ErrorCode.SIZE),        # past the driver's 8-byte buffer
    (1, 5, ErrorCode.SIZE),        # past the 4-byte share
    (2, 1, ErrorCode.RESERVE),     # nothing shared
])
def test_a_refused_write_leaves_the_buffer_and_uart_idle(pid, length, err):
    console, uart, irqc = make_console({1: b"abcd"}, 8)
    buffer = console.buffer
    assert _write(console, pid, length) == SyscallReturn.failure(err)
    assert console.buffer is buffer and not uart.busy
    assert buffer == bytearray(8)

