"""The benchmark's per-module tracing (`perfbench/run.py --trace 1`) wraps
kernsim functions by name. Every name it wraps must exist, so that
deleting one fails here rather than in a traced benchmark run."""

import runpy
from pathlib import Path

from kernsim.capsules import ConsoleDriver

from conftest import make_board

# run_path compiles the file without writing bytecode next to it.
LAYERS = runpy.run_path(str(Path(__file__).resolve().parents[1]
                            / "perfbench" / "layers.py"))


def _resolves(target: str) -> bool:
    owner, attr = LAYERS["_resolve"](target)
    # install() reads a class attribute from the class's own __dict__.
    return attr in (owner.__dict__ if isinstance(owner, type) else vars(owner))


def test_every_span_target_resolves():
    targets = [target for _, names, _, _ in LAYERS["SPANS"] for target in names]
    assert len(targets) > 30
    assert [target for target in targets if not _resolves(target)] == []


def test_console_command_exists_for_the_console_probe():
    assert "command" in ConsoleDriver.__dict__


def test_the_tick_hook_reads_the_uart_and_hash_engine_of_a_built_board():
    # _ticked reads chip.uart, chip.hashengine and their busy after each
    # Chip.tick, to count the ticks on which a transfer or job is in flight.
    chip = make_board().chip
    rec = LAYERS["Recorder"]()
    for name in ("hw.ticks", "hw.busy_ticks"):
        rec.counts[name] = 0

    def ticked(n):
        LAYERS["_ticked"](rec, (chip, n), None)
        return rec.counts["hw.busy_ticks"]

    assert chip.uart is not None and chip.hashengine is not None
    assert (chip.uart.busy, chip.hashengine.busy) == (False, False)
    assert ticked(5) == 0
    chip.uart.transmit_buffer(bytearray(b"hi"), 2)
    assert chip.uart.busy is True and ticked(2) == 2
    chip.uart.tick(2)
    assert chip.uart.busy is False and ticked(1) == 2
    chip.hashengine.submit(b"x" * 64, "job", 0)
    assert chip.hashengine.busy is True and ticked(3) == 5
    assert rec.counts["hw.ticks"] == 11
