"""The simulated chip: clock, interrupt lines, and peripheral models.

All timing derives from one deterministic tick counter. Peripherals are
driven strictly by tick() and by software register writes; interrupt
delivery order is fixed (ascending irq id), so two runs with identical
inputs raise identical IRQ sequences. Each peripheral also tells how many
ticks remain until it raises its next interrupt, so the clock can cover
the ticks in between in one step: an idle gap in one addition, a UART DMA
transfer in one batch that moves the span's bytes together and logs each
with the tick it moved on. A one-tick UART step that moves one byte logs
it as a single event. A UART transfer owns the buffer it sends from: the
driver hands the buffer over to start it and gets it back with the
completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .errors import Key
from .regmap import RegisterFile, RegisterMapSpec, RegisterSpec
from .trace import (
    K_IRQ_RAISED,
    K_IRQ_SERVICED,
    K_UART_TX,
    SimClock,
    TraceLog,
    actor_hw,
)

TICK_MASK = 0xFFFFFFFF
HALF_RING = 0x80000000


def tick_passed(now: int, deadline: int) -> bool:
    """Wraparound-aware "deadline has passed" on the 32-bit tick ring.

    A deadline counts as passed when now is within half the ring ahead of
    it; anything further away is treated as still in the future.
    """
    return ((now - deadline) & TICK_MASK) < HALF_RING


@dataclass
class InterruptLine:
    irq_id: int
    name: str
    actor: str  # the trace actor and payload of the line's events
    payload: str
    handler: Optional[Callable[[], None]] = None
    pending: bool = False


class InterruptController:
    """Fixed-priority (ascending irq id) interrupt delivery.

    Peripherals add their line at construction; whoever owns the
    peripheral attaches the handler. A pending line without a handler
    stays pending rather than being lost.
    """

    def __init__(self, trace: TraceLog):
        self.lines: Dict[int, InterruptLine] = {}
        self._ordered: Tuple[InterruptLine, ...] = ()  # by ascending irq id
        self.trace = trace

    def add_line(self, irq_id: int, name: str) -> None:
        if irq_id in self.lines:
            raise ValueError(f"irq {irq_id} already taken by "
                             f"{self.lines[irq_id].name!r}")
        self.lines[irq_id] = InterruptLine(irq_id, name, actor_hw(name),
                                           f'{{"irq":{irq_id}}}')
        self._ordered = tuple(self.lines[i] for i in sorted(self.lines))

    def set_handler(self, irq_id: int, handler: Callable[[], None]) -> None:
        self.lines[irq_id].handler = handler

    def raise_irq(self, irq_id: int) -> None:
        line = self.lines[irq_id]
        line.pending = True
        self.trace.log(line.actor, K_IRQ_RAISED, line.payload)

    def any_pending(self) -> bool:
        return any(l.pending for l in self.lines.values())

    def service(self) -> int:
        """Deliver every pending line that has a handler once; returns the
        count serviced."""
        serviced = 0
        for line in self._ordered:
            if line.pending and line.handler is not None:
                line.pending = False
                self.trace.log(line.actor, K_IRQ_SERVICED, line.payload)
                line.handler()
                serviced += 1
        return serviced


class AlarmHw:
    """Free-running 32-bit counter with a compare register.

    COUNT advances every tick and never resets on a match. The IRQ fires
    once per COMPARE value: when ENABLE and IRQEN are set and COUNT has
    passed COMPARE (wraparound-aware), a latch closes until COMPARE is
    rewritten. Writing COMPARE to an already-passed value fires
    immediately.

    The register offsets and the ENABLE|IRQEN mask are resolved once, so
    the per-tick path is integer arithmetic on the stored register values.
    """

    # The register contract a map for the model must meet: the registers
    # and fields it uses, the widths it relies on (COUNT and COMPARE hold
    # ticks of the 32-bit ring) and those its driver writes through MMIO.
    # KNOBS: the board keys of its timing knob, passed to the constructor.
    REGISTERS = {"COUNT": (), "COMPARE": (), "CTRL": ("ENABLE", "IRQEN")}
    WIDTHS = {"COUNT": 32, "COMPARE": 32}
    WRITABLE = ("COMPARE", "CTRL")
    KNOBS = {"initial_count": Key(int, 0, TICK_MASK, 0)}

    def __init__(self, spec: RegisterMapSpec, irqc: InterruptController,
                 irq_id: int, initial_count: int = 0):
        self.regs = RegisterFile(spec, on_write=self._on_write)
        self.irqc = irqc
        self.irq_id = irq_id
        irqc.add_line(irq_id, spec.name)
        self._fired = False
        ctrl = spec.register("CTRL")
        self._values = self.regs.values
        self._count_at = spec.register("COUNT").offset
        self._compare_at = spec.register("COMPARE").offset
        self._ctrl_at = ctrl.offset
        self._arm_mask = ctrl.field("ENABLE").mask | ctrl.field("IRQEN").mask
        self._values[self._count_at] = initial_count & TICK_MASK

    @property
    def count(self) -> int:
        return self._values[self._count_at]

    def _on_write(self, reg: RegisterSpec, value: int) -> None:
        if reg.offset == self._compare_at:
            self._fired = False
        self._check()

    def _check(self) -> None:
        values = self._values
        if self.armed and ((values[self._count_at] - values[self._compare_at])
                           & TICK_MASK) < HALF_RING:
            self._fired = True
            self.irqc.raise_irq(self.irq_id)

    def tick(self, n: int = 1) -> None:
        values = self._values
        values[self._count_at] = (values[self._count_at] + n) & TICK_MASK
        self._check()

    @property
    def armed(self) -> bool:
        """True while a future compare match will raise an IRQ."""
        return (not self._fired
                and self._values[self._ctrl_at] & self._arm_mask == self._arm_mask)

    def ticks_until_event(self) -> Optional[int]:
        """Ticks until COUNT reaches COMPARE while armed, else None.

        Never 0: every write and tick that could leave COUNT at or past
        COMPARE runs the compare check, which disarms by firing.
        """
        if not self.armed:
            return None
        values = self._values
        return (values[self._compare_at] - values[self._count_at]) & TICK_MASK


# The encoded trace payload of a uart_tx event, one per byte value.
_TX_PAYLOADS = tuple(f'{{"byte":{byte}}}' for byte in range(256))


class UartHw:
    """Transmit-only UART whose DMA engine moves ``bytes_per_tick`` bytes
    a tick.

    As Tock's ``Transmit::transmit_buffer`` does, :meth:`transmit_buffer`
    takes the caller's buffer for the transfer, and the DMA reads straight
    from its first ``length`` bytes. :meth:`tick` moves the bytes of a
    span of ticks in one slice and logs them in one series, each stamped
    with the tick it moved on; a one-tick step that moves one byte logs it
    with one :meth:`TraceLog.log` call. The completion IRQ is raised on
    the tick the last byte moves, and :meth:`take_completion` hands the
    buffer back with the count sent.
    As in Tock's UART HIL, the driver sees one interrupt per transfer, not
    one per byte, so :meth:`ticks_until_event` answers the ticks left in
    the transfer. Writing TXDATA sends a single byte immediately (the
    non-DMA path).
    """

    REGISTERS = {"TXDATA": (), "STATUS": ("TXBUSY",), "TXLEN": ()}
    WIDTHS: Dict[str, int] = {}
    WRITABLE = ()
    KNOBS = {"bytes_per_tick": Key(int, 1, default=1)}

    def __init__(self, spec: RegisterMapSpec, irqc: InterruptController,
                 irq_id: int, trace: TraceLog, bytes_per_tick: int = 1):
        self.regs = RegisterFile(spec, on_write=self._on_write)
        self.irqc = irqc
        self.irq_id = irq_id
        irqc.add_line(irq_id, spec.name)
        self.bytes_per_tick = bytes_per_tick
        self.trace = trace
        self._actor = actor_hw(spec.name)
        self._buffer: Optional[bytearray] = None
        self._sent = 0
        self._total = 0
        self._completion: Optional[Tuple[bytearray, int]] = None

    def _on_write(self, reg: RegisterSpec, value: int) -> None:
        if reg.name == "TXDATA":
            self.trace.log(self._actor, K_UART_TX, _TX_PAYLOADS[value & 0xFF])

    @property
    def busy(self) -> bool:
        return self._buffer is not None

    def ticks_until_event(self) -> Optional[int]:
        """Ticks until the transfer in flight completes, else None. An
        empty transfer completes on the next tick."""
        if self._buffer is None:
            return None
        return max(1, -(-(self._total - self._sent) // self.bytes_per_tick))

    def transmit_buffer(self, buffer: bytearray, length: int) -> None:
        """Take ``buffer`` and send its first ``length`` bytes; the caller
        holds no reference until :meth:`take_completion` hands it back."""
        if self.busy:
            raise RuntimeError("uart DMA already active")
        if not 0 <= length <= len(buffer):
            raise ValueError(f"transfer of {length} bytes from a "
                             f"{len(buffer)}-byte buffer")
        self._buffer = buffer
        self._sent = 0
        self._total = length
        self.regs.hw_set("TXLEN", self._total)
        self.regs.hw_field_set("STATUS", "TXBUSY", 1)

    def tick(self, n: int = 1) -> None:
        """Move the bytes of the n ticks that end on the trace clock's tick.

        Byte i of the span moves, and is logged, on tick
        ``first + i // bytes_per_tick``, where ``first`` is the span's
        first tick. n must not exceed :meth:`ticks_until_event`, so the
        completion IRQ, raised when the last byte has moved, falls on the
        span's last tick.
        """
        buffer = self._buffer
        if buffer is None:
            return
        per_tick, sent = self.bytes_per_tick, self._sent
        moved = min(n * per_tick, self._total - sent)
        data = buffer[sent:sent + moved]
        if moved == 1 and n == 1:
            self.trace.log(self._actor, K_UART_TX, _TX_PAYLOADS[data[0]])
        else:
            self.trace.log_series(self._actor, K_UART_TX, self.trace.clock.now - n + 1,
                                  per_tick, [_TX_PAYLOADS[byte] for byte in data])
        self._sent = sent = sent + moved
        if sent >= self._total:
            self._buffer = None
            self.regs.hw_field_set("STATUS", "TXBUSY", 0)
            self._completion = (buffer, sent)
            self.irqc.raise_irq(self.irq_id)

    def take_completion(self) -> Optional[Tuple[bytearray, int]]:
        completion, self._completion = self._completion, None
        return completion


class HashEngineHw:
    """Digest accelerator: one job at a time, 64 payload bytes per tick.

    The submitter hands over the digest of the exact bytes it submits; the
    engine models the time the hashing takes and publishes the value in
    DIGEST_LO/DIGEST_HI only when the job completes, together with the
    completion IRQ.
    """

    REGISTERS = {"LEN": (), "STATUS": ("BUSY", "DONE"), "DIGEST_LO": (),
                 "DIGEST_HI": ()}
    WIDTHS: Dict[str, int] = {}
    WRITABLE = ()
    KNOBS = {"chunk_bytes": Key(int, 1, default=64)}

    def __init__(self, spec: RegisterMapSpec, irqc: InterruptController,
                 irq_id: int, chunk_bytes: int = 64):
        self.regs = RegisterFile(spec)
        self.irqc = irqc
        self.irq_id = irq_id
        irqc.add_line(irq_id, spec.name)
        self.chunk_bytes = chunk_bytes
        self._remaining = 0
        self._pending_digest = 0
        self._job_tag = None
        self._completion: Optional[Tuple[object, int]] = None

    @property
    def busy(self) -> bool:
        return self._job_tag is not None

    def ticks_until_event(self) -> Optional[int]:
        """Ticks until the running job completes, else None. A job with
        no chunks left (an empty payload) completes on the next tick."""
        if self._job_tag is None:
            return None
        return max(1, self._remaining)

    def submit(self, payload: bytes, job_tag, digest: int) -> None:
        if self.busy:
            raise RuntimeError("hash engine already busy")
        self._job_tag = job_tag
        self._pending_digest = digest
        self._remaining = math.ceil(len(payload) / self.chunk_bytes)
        self.regs.hw_set("LEN", len(payload) & 0xFFFFFFFF)
        self.regs.hw_field_set("STATUS", "BUSY", 1)
        self.regs.hw_field_set("STATUS", "DONE", 0)

    def tick(self, n: int = 1) -> None:
        if self._job_tag is None:
            return
        if self._remaining > n:
            self._remaining -= n
        else:
            self._remaining = 0
            tag, digest = self._job_tag, self._pending_digest
            self._job_tag = None
            self.regs.hw_set("DIGEST_LO", digest & 0xFFFFFFFF)
            self.regs.hw_set("DIGEST_HI", (digest >> 32) & 0xFFFFFFFF)
            self.regs.hw_field_set("STATUS", "BUSY", 0)
            self.regs.hw_field_set("STATUS", "DONE", 1)
            self._completion = (tag, digest)
            self.irqc.raise_irq(self.irq_id)

    def take_completion(self) -> Optional[Tuple[object, int]]:
        completion, self._completion = self._completion, None
        return completion


class Chip:
    """Bundles the clock and peripherals and drives them in time.

    :meth:`ticks_until_event` is the chip's only work test: None means no
    peripheral has future work of its own (no alarm armed, no transfer or
    hash job in flight).
    """

    def __init__(self, clock: SimClock, irqc: InterruptController,
                 alarm: Optional[AlarmHw] = None, uart: Optional[UartHw] = None,
                 hashengine: Optional[HashEngineHw] = None):
        self.clock = clock
        self.irqc = irqc
        self.alarm = alarm
        self.uart = uart
        self.hashengine = hashengine
        self._peripherals = tuple(p for p in (alarm, uart, hashengine)
                                  if p is not None)

    def tick(self, n: int = 1) -> None:
        """Advance the clock by n ticks in one step.

        n must not exceed :meth:`ticks_until_event`, so no peripheral
        raises an interrupt before the last of the n ticks. A busy UART
        first moves the bytes of the n - 1 ticks before the last in one
        call, each stamped with its own tick; on the last tick the alarm,
        the UART and the hash engine act in that order. The single-tick
        path skips the check: no event is ever less than one tick away.
        """
        clock, uart = self.clock, self.uart
        end = clock.now + n
        if n != 1:
            if n < 1:
                raise ValueError("tick count must be >= 1")
            gap = self.ticks_until_event()
            if gap is not None and n > gap:
                raise ValueError(f"tick({n}) would step past the next hardware "
                                 f"event, {gap} ticks away")
            if uart is not None and uart.busy:
                clock.now = end - 1
                uart.tick(n - 1)
        clock.now = end
        if self.alarm is not None:
            self.alarm.tick(n)
        if uart is not None:
            uart.tick()
        if self.hashengine is not None:
            self.hashengine.tick(n)

    def ticks_until_event(self) -> Optional[int]:
        """Ticks until the next tick on which a peripheral raises an
        interrupt, or None while no peripheral has work of its own."""
        nearest = None
        for periph in self._peripherals:
            gap = periph.ticks_until_event()
            if gap is not None and (nearest is None or gap < nearest):
                nearest = gap
        return nearest
