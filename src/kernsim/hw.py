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
completion. Each model is also its chip driver, as in Tock, so capsules
never touch registers, and it hands each completion to one client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

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


def ticks_until(now: int, deadline: int) -> int:
    """Ticks from now until deadline on the 32-bit tick ring, 0 once it
    has passed: as with Tock's ``Ticks::within_range``, when now is on it
    or less than half the ring past it."""
    until = (deadline - now) & TICK_MASK
    return 0 if until > HALF_RING else until


@dataclass
class InterruptLine:
    """An interrupt line, its peripheral's handler and the writers of its
    irq_raised and irq_serviced events."""

    irq_id: int
    name: str
    payload: str
    raised: Callable[[str], None]
    serviced: Callable[[str], None]
    handler: Callable[[], None]
    pending: bool = False


class InterruptController:
    """Fixed-priority (ascending irq id) interrupt delivery.

    Each peripheral adds its line at construction with its own
    ``handle_interrupt``, which hands its completion to its client. No two
    lines share an irq id: the board check refuses a reused one.
    """

    def __init__(self, trace: TraceLog):
        self.lines: Dict[int, InterruptLine] = {}
        self._ordered: Tuple[InterruptLine, ...] = ()  # by ascending irq id
        self.trace = trace

    def add_line(self, irq_id: int, name: str, handler: Callable[[], None]) -> None:
        actor, channel = actor_hw(name), self.trace.channel
        self.lines[irq_id] = InterruptLine(irq_id, name, f'{{"irq":{irq_id}}}',
                                           channel(actor, K_IRQ_RAISED),
                                           channel(actor, K_IRQ_SERVICED), handler)
        self._ordered = tuple(self.lines[i] for i in sorted(self.lines))

    def raise_irq(self, irq_id: int) -> None:
        line = self.lines[irq_id]
        line.pending = True
        line.raised(line.payload)

    def any_pending(self) -> bool:
        return any(l.pending for l in self.lines.values())

    def service(self) -> int:
        """Deliver every pending line once; returns the count serviced."""
        serviced = 0
        for line in self._ordered:
            if line.pending:
                line.pending = False
                line.serviced(line.payload)
                line.handler()
                serviced += 1
        return serviced


class Peripheral:
    """A register file, an interrupt line and the one ``client`` that a
    line's service hands the completion to, as a Tock chip driver calls
    back ``AlarmClient::alarm`` or ``TransmitClient::transmitted_buffer``.
    The board sets ``client`` once, when it is built. Interrupts come only
    from work a client started, so a model nobody drives needs none.
    """

    client: Callable[..., None]

    def __init__(self, spec: RegisterMapSpec, irqc: InterruptController,
                 irq_id: int,
                 on_write: Optional[Callable[[RegisterSpec, int], None]] = None):
        self.regs = RegisterFile(spec, on_write=on_write)
        self._values = self.regs.values
        self.irqc = irqc
        self.irq_id = irq_id
        irqc.add_line(irq_id, spec.name, self.handle_interrupt)
        self._completion: Tuple[Any, ...] = ()

    def _complete(self, *completion: Any) -> None:
        """Raise the interrupt whose service hands ``completion`` to the client."""
        self._completion = completion
        self.irqc.raise_irq(self.irq_id)

    def handle_interrupt(self) -> None:
        completion, self._completion = self._completion, ()
        self.client(*completion)


class AlarmHw(Peripheral):
    """Free-running 32-bit counter with a compare register.

    COUNT advances every tick and never resets on a match. The IRQ fires
    once per COMPARE value: when ENABLE and IRQEN are set and COUNT has
    passed COMPARE (wraparound-aware), a latch closes until COMPARE is
    rewritten. Writing COMPARE to an already-passed value fires
    immediately.

    The register offsets and the ENABLE|IRQEN mask are resolved once, so
    the per-tick path is integer arithmetic on the stored register values.
    The chip-driver half, :meth:`set_alarm` and :meth:`disarm`, writes
    COMPARE and CTRL through MMIO; a fire calls ``client()``.
    """

    # The register contract a map for the model must meet: the registers
    # and fields it uses, the widths it relies on (COUNT and COMPARE hold
    # ticks of the 32-bit ring) and those its chip-driver half writes
    # through MMIO.
    # KNOBS: the board keys of its timing knob, passed to the constructor.
    REGISTERS = {"COUNT": (), "COMPARE": (), "CTRL": ("ENABLE", "IRQEN")}
    WIDTHS = {"COUNT": 32, "COMPARE": 32}
    WRITABLE = ("COMPARE", "CTRL")
    KNOBS = {"initial_count": Key(int, 0, TICK_MASK, 0)}

    def __init__(self, spec: RegisterMapSpec, irqc: InterruptController,
                 irq_id: int, initial_count: int = 0):
        super().__init__(spec, irqc, irq_id, self._on_write)
        self._fired = False
        ctrl = spec.register("CTRL")
        self._count_at = spec.register("COUNT").offset
        self._compare_at = spec.register("COMPARE").offset
        self._ctrl_at = ctrl.offset
        self._irqen = ctrl.field("IRQEN").mask
        self._arm_mask = ctrl.field("ENABLE").mask | self._irqen
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
        if self.armed and not ticks_until(values[self._count_at],
                                          values[self._compare_at]):
            self._fired = True
            self._complete()

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

    def set_alarm(self, deadline: int) -> None:
        """Write COMPARE, then CTRL with ENABLE and IRQEN, so CTRL never
        unmasks the IRQ over a stale compare value."""
        regs, ctrl_at = self.regs, self._ctrl_at
        regs.mmio_write(self._compare_at, deadline)
        regs.mmio_write(ctrl_at, self._values[ctrl_at] | self._arm_mask)

    def disarm(self) -> None:
        """One CTRL write that clears IRQEN and keeps ENABLE."""
        self.regs.mmio_write(self._ctrl_at, self._values[self._ctrl_at] & ~self._irqen)


# The encoded trace payload of a uart_tx event, one per byte value.
_TX_PAYLOADS = tuple(f'{{"byte":{byte}}}' for byte in range(256))


class UartHw(Peripheral):
    """Transmit-only UART whose DMA engine moves ``bytes_per_tick`` bytes
    a tick.

    As Tock's ``Transmit::transmit_buffer`` does, :meth:`transmit_buffer`
    takes the caller's buffer for the transfer, and the DMA reads straight
    from its first ``length`` bytes. :meth:`tick` moves the bytes of a
    span of ticks in one slice and logs them in one series, each stamped
    with the tick it moved on; a one-tick step that moves one byte, and a
    TXDATA write, go through the ``uart_tx`` writer the UART holds. That
    writer, TXLEN's offset and STATUS's offset and TXBUSY bits are bound
    once, when the UART is built. The completion IRQ is raised on the tick
    the last byte moves, and its service hands the buffer back with the
    count sent, as ``client(buffer, count)``.
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
        super().__init__(spec, irqc, irq_id, self._on_write)
        self.bytes_per_tick = bytes_per_tick
        self.trace = trace
        self._actor = actor_hw(spec.name)
        self._log_tx = trace.channel(self._actor, K_UART_TX)
        txlen, status = spec.register("TXLEN"), spec.register("STATUS")
        self._txlen_at, self._txlen_mask = txlen.offset, txlen.value_mask
        self._status_at = status.offset
        txbusy = status.field("TXBUSY")
        self._txbusy_mask, self._txbusy = txbusy.mask, txbusy.encode(1)
        self._buffer: Optional[bytearray] = None
        self._sent = 0
        self._total = 0

    def _on_write(self, reg: RegisterSpec, value: int) -> None:
        if reg.name == "TXDATA":
            self._log_tx(_TX_PAYLOADS[value & 0xFF])

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
        holds no reference until the client gets it back."""
        if self.busy:
            raise RuntimeError("uart DMA already active")
        if not 0 <= length <= len(buffer):
            raise ValueError(f"transfer of {length} bytes from a "
                             f"{len(buffer)}-byte buffer")
        self._buffer = buffer
        self._sent = 0
        self._total = length
        values, status = self._values, self._status_at
        values[self._txlen_at] = length & self._txlen_mask
        values[status] = (values[status] & ~self._txbusy_mask) | self._txbusy

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
            self._log_tx(_TX_PAYLOADS[data[0]])
        else:
            self.trace.log_series(self._actor, K_UART_TX, self.trace.clock.now - n + 1,
                                  per_tick, [_TX_PAYLOADS[byte] for byte in data])
        self._sent = sent = sent + moved
        if sent >= self._total:
            self._buffer = None
            self._values[self._status_at] &= ~self._txbusy_mask
            self._complete(buffer, sent)


class HashEngineHw(Peripheral):
    """Digest accelerator: one job at a time, 64 payload bytes per tick.

    The submitter hands over the digest of the exact bytes it submits; the
    engine models the time the hashing takes and publishes the value in
    DIGEST_LO/DIGEST_HI only when the job completes, together with the
    completion IRQ, whose service calls ``client(job, digest)``. The
    registers' offsets and STATUS's bits are resolved once.
    """

    REGISTERS = {"LEN": (), "STATUS": ("BUSY", "DONE"), "DIGEST_LO": (),
                 "DIGEST_HI": ()}
    WIDTHS: Dict[str, int] = {}
    WRITABLE = ()
    KNOBS = {"chunk_bytes": Key(int, 1, default=64)}

    def __init__(self, spec: RegisterMapSpec, irqc: InterruptController,
                 irq_id: int, chunk_bytes: int = 64):
        super().__init__(spec, irqc, irq_id)
        self.chunk_bytes = chunk_bytes
        self._len, self._lo, self._hi = map(spec.register, ("LEN", "DIGEST_LO", "DIGEST_HI"))
        status = spec.register("STATUS")
        busy, done = status.field("BUSY"), status.field("DONE")
        self._status_at, self._status_mask = status.offset, busy.mask | done.mask
        self._busy, self._done = busy.encode(1), done.encode(1)
        self._remaining = 0
        self._job: Optional[Tuple[Any, int]] = None  # (job tag, digest)

    @property
    def busy(self) -> bool:
        return self._job is not None

    def ticks_until_event(self) -> Optional[int]:
        """Ticks until the running job completes, else None. A job with
        no chunks left (an empty payload) completes on the next tick."""
        if self._job is None:
            return None
        return max(1, self._remaining)

    def submit(self, payload: bytes, job_tag, digest: int) -> None:
        """Start a job; the loader submits one only while the engine is idle."""
        self._job = (job_tag, digest)
        self._remaining = math.ceil(len(payload) / self.chunk_bytes)
        self._publish(self._busy, (self._len, len(payload) & 0xFFFFFFFF))

    def tick(self, n: int = 1) -> None:
        if self._job is None:
            return
        if self._remaining > n:
            self._remaining -= n
        else:
            self._remaining = 0
            (tag, digest), self._job = self._job, None
            self._publish(self._done, (self._lo, digest & 0xFFFFFFFF),
                          (self._hi, (digest >> 32) & 0xFFFFFFFF))
            self._complete(tag, digest)

    def _publish(self, status: int, *writes: Tuple[RegisterSpec, int]) -> None:
        """Store each (register, value) and set STATUS's BUSY and DONE
        fields to the encoded bits ``status``."""
        values = self._values
        for reg, value in writes:
            values[reg.offset] = value & reg.value_mask
        values[self._status_at] = (values[self._status_at] & ~self._status_mask) | status


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
