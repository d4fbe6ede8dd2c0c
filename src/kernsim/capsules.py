"""Semi-trusted kernel extensions (capsules) and the hardware layer glue.

Capsules are restricted to safe surfaces: the kernel services facade they
are handed at attach time (scoped buffer visitors, grants, upcall
scheduling) and the register files of the peripherals they were built
over. They never receive raw process memory or storable buffer handles.

Also here: the alarm virtualizer that multiplexes one hardware compare
register across many clients, and configuration-time composition
validation for capsule stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .abi import ErrorCode, SyscallReturn
from .buffers import BufferWindow
from .capabilities import CapabilityKind
from .errors import (
    GrantNoMem,
    NoSharedBuffer,
    NoSuchProcess,
    ProcessDead,
    RangeError,
    WriteToReadOnly,
)
from .hw import TICK_MASK, AlarmHw, UartHw, tick_passed

CONFIGURABLE = "configurable"


# --- composition ------------------------------------------------------------

@dataclass
class CompositionLayer:
    """Config-time annotations: what a layer provides to the layer above
    it and what it requires of the layer beneath it."""

    name: str
    provides: Dict[str, Any] = field(default_factory=dict)
    requires: Dict[str, Any] = field(default_factory=dict)
    buffer_size: Optional[int] = None
    min_buffer_size: Optional[int] = None


def validate_composition(layers: List[CompositionLayer]) -> List[str]:
    """Check a stack bottom-first; returns every mismatch, naming both
    layers and the violated property. A provider value of "configurable"
    satisfies any required value for that property."""
    mismatches: List[str] = []
    for i, layer in enumerate(layers):
        below = layers[i - 1] if i > 0 else None
        for prop, wanted in layer.requires.items():
            if below is None:
                mismatches.append(
                    f"layer {layer.name!r} requires {prop}={wanted!r} but is at "
                    f"the bottom of the stack")
                continue
            have = below.provides.get(prop)
            if have is None:
                mismatches.append(
                    f"layer {layer.name!r} requires {prop}={wanted!r} but layer "
                    f"{below.name!r} does not provide {prop}")
            elif have != wanted and have != CONFIGURABLE:
                mismatches.append(
                    f"layer {layer.name!r} requires {prop}={wanted!r} but layer "
                    f"{below.name!r} provides {prop}={have!r}")
        if (below is not None and layer.buffer_size is not None
                and below.min_buffer_size is not None
                and layer.buffer_size < below.min_buffer_size):
            mismatches.append(
                f"layer {layer.name!r} declares buffer_size={layer.buffer_size} "
                f"below min_buffer_size={below.min_buffer_size} declared by "
                f"layer {below.name!r}")
    return mismatches


# --- capsule base ---------------------------------------------------------------

class Capsule:
    """Base class for kernel extensions.

    Subclasses declare how many subscribe and allow slots their driver
    surface exposes and, if they keep per-process state, the byte size of
    their grant schema.
    """

    NUM_SUBSCRIBES = 0
    NUM_RW_BUFFERS = 0
    NUM_RO_BUFFERS = 0
    GRANT_SCHEMA = 0
    IRQ_PERIPHERAL: Optional[str] = None

    def __init__(self, name: str, driver_id: Optional[int] = None):
        self.name = name
        self.driver_id = driver_id
        self.kern = None  # services facade, set by attach()

    def attach(self, services) -> None:
        self.kern = services

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        return SyscallReturn.failure(ErrorCode.NOSUPPORT)

    def handle_interrupt(self) -> None:
        pass

    def on_process_exit(self, pid: int) -> None:
        pass


# --- alarm virtualizer ------------------------------------------------------------

@dataclass
class AlarmClientEntry:
    client_id: int
    callback: Callable[[int], None]
    deadline: int = 0
    armed: bool = False


class AlarmVirtualizer:
    """Multiplexes one hardware alarm across many clients.

    The hardware compare register always holds the armed deadline that
    will fire soonest (wraparound-aware); when the hardware fires, every
    client whose deadline has passed is delivered, in registration order,
    and the compare is re-armed for the next minimum.
    """

    def __init__(self, hw: AlarmHw):
        self.hw = hw
        self.entries: List[AlarmClientEntry] = []

    def add_client(self, callback: Callable[[int], None]) -> int:
        """Register a client; only valid during board construction."""
        entry = AlarmClientEntry(len(self.entries), callback)
        self.entries.append(entry)
        return entry.client_id

    def set_alarm(self, client_id: int, deadline: int) -> None:
        entry = self.entries[client_id]
        entry.deadline = deadline & TICK_MASK
        entry.armed = True
        self._program()

    def disarm(self, client_id: int) -> None:
        self.entries[client_id].armed = False
        self._program()

    def handle_irq(self) -> None:
        now = self.hw.count
        due = [e for e in self.entries if e.armed and tick_passed(now, e.deadline)]
        for entry in due:
            entry.armed = False
        for entry in due:  # registration order: entries list is never reordered
            entry.callback(now)
        self._program()

    def _distance(self, now: int, deadline: int) -> int:
        if tick_passed(now, deadline):
            return 0
        return (deadline - now) & TICK_MASK

    def _program(self) -> None:
        armed = [e for e in self.entries if e.armed]
        if not armed:
            self.hw.regs.field_set("CTRL", "IRQEN", 0)
            return
        now = self.hw.count
        best = min(armed, key=lambda e: self._distance(now, e.deadline))
        # COMPARE first: it reopens the fire latch while the IRQ is still
        # masked, so a stale compare value cannot fire spuriously.
        self.hw.regs.write_reg("COMPARE", best.deadline)
        self.hw.regs.field_set("CTRL", "ENABLE", 1)
        self.hw.regs.field_set("CTRL", "IRQEN", 1)


# --- drivers ------------------------------------------------------------------------

# Grant layout for the alarm driver: armed flag at byte 0, 32-bit deadline
# at bytes 4..8. The rest of the schema is reserved.
_ALARM_ARMED_OFF = 0
_ALARM_DEADLINE_OFF = 4


class AlarmDriver(Capsule):
    """Timer driver: deadline bookkeeping in grants, wakeups as upcalls.

    Commands: 1 = arm an alarm at an absolute tick (arg0), 2 = read the
    current tick. Subscribe slot 0 receives (fire_tick, deadline, 0).
    """

    NUM_SUBSCRIBES = 1
    GRANT_SCHEMA = 16
    IRQ_PERIPHERAL = "alarm"

    CMD_SET = 1
    CMD_TIME = 2

    def __init__(self, name: str, driver_id: int, virtualizer: AlarmVirtualizer,
                 max_clients: int):
        super().__init__(name, driver_id)
        self.virt = virtualizer
        self._slot_pid: List[Optional[int]] = [None] * max_clients
        self._client_ids: List[int] = []
        for i in range(max_clients):
            cid = virtualizer.add_client(lambda now, slot=i: self._fire(slot, now))
            self._client_ids.append(cid)

    def _slot_of(self, pid: int, allocate: bool) -> Optional[int]:
        for i, owner in enumerate(self._slot_pid):
            if owner == pid:
                return i
        if not allocate:
            return None
        for i, owner in enumerate(self._slot_pid):
            if owner is None:
                self._slot_pid[i] = pid
                return i
        return None

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        if cmd == self.CMD_SET:
            deadline = arg0 & TICK_MASK

            def arm(grant):
                grant.write_u8(_ALARM_ARMED_OFF, 1)
                grant.write_u32(_ALARM_DEADLINE_OFF, deadline)

            try:
                self.kern.grant_enter(pid, arm)
            except GrantNoMem:
                return SyscallReturn.failure(ErrorCode.NOMEM)
            slot = self._slot_of(pid, allocate=True)
            if slot is None:
                return SyscallReturn.failure(ErrorCode.RESERVE)
            self.virt.set_alarm(self._client_ids[slot], deadline)
            return SyscallReturn.success()
        if cmd == self.CMD_TIME:
            return SyscallReturn.success_value(self.kern.now() & TICK_MASK)
        return SyscallReturn.failure(ErrorCode.NOSUPPORT)

    def handle_interrupt(self) -> None:
        self.virt.handle_irq()

    def _fire(self, slot: int, now: int) -> None:
        pid = self._slot_pid[slot]
        if pid is None:
            return

        def complete(grant):
            grant.write_u8(_ALARM_ARMED_OFF, 0)
            return grant.read_u32(_ALARM_DEADLINE_OFF)

        try:
            deadline = self.kern.grant_enter(pid, complete)
        except (ProcessDead, GrantNoMem):
            return  # process died between fire and delivery
        self.kern.schedule_upcall(pid, 0, [now & TICK_MASK, deadline, 0])

    def on_process_exit(self, pid: int) -> None:
        slot = self._slot_of(pid, allocate=False)
        if slot is not None:
            self.virt.disarm(self._client_ids[slot])
            self._slot_pid[slot] = None


class ConsoleDriver(Capsule):
    """Byte-stream output over the UART's DMA engine.

    Userspace shares its data read-only (slot 0), subscribes the done
    callback (slot 0), and issues command 1 with the byte count. The
    driver copies the bytes into its own static window, slices it to the
    transfer length, and hands it to the UART; the window comes back at
    full capacity when the completion interrupt arrives.
    """

    NUM_SUBSCRIBES = 1
    NUM_RO_BUFFERS = 1
    IRQ_PERIPHERAL = "uart"

    CMD_WRITE = 1

    def __init__(self, name: str, driver_id: int, uart: UartHw,
                 buffer_size: int):
        super().__init__(name, driver_id)
        self.uart = uart
        self.window = BufferWindow(buffer_size)
        # The completion client of the transmit in flight, if any.
        self._client: Optional[Callable[[BufferWindow, int], None]] = None
        self._owner_pid: Optional[int] = None

    @property
    def pending(self) -> bool:
        return self._client is not None

    # HIL surface, usable by kernel-side clients as well as the syscall path.
    def write(self, window: BufferWindow,
              client: Callable[[BufferWindow, int], None]) -> bool:
        """Start a split-phase transmit; False means BUSY. The window is
        owned by the operation until the completion callback returns it;
        the callback may start the next transmit."""
        if self.pending:
            return False
        if len(window) < 1:
            raise ValueError("console write needs a non-empty window")
        if client is None:
            raise ValueError("console write needs a completion client")
        self._client = client
        window.take()
        self.uart.start_tx(window)
        return True

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        if cmd != self.CMD_WRITE:
            return SyscallReturn.failure(ErrorCode.NOSUPPORT)
        if self.pending:
            return SyscallReturn.failure(ErrorCode.BUSY)
        length = arg0
        if length < 1 or length > self.window.capacity:
            return SyscallReturn.failure(ErrorCode.SIZE)
        try:
            data = self.kern.with_ro_buffer(pid, 0, lambda h: h.read(0, length))
        except NoSharedBuffer:
            return SyscallReturn.failure(ErrorCode.RESERVE)
        except RangeError:
            return SyscallReturn.failure(ErrorCode.SIZE)
        self.window.reset()
        self.window.write(0, data)
        self.window.slice(0, length)
        self._owner_pid = pid
        if not self.write(self.window, self._tx_done):
            return SyscallReturn.failure(ErrorCode.BUSY)
        return SyscallReturn.success()

    def handle_interrupt(self) -> None:
        completion = self.uart.take_completion()
        if completion is None:
            return
        window, count = completion
        window.release()
        client, self._client = self._client, None
        client(window, count)

    def _tx_done(self, window: BufferWindow, count: int) -> None:
        pid, self._owner_pid = self._owner_pid, None
        window.reset()
        if pid is not None:
            self.kern.schedule_upcall(pid, 0, [count, 0, 0])

    def on_process_exit(self, pid: int) -> None:
        # The DMA finishes on its own; just drop the reference so the
        # completion cannot reach a dead process.
        if self._owner_pid == pid:
            self._owner_pid = None


class ProbeDriver(Capsule):
    """Diagnostic driver that reads and writes through its shared buffers.

    Commands: 1 = write byte (arg0=offset, arg1=value) through the rw
    share; 2 = read byte (arg0=offset) through the rw share; 3 = attempt a
    write through the read-only share, reporting 1 if it was refused;
    4 = read byte through the read-only share.
    """

    NUM_RW_BUFFERS = 1
    NUM_RO_BUFFERS = 1

    CMD_WRITE_BYTE = 1
    CMD_READ_BYTE = 2
    CMD_RO_WRITE_ATTEMPT = 3
    CMD_RO_READ_BYTE = 4

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        try:
            if cmd == self.CMD_WRITE_BYTE:
                self.kern.with_rw_buffer(
                    pid, 0, lambda h: h.write(arg0, bytes([arg1 & 0xFF])))
                return SyscallReturn.success()
            if cmd == self.CMD_READ_BYTE:
                data = self.kern.with_rw_buffer(pid, 0, lambda h: h.read(arg0, 1))
                return SyscallReturn.success_value(data[0])
            if cmd == self.CMD_RO_WRITE_ATTEMPT:
                def attempt(handle):
                    try:
                        handle.write(arg0, bytes([arg1 & 0xFF]))
                    except WriteToReadOnly:
                        self.kern.report_error("write refused on read-only share")
                        return 1
                    return 0
                refused = self.kern.with_ro_buffer(pid, 0, attempt)
                return SyscallReturn.success_value(refused)
            if cmd == self.CMD_RO_READ_BYTE:
                data = self.kern.with_ro_buffer(pid, 0, lambda h: h.read(arg0, 1))
                return SyscallReturn.success_value(data[0])
        except NoSharedBuffer:
            return SyscallReturn.failure(ErrorCode.RESERVE)
        except RangeError:
            return SyscallReturn.failure(ErrorCode.SIZE)
        return SyscallReturn.failure(ErrorCode.NOSUPPORT)


class ManagerDriver(Capsule):
    """Process management driver; command 1 destroys the process in arg0.

    Without a ProcessManagement token the destroy surface simply does not
    exist: the privileged kernel entry point demands the token as a
    parameter, so a tokenless instance has nothing to pass and answers
    NOSUPPORT.
    """

    CMD_DESTROY = 1

    def __init__(self, name: str, driver_id: int, token=None):
        super().__init__(name, driver_id)
        self.token = token

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        if cmd != self.CMD_DESTROY:
            return SyscallReturn.failure(ErrorCode.NOSUPPORT)
        if self.token is None:
            return SyscallReturn.failure(ErrorCode.NOSUPPORT)
        try:
            self.kern.process_destroy(self.token, arg0)
        except NoSuchProcess:
            return SyscallReturn.failure(ErrorCode.INVAL)
        return SyscallReturn.success()


class AnnotationLayer(Capsule):
    """Inert layer that exists only for composition annotations."""


# --- capsule type registry --------------------------------------------------------

def _build_alarm(name, cfg, deps, tokens):
    virt = AlarmVirtualizer(deps.chip.alarm)
    return AlarmDriver(name, cfg["driver_id"], virt, deps.max_processes)


def _build_console(name, cfg, deps, tokens):
    return ConsoleDriver(name, cfg["driver_id"], deps.chip.uart,
                         cfg.get("buffer_size", 64))


def _build_probe(name, cfg, deps, tokens):
    return ProbeDriver(name, cfg["driver_id"])


def _build_manager(name, cfg, deps, tokens):
    token = next((t for t in tokens
                  if t.kind is CapabilityKind.PROCESS_MANAGEMENT), None)
    return ManagerDriver(name, cfg["driver_id"], token)


def _build_annotation(name, cfg, deps, tokens):
    return AnnotationLayer(name, cfg.get("driver_id"))


CAPSULE_TYPES: Dict[str, Callable] = {
    "alarm": _build_alarm,
    "console": _build_console,
    "probe": _build_probe,
    "manager": _build_manager,
    "annotation": _build_annotation,
}


def register_capsule_type(type_name: str, builder: Callable) -> None:
    """Extend the registry (used by boards with bespoke extensions)."""
    CAPSULE_TYPES[type_name] = builder
