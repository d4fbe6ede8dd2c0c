"""Semi-trusted kernel extensions (capsules) and the hardware layer glue.

Capsules are restricted to safe surfaces: the kernel services facade they
are handed at attach time (scoped buffer visitors, grants, upcall
scheduling) and the register files of the peripherals they were built
over. They never receive raw process memory or storable buffer handles.

Also here: configuration-time composition validation for capsule stacks.
The alarm driver multiplexes the one hardware compare register across
the processes that arm alarms.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

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

def validate_composition(layers: List[Dict[str, Any]]) -> List[str]:
    """Check a stack of board layers bottom-first; returns every mismatch,
    naming both layers and the violated property. A layer's ``provides``
    and ``requires`` are objects of property -> value, and a provider
    value of "configurable" satisfies any required value for that
    property. A layer's ``buffer_size`` must meet the ``min_buffer_size``
    of the layer beneath it. A value that is not an object or an integer
    (one the board walk refused) declares nothing."""
    mismatches: List[str] = []
    for i, layer in enumerate(layers):
        below = layers[i - 1] if i > 0 else None
        name = layer["name"]
        for prop, wanted in (layer.get("requires") or {}).items():
            if below is None:
                mismatches.append(
                    f"layer {name!r} requires {prop}={wanted!r} but is at "
                    f"the bottom of the stack")
                continue
            have = (below.get("provides") or {}).get(prop)
            if have is None:
                mismatches.append(
                    f"layer {name!r} requires {prop}={wanted!r} but layer "
                    f"{below['name']!r} does not provide {prop}")
            elif have != wanted and have != CONFIGURABLE:
                mismatches.append(
                    f"layer {name!r} requires {prop}={wanted!r} but layer "
                    f"{below['name']!r} provides {prop}={have!r}")
        size = layer.get("buffer_size")
        floor = below and below.get("min_buffer_size")
        if type(size) is int and type(floor) is int and size < floor:
            mismatches.append(
                f"layer {name!r} declares buffer_size={size} below "
                f"min_buffer_size={floor} declared by layer {below['name']!r}")
    return mismatches


# --- capsule base ---------------------------------------------------------------

class Capsule:
    """Base class for kernel extensions.

    Subclasses declare how many subscribe and allow slots their driver
    surface exposes and, if they keep per-process state, the byte size of
    their grant schema. A board layer names a subclass by its type (see
    CAPSULE_TYPES); the layer needs a driver_id if NEEDS_DRIVER_ID, and the
    board needs the IRQ_PERIPHERAL, whose interrupt the capsule takes.
    """

    NUM_SUBSCRIBES = 0
    NUM_RW_BUFFERS = 0
    NUM_RO_BUFFERS = 0
    GRANT_SCHEMA = 0
    IRQ_PERIPHERAL: Optional[str] = None
    NEEDS_DRIVER_ID = True

    def __init__(self, name: str, driver_id: Optional[int] = None):
        self.name = name
        self.driver_id = driver_id
        self.kern = None  # services facade, set by attach()

    @classmethod
    def build(cls, name: str, layer: Dict[str, Any], deps, tokens) -> "Capsule":
        """The capsule a checked board layer describes, built over the
        board's chip (``deps``) with the capability tokens granted to it."""
        return cls(name, layer["driver_id"])

    def attach(self, services) -> None:
        self.kern = services

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        return SyscallReturn.failure(ErrorCode.NOSUPPORT)

    def handle_interrupt(self) -> None:
        pass

    def on_process_exit(self, pid: int) -> None:
        pass


# --- alarm driver -------------------------------------------------------------------

# Grant layout for the alarm driver: armed flag at byte 0, 32-bit deadline
# at bytes 4..8. The rest of the schema is reserved.
_ALARM_ARMED_OFF = 0
_ALARM_DEADLINE_OFF = 4


class AlarmDriver(Capsule):
    """Timer driver: multiplexes the one hardware compare register across
    processes, with deadline bookkeeping in grants and wakeups as upcalls.

    A process takes the first free slot of the driver's table when it first
    arms an alarm and holds it until it exits. COMPARE always holds the
    armed deadline that comes soonest (wraparound-aware); when it fires,
    every slot whose deadline has passed is delivered, in slot order, and
    COMPARE is reprogrammed for the next one.

    Commands: 1 = arm an alarm at an absolute tick (arg0), 2 = read the
    alarm's COUNT, the frame deadlines are in. Subscribe slot 0 receives
    (fire_tick, deadline, 0).
    """

    NUM_SUBSCRIBES = 1
    GRANT_SCHEMA = 16
    IRQ_PERIPHERAL = "alarm"

    CMD_SET = 1
    CMD_TIME = 2

    def __init__(self, name: str, driver_id: int, alarm: AlarmHw, max_clients: int):
        super().__init__(name, driver_id)
        self.hw = alarm
        # Slot i: [pid holding it or None, its armed deadline or None].
        self._slots: List[List[Optional[int]]] = [[None, None]
                                                  for _ in range(max_clients)]

    @classmethod
    def build(cls, name, layer, deps, tokens):
        return cls(name, layer["driver_id"], deps.chip.alarm, deps.max_processes)

    def _slot_of(self, pid: Optional[int]) -> Optional[List[Optional[int]]]:
        """The first slot held by pid; with None, the first free slot."""
        return next((slot for slot in self._slots if slot[0] == pid), None)

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
            slot = self._slot_of(pid) or self._slot_of(None)
            if slot is None:
                return SyscallReturn.failure(ErrorCode.RESERVE)
            slot[:] = pid, deadline
            self._program()
            return SyscallReturn.success()
        if cmd == self.CMD_TIME:
            return SyscallReturn.success_value(self.hw.count)
        return SyscallReturn.failure(ErrorCode.NOSUPPORT)

    def handle_interrupt(self) -> None:
        now = self.hw.count
        due = [slot for slot in self._slots
               if slot[1] is not None and tick_passed(now, slot[1])]
        for slot in due:
            slot[1] = None
        for slot in due:
            self._fire(slot[0], now)
        self._program()

    def _fire(self, pid: int, now: int) -> None:
        def complete(grant):
            grant.write_u8(_ALARM_ARMED_OFF, 0)
            return grant.read_u32(_ALARM_DEADLINE_OFF)

        try:
            deadline = self.kern.grant_enter(pid, complete)
        except (ProcessDead, GrantNoMem):
            return  # process died between fire and delivery
        self.kern.schedule_upcall(pid, 0, [now & TICK_MASK, deadline, 0])

    def _distance(self, now: int, deadline: int) -> int:
        if tick_passed(now, deadline):
            return 0
        return (deadline - now) & TICK_MASK

    def _program(self) -> None:
        armed = [deadline for _, deadline in self._slots if deadline is not None]
        if not armed:
            self.hw.regs.field_set("CTRL", "IRQEN", 0)
            return
        now = self.hw.count
        best = min(armed, key=lambda deadline: self._distance(now, deadline))
        # COMPARE first: it reopens the fire latch while the IRQ is still
        # masked, so a stale compare value cannot fire spuriously.
        self.hw.regs.write_reg("COMPARE", best)
        self.hw.regs.field_set("CTRL", "ENABLE", 1)
        self.hw.regs.field_set("CTRL", "IRQEN", 1)

    def on_process_exit(self, pid: int) -> None:
        slot = self._slot_of(pid)
        if slot is not None:
            slot[1] = None
            self._program()
            slot[0] = None


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

    @classmethod
    def build(cls, name, layer, deps, tokens):
        size = layer["buffer_size"]  # a 64-byte window unless it declares one
        return cls(name, layer["driver_id"], deps.chip.uart,
                   64 if size is None else size)

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

    @classmethod
    def build(cls, name, layer, deps, tokens):
        token = next((t for t in tokens
                      if t.kind is CapabilityKind.PROCESS_MANAGEMENT), None)
        return cls(name, layer["driver_id"], token)

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

    NEEDS_DRIVER_ID = False


# The capsule class each board layer type names.
CAPSULE_TYPES: Dict[str, Type[Capsule]] = {
    "alarm": AlarmDriver,
    "console": ConsoleDriver,
    "probe": ProbeDriver,
    "manager": ManagerDriver,
    "annotation": AnnotationLayer,
}
