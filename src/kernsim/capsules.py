"""Semi-trusted kernel extensions (capsules) and the hardware layer glue.

Capsules are restricted to safe surfaces: the kernel services facade they
are handed at attach time (scoped buffer visitors, grants, upcall
scheduling) and the interface calls of the peripherals they were built
over (``set_alarm``, ``disarm``, ``transmit_buffer``), never their
registers; a capsule that takes a peripheral's interrupt is its one
client. They never receive raw process memory or storable buffer handles.

Also here: configuration-time composition validation for capsule stacks.
The alarm driver multiplexes the one hardware compare register across
the processes that arm alarms.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

from .abi import U32_MAX, ErrorCode, SyscallReturn
from .capabilities import CapabilityKind
from .errors import (
    GrantNoMem,
    Key,
    NoSharedBuffer,
    ProcessDead,
    RangeError,
    Schema,
    WriteToReadOnly,
)
from .hw import AlarmHw, UartHw, ticks_until
from .trace import encode_json, json_equal

CONFIGURABLE = "configurable"
MAX_BUFFER_SIZE = 64 * 1024  # the largest console buffer


# --- composition ------------------------------------------------------------

def validate_composition(layers: List[Dict[str, Any]]) -> List[str]:
    """Check a stack of board layers bottom-first; returns every mismatch,
    naming both layers and the violated property. A layer's ``provides``
    and ``requires`` are objects of property -> value, and a provider
    value of "configurable" satisfies any required value for that
    property; any other must be the same JSON value, so ``true`` does not
    satisfy ``1``, and a provided null counts as provided. A layer's
    ``buffer_size`` must meet the ``min_buffer_size`` of the layer beneath
    it. A value that is not an object or an integer (one the board check
    refused) declares nothing. A message writes values as compact JSON."""
    mismatches: List[str] = []
    for i, layer in enumerate(layers):
        below = layers[i - 1] if i > 0 else None
        name = layer["name"]
        for prop, wanted in (layer.get("requires") or {}).items():
            head = f"layer {name!r} requires {prop}={encode_json(wanted)} but"
            if below is None:
                mismatches.append(f"{head} is at the bottom of the stack")
                continue
            provided = below.get("provides") or {}
            have = provided.get(prop)
            if prop not in provided:
                mismatches.append(
                    f"{head} layer {below['name']!r} does not provide {prop}")
            elif have != CONFIGURABLE and not json_equal(have, wanted):
                mismatches.append(f"{head} layer {below['name']!r} provides "
                                  f"{prop}={encode_json(have)}")
        size = layer.get("buffer_size")
        floor = below and below.get("min_buffer_size")
        if type(size) is int and type(floor) is int and size < floor:
            mismatches.append(
                f"layer {name!r} has buffer_size={size} below "
                f"min_buffer_size={floor} declared by layer {below['name']!r}")
    return mismatches


# --- capsule base ---------------------------------------------------------------

class Capsule:
    """Base class for kernel extensions.

    Subclasses declare how many subscribe and allow slots their driver
    surface exposes and, if they keep per-process state, the byte size of
    their grant schema. A board layer names a subclass by its type (see
    CAPSULE_TYPES) and holds only the keys of its LAYER (by default a
    driver's); the board needs the IRQ_PERIPHERAL, whose interrupt the
    capsule takes, and may grant it only the kinds in CAPABILITIES. Such a
    capsule's ``handle_interrupt`` takes that peripheral's completion.
    """

    NUM_SUBSCRIBES = 0
    NUM_RW_BUFFERS = 0
    NUM_RO_BUFFERS = 0
    GRANT_SCHEMA = 0
    IRQ_PERIPHERAL: Optional[str] = None
    # A syscall names its driver in one 32-bit register.
    LAYER: Schema = {"name": Key(str, 1, required=True),
                     "driver_id": Key(int, 0, U32_MAX, required=True),
                     "provides": Key(dict, default={}),
                     "requires": Key(dict, default={}),
                     "min_buffer_size": Key(int, 0)}
    CAPABILITIES: Tuple[CapabilityKind, ...] = ()

    def __init__(self, name: str, driver_id: Optional[int] = None):
        self.name = name
        self.driver_id = driver_id
        self.kern = None  # services facade, set by attach()

    @classmethod
    def build(cls, name: str, layer: Dict[str, Any], deps, tokens) -> "Capsule":
        """The capsule a checked board layer describes, built over the
        board's chip (``deps``) with the capability tokens granted to it."""
        return cls(name, layer.get("driver_id"))

    def attach(self, services) -> None:
        self.kern = services

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        return SyscallReturn.failure(ErrorCode.NOSUPPORT)

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

    There is one slot per process the board allows. A process takes the
    first free slot when it first arms an alarm and holds it until it
    exits, so every arm finds one, and a deadline is set only while its
    process, and so its grant, lives. COMPARE always holds the
    armed deadline that comes soonest (wraparound-aware); when it fires,
    every slot whose deadline has passed is delivered, in slot order, and
    COMPARE is reprogrammed for the next one.

    Commands: 1 = arm an alarm at an absolute tick (arg0), 2 = read the
    alarm's COUNT, the frame deadlines are in. Subscribe slot 0 receives
    (fire_tick, deadline, 0).

    As Tock's ``capsules/core/src/alarm.rs`` does over ``hil::time``, the
    driver keeps only its slot table: it arms and disarms the hardware
    through ``AlarmHw.set_alarm`` and ``AlarmHw.disarm``, and is the
    alarm's client, so a fire calls :meth:`handle_interrupt`.
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
            deadline = arg0

            def arm(grant):
                grant.write_u8(_ALARM_ARMED_OFF, 1)
                grant.write_u32(_ALARM_DEADLINE_OFF, deadline)

            try:
                self.kern.grant_enter(pid, arm)
            except GrantNoMem:
                return SyscallReturn.failure(ErrorCode.NOMEM)
            slot = self._slot_of(pid) or self._slot_of(None)
            slot[:] = pid, deadline
            self._program()
            return SyscallReturn.success()
        if cmd == self.CMD_TIME:
            return SyscallReturn.success_value(self.hw.count)
        return SyscallReturn.failure(ErrorCode.NOSUPPORT)

    def handle_interrupt(self) -> None:
        now = self.hw.count
        due = [slot for slot in self._slots
               if slot[1] is not None and not ticks_until(now, slot[1])]
        for slot in due:
            slot[1] = None
        for slot in due:
            self._fire(slot[0], now)
        self._program()

    def _fire(self, pid: int, now: int) -> None:
        def complete(grant):
            grant.write_u8(_ALARM_ARMED_OFF, 0)
            return grant.read_u32(_ALARM_DEADLINE_OFF)

        deadline = self.kern.grant_enter(pid, complete)
        self.kern.schedule_upcall(pid, 0, [now, deadline, 0])

    def _program(self) -> None:
        """Arm the alarm at the soonest deadline (the first in slot order
        of equals), or disarm it if none is set."""
        now = self.hw.count
        best = gap = None
        for _, deadline in self._slots:
            if deadline is not None:
                until = ticks_until(now, deadline)
                if gap is None or until < gap:
                    best, gap = deadline, until
        if best is None:
            self.hw.disarm()
        else:
            self.hw.set_alarm(best)

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
    driver copies the bytes into its own buffer and lends the buffer to
    the UART with the transfer length, as Tock's console does with the
    buffer in its ``TakeCell``: ``self.buffer`` is None while the UART
    holds it, and command 1 answers BUSY exactly then. The console is the
    UART's client: the completion interrupt hands the buffer back to
    :meth:`handle_interrupt` with the count sent.
    """

    NUM_SUBSCRIBES = 1
    NUM_RO_BUFFERS = 1
    IRQ_PERIPHERAL = "uart"
    LAYER: Schema = {**Capsule.LAYER,
                     "buffer_size": Key(int, 0, MAX_BUFFER_SIZE, 64)}

    CMD_WRITE = 1

    def __init__(self, name: str, driver_id: int, uart: UartHw,
                 buffer_size: int):
        super().__init__(name, driver_id)
        self.uart = uart
        self.buffer: Optional[bytearray] = bytearray(buffer_size)
        self._owner_pid: Optional[int] = None

    @classmethod
    def build(cls, name, layer, deps, tokens):
        return cls(name, layer["driver_id"], deps.chip.uart, layer["buffer_size"])

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        if cmd != self.CMD_WRITE:
            return SyscallReturn.failure(ErrorCode.NOSUPPORT)
        buffer = self.buffer
        if buffer is None:
            return SyscallReturn.failure(ErrorCode.BUSY)
        length = arg0
        if length < 1 or length > len(buffer):
            return SyscallReturn.failure(ErrorCode.SIZE)
        try:
            data = self.kern.with_ro_buffer(pid, 0, lambda h: h.read(0, length))
        except NoSharedBuffer:
            return SyscallReturn.failure(ErrorCode.RESERVE)
        except RangeError:
            return SyscallReturn.failure(ErrorCode.SIZE)
        buffer[:length] = data
        self.buffer = None
        self._owner_pid = pid
        self.uart.transmit_buffer(buffer, length)
        return SyscallReturn.success()

    def handle_interrupt(self, buffer: bytearray, count: int) -> None:
        self.buffer = buffer
        pid, self._owner_pid = self._owner_pid, None
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
    write through the read-only share, which the kernel's scoped view always
    refuses, so it reports 1; 4 = read byte through the read-only share.
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
                try:
                    self.kern.with_ro_buffer(
                        pid, 0, lambda h: h.write(arg0, bytes([arg1 & 0xFF])))
                except WriteToReadOnly:
                    self.kern.report_error("write refused on read-only share")
                return SyscallReturn.success_value(1)
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

    CAPABILITIES = (CapabilityKind.PROCESS_MANAGEMENT,)

    CMD_DESTROY = 1

    def __init__(self, name: str, driver_id: int, token=None):
        super().__init__(name, driver_id)
        self.token = token

    @classmethod
    def build(cls, name, layer, deps, tokens):
        return cls(name, layer["driver_id"], *tokens)

    def command(self, cmd: int, arg0: int, arg1: int, pid: int) -> SyscallReturn:
        if cmd != self.CMD_DESTROY or self.token is None:
            return SyscallReturn.failure(ErrorCode.NOSUPPORT)
        try:
            self.kern.process_destroy(self.token, arg0)
        except ProcessDead:
            return SyscallReturn.failure(ErrorCode.INVAL)
        return SyscallReturn.success()


class AnnotationLayer(Capsule):
    """Inert layer that exists only for composition annotations."""

    LAYER: Schema = {name: key for name, key in Capsule.LAYER.items()
                     if name != "driver_id"}


# The capsule class each board layer type names, fixed at import as a
# Tock board's main.rs fixes its capsules when the kernel is built.
CAPSULE_TYPES: Dict[str, Type[Capsule]] = {
    "alarm": AlarmDriver,
    "console": ConsoleDriver,
    "probe": ProbeDriver,
    "manager": ManagerDriver,
    "annotation": AnnotationLayer,
}
