"""The single-stack event-driven kernel.

One object owns everything that runs: syscall dispatch with swap
semantics, grant allocation inside process memory, per-process upcall
queues, the round-robin scheduler, process lifecycle, and the process
loader, one state machine that checks each binary once, synchronously or
on the hash engine's interrupt. Capsules interact with it only through the
:class:`CapsuleServices` facade they are handed at registration, which
charges their step budget and never exposes storable handles.

Swap semantics in one line: allow and subscribe install the new share and
return the previous one; the first call on a slot returns the
distinguished empty region (base 0, length 0) or the null upcall. The
kernel owns the slots. A capsule reaches process memory only through a
:class:`ScopedRegion`, one view of a grant allocation or of an allowed
buffer that is handed to a visitor and invalidated when it returns.

Inside the kernel a process is named by its control block: a script's
compiled steps hand over the PCB of the process that runs them, and pids
appear only at the capsule boundary, where a capsule names a process to
visit its grant or an allowed buffer, or to schedule an upcall. Nor does the
memory controller name processes: a PCB hands its own MPU configuration to
each access it makes, and holds each share and grant with its trace note.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from itertools import count
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Tuple

from .abi import (
    ALLOW_CLASSES,
    NULL_UPCALL,
    ErrorCode,
    SyscallClass,
    SyscallInvocation,
    SyscallReturn,
    UpcallDescriptor,
    YieldMode,
    call_text,
    encode_return,
    match_return,
)
from .capabilities import BoardPhase, CapabilityKind, CapabilityRegistry
from .errors import (
    AccessDenied,
    CapsuleBudgetExceeded,
    GrantNoMem,
    InvalidTransition,
    NoSharedBuffer,
    PhaseError,
    ProcessDead,
    RangeError,
    ReentrancyError,
    ScenarioError,
    SimulationDiagnostic,
    StaleHandle,
    WriteToReadOnly,
)
from .hw import Chip
from .loader import (
    BinaryHeader,
    HeaderError,
    LoaderState,
    RejectReason,
    credential_accepted,
    fnv1a64,
    parse_binary,
)
from .memory import (
    ACCESS_READ,
    ACCESS_RW,
    EMPTY_REGION,
    READ,
    WRITE,
    MemoryController,
    MemoryRegion,
    MpuConfig,
)
from .scenario import ProcessProgram, ScenarioScript, parse_script_bytes
from .trace import (
    ACTOR_KERNEL,
    K_CAPSULE_ERROR,
    K_CAPSULE_REGISTERED,
    K_EXPECT,
    K_GRANT_ALLOC,
    K_GRANT_NOMEM,
    K_HASH_SUBMIT,
    K_LOADER_STATE,
    K_PRIVILEGED_OP,
    K_PROCESS_CREATED,
    K_PROCESS_STATE,
    K_SYSCALL,
    K_SYSCALL_RETURN,
    K_UPCALL_DROPPED,
    K_UPCALL_QUEUED,
    K_UPCALL_RUN,
    TraceLog,
    actor_capsule,
)

CARVE_ALIGN = 16


class ProcessState(str, Enum):
    UNSTARTED = "unstarted"
    RUNNING = "running"
    YIELDED_WAIT = "yielded_wait"
    FAULTED = "faulted"
    EXITED = "exited"


# The members the loop and the syscall path test against, bound once: an
# Enum class attribute lookup costs far more than a module global.
_UNSTARTED, _RUNNING, _YIELDED_WAIT = LIVE_STATES = (
    ProcessState.UNSTARTED, ProcessState.RUNNING, ProcessState.YIELDED_WAIT)
_SUBSCRIBE, _COMMAND, _YIELD, _NO_WAIT = (SyscallClass.SUBSCRIBE, SyscallClass.COMMAND,
                                          SyscallClass.YIELD, YieldMode.NO_WAIT)
_FINALIZED = BoardPhase.FINALIZED
# A yield's returns and texts: success, and no_wait's 1 (ran an upcall) and 0.
_SUCCESS, _RAN_UPCALL, _NONE_QUEUED = ((ret, encode_return(ret)) for ret in (
    SyscallReturn.success(), SyscallReturn.success_value(1), SyscallReturn.success_value(0)))


@dataclass
class ProcessControlBlock:
    """One process, with the writers of its ``syscall``, ``syscall_return``,
    ``expect`` and ``upcall_run`` events, bound from ``trace`` when it is
    created; its ``mpu`` holds its ``mem_access`` writer."""

    id: int
    name: str
    ram: MemoryRegion
    flash: MemoryRegion
    program: ProcessProgram
    mpu: MpuConfig  # checks each access of the process; a grant replaces it
    trace: InitVar[TraceLog]
    state: ProcessState = ProcessState.UNSTARTED
    grant_watermark: int = 0  # grants grow downward from ram.end
    # Each share and grant with the note its accesses carry, encoded when
    # it is installed.
    allow_slots: Dict[Tuple[int, int, str], Tuple[MemoryRegion, str]] = \
        field(default_factory=dict)
    upcall_slots: Dict[Tuple[int, int], UpcallDescriptor] = field(default_factory=dict)
    # The args of each slot's pending upcall, oldest first; it runs the
    # handler its slot holds then, as a subscribe that succeeds drops it.
    upcall_queue: Dict[Tuple[int, int], Tuple[int, int, int]] = field(default_factory=dict)
    grants: Dict[str, Tuple[MemoryRegion, str]] = field(default_factory=dict)
    # The compact JSON text of the record the last syscall_return event
    # carried. An `expect` matches its pattern against it and logs it as
    # "actual".
    last_return_text: Optional[str] = None
    actor: str = field(init=False)  # the trace actor, the config's own

    def __post_init__(self, trace: TraceLog):
        self.actor = actor = self.mpu.actor
        self.log_syscall, self.log_return, self.log_expect, self.log_upcall_run = (
            trace.channel(actor, kind)
            for kind in (K_SYSCALL, K_SYSCALL_RETURN, K_EXPECT, K_UPCALL_RUN))

    @property
    def free_grant_bytes(self) -> int:
        return self.grant_watermark - self.ram.base

    @property
    def live(self) -> bool:
        return self.state in LIVE_STATES


class CarveAllocator:
    """First-fit allocator for process carve-outs in board RAM."""

    def __init__(self, total: int):
        self._free: List[Tuple[int, int]] = [(0, total)]

    def _pad(self, size: int) -> int:
        return (size + CARVE_ALIGN - 1) // CARVE_ALIGN * CARVE_ALIGN

    def allocate(self, size: int) -> Optional[int]:
        if size == 0:
            return 0
        padded = self._pad(size)
        for i, (base, length) in enumerate(self._free):
            if length >= padded:
                if length == padded:
                    del self._free[i]
                else:
                    self._free[i] = (base + padded, length - padded)
                return base
        return None

    def release(self, base: int, size: int) -> None:
        """Free ``size`` bytes, never 0: a program image is a parsed script,
        and a process's RAM is released only if it has some."""
        self._free.append((base, self._pad(size)))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for start, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((start, length))
        self._free = merged


# --- scoped views handed to capsules ---------------------------------------------

def region_note(via: str, purpose: str, detail: str) -> str:
    """The encoded note of a capsule's accesses to a region: it names the
    capsule ("via"), the purpose and then ``detail``, the encoded members
    that follow."""
    return f',"via":{encode_basestring_ascii(via)},"purpose":"{purpose}"{detail}'


class ScopedRegion:
    """A capsule's view of one region of process memory: a grant
    allocation or an allowed buffer. Valid only inside the visitor call it
    is handed to. Every access is bounds-checked against the region and
    logged with ``note``, the :func:`region_note` of the capsule ``via``
    and the ``purpose``; only a read-write region can be written."""

    __slots__ = ("_memory", "_region", "_via", "_purpose", "_note", "_live")

    def __init__(self, memory: MemoryController, region: MemoryRegion,
                 via: str, purpose: str, note: str):
        self._memory = memory
        self._region = region
        self._via = via
        self._purpose = purpose
        self._note = note
        self._live = True

    def _span(self, offset: int, length: int) -> int:
        if not self._live:
            raise StaleHandle(f"{self._purpose} handle for "
                              f"{self._via!r} used after visit")
        size = self._region.length
        if offset < 0 or length < 0 or offset + length > size:
            raise RangeError(f"access [{offset}, {offset + length}) outside "
                             f"{size}-byte {self._purpose} region")
        return self._region.base + offset

    def read(self, offset: int, length: int) -> bytes:
        return self._memory.access(None, self._span(offset, length), length,
                                   READ, note=self._note)

    def write(self, offset: int, data: bytes) -> None:
        if self._region.access != ACCESS_RW:
            raise WriteToReadOnly(
                f"capsule {self._via!r} wrote through a read-only share")
        length = len(data)
        self._memory.access(None, self._span(offset, length), length, WRITE,
                            data, self._note)

    def write_u8(self, offset: int, value: int) -> None:
        self.write(offset, bytes([value & 0xFF]))

    def read_u32(self, offset: int) -> int:
        return int.from_bytes(self.read(offset, 4), "little")

    def write_u32(self, offset: int, value: int) -> None:
        self.write(offset, (value & 0xFFFFFFFF).to_bytes(4, "little"))


class CapsuleServices:
    """The only kernel surface a capsule can reach. Every call charges the
    capsule's step budget."""

    def __init__(self, kernel: "Kernel", capsule):
        self._kernel = kernel
        self._capsule = capsule

    def schedule_upcall(self, pid: int, subscribe_num: int, args) -> bool:
        self._kernel.charge_capsule()
        return self._kernel.schedule_upcall(
            self._capsule.name, self._capsule.driver_id, pid, subscribe_num, args)

    def grant_enter(self, pid: int, visitor: Callable):
        self._kernel.charge_capsule()
        return self._kernel.grant_enter(
            self._capsule.name, self._capsule.GRANT_SCHEMA, pid, visitor)

    def with_rw_buffer(self, pid: int, buf_num: int, visitor: Callable):
        self._kernel.charge_capsule()
        return self._kernel.with_buffer(self._capsule, pid, buf_num, "rw", visitor)

    def with_ro_buffer(self, pid: int, buf_num: int, visitor: Callable):
        self._kernel.charge_capsule()
        return self._kernel.with_buffer(self._capsule, pid, buf_num, "ro", visitor)

    def report_error(self, message: str) -> None:
        self._kernel.charge_capsule()
        self._kernel.trace.log(actor_capsule(self._capsule.name), K_CAPSULE_ERROR,
                               {"error": message})

    def process_destroy(self, token, pid: int) -> None:
        self._kernel.charge_capsule()
        self._kernel.process_destroy(token, pid)


# --- process loading --------------------------------------------------------------

@dataclass
class LoaderJob:
    job_id: int
    name: str
    state: LoaderState = LoaderState.FETCHED
    header: Optional[BinaryHeader] = None
    payload: bytes = b""
    reject_reason: Optional[RejectReason] = None
    detail: str = ""
    pid: Optional[int] = None
    # The packer's parse, kept only for the payload (its source) and name
    # it was made from, and handed to the runnability stage.
    script: Optional[ScenarioScript] = None


class ProcessLoader:
    """Three-stage loader state machine: the header is checked when a
    binary is submitted, then the credential and runnability once the
    loader has digested the payload it holds (:func:`fnv1a64`), at once
    (sync) or on the hash engine's completion interrupt (async). The board
    fixes the mode, verifier policy and trusted key ids when it builds the
    kernel, and every load follows them, whoever submits it; an async
    board has a hash engine, as the board check requires."""

    def __init__(self, kernel: "Kernel", mode: str, verifier_policy: str,
                 trusted_key_ids):
        self.kernel = kernel
        self.sync = mode == "sync"
        self.verifier_policy = verifier_policy
        self.trusted_key_ids = tuple(trusted_key_ids)
        self._ids = count(1)
        self._waiting: List[LoaderJob] = []

    def submit(self, token, blob: bytes, name: str,
               script: Optional[ScenarioScript] = None) -> LoaderJob:
        kernel = self.kernel
        kernel.registry.validate(token, CapabilityKind.LOADER_CONTROL)
        job = LoaderJob(next(self._ids), name)
        kernel.trace.log(ACTOR_KERNEL, K_PRIVILEGED_OP,
                         {"op": "load_process",
                          "kind": CapabilityKind.LOADER_CONTROL.value,
                          "holder": kernel.current_holder(), "job": job.job_id})
        self._transition(job, LoaderState.FETCHED)
        try:
            job.header, job.payload = parse_binary(bytes(blob))
        except HeaderError as exc:
            self._reject(job, RejectReason.BAD_HEADER, str(exc))
            return job
        if script is not None and script.name == name and \
                script.source == job.payload:
            job.payload = script.source  # keep one copy of the bytes
            job.script = script
        self._transition(job, LoaderState.HEADER_CHECKED)
        self._transition(job, LoaderState.INTEGRITY_PENDING)
        if self.sync:
            # Same machine, driven inline: the digest is taken on the spot
            # instead of by the hash engine.
            self.advance(job, fnv1a64(job.payload))
        else:
            self._waiting.append(job)
            self._feed_engine()
        return job

    def _transition(self, job: LoaderJob, state: LoaderState, **extra) -> None:
        job.state = state
        self.kernel.trace.log(ACTOR_KERNEL, K_LOADER_STATE,
                              {"job": job.job_id, "state": state.value, **extra})

    def _reject(self, job: LoaderJob, reason: RejectReason, detail: str) -> None:
        job.reject_reason = reason
        job.detail = detail
        self._transition(job, LoaderState.REJECTED, reason=reason.value,
                         detail=detail)

    def advance(self, job: LoaderJob, digest: int) -> None:
        """The integrity and runnability stages, given the payload's digest."""
        if job.state is not LoaderState.INTEGRITY_PENDING:
            raise InvalidTransition(f"integrity check while {job.state.value}")
        if not credential_accepted(self.verifier_policy, job.header, digest,
                                   self.trusted_key_ids):
            self._reject(job, RejectReason.BAD_INTEGRITY,
                         "credential digest not accepted")
            return
        self._transition(job, LoaderState.INTEGRITY_CHECKED)
        pid, reason, detail = self.kernel.try_create_process(
            job.header, job.payload, job.name, job.script)
        if pid is None:
            self._reject(job, reason, detail)
        else:
            job.pid = pid
            self._transition(job, LoaderState.RUNNABLE, pid=pid)

    def _feed_engine(self) -> None:
        """Start the next waiting job if the hash engine is free. A job
        waits only while the engine is busy, so an integrity check in
        flight always keeps the engine busy or its interrupt pending."""
        engine = self.kernel.chip.hashengine
        if self._waiting and not engine.busy:
            job = self._waiting.pop(0)
            engine.submit(job.payload, job, fnv1a64(job.payload))
            self.kernel.trace.log(ACTOR_KERNEL, K_HASH_SUBMIT,
                                  {"job": job.job_id, "len": len(job.payload)})

    def on_hash_irq(self, job: LoaderJob, digest: int) -> None:
        """The hash engine's client: a job's digest is ready."""
        self.advance(job, digest)
        self._feed_engine()


# --- the kernel --------------------------------------------------------------------

class Kernel:
    def __init__(self, memory: MemoryController, chip: Chip, trace: TraceLog,
                 registry: CapabilityRegistry, *,
                 upcall_queue_depth: int, capsule_step_budget: int,
                 max_processes: int, loader: str, verifier_policy: str,
                 trusted_key_ids):
        self.memory = memory
        self.chip = chip
        self.trace = trace
        self._log_state = trace.channel(ACTOR_KERNEL, K_PROCESS_STATE)
        # Each capsule's upcall_queued and upcall_dropped writers, bound on first use.
        self._upcall_writers: Dict[str, Tuple[Callable[[str], None], ...]] = {}
        self.registry = registry
        self.upcall_queue_depth = upcall_queue_depth
        self.capsule_step_budget = capsule_step_budget
        self.max_processes = max_processes

        self.processes: Dict[int, ProcessControlBlock] = {}
        # The live subset of processes, in pid order (pids only grow).
        self._live: List[ProcessControlBlock] = []
        self._next_pid = count(1)
        self.capsules: List[Any] = []
        self.drivers: Dict[int, Any] = {}
        self._frames: List[List[Any]] = []
        self._grant_entries: set = set()
        self.allocator = CarveAllocator(memory.total_size)
        self.loader = ProcessLoader(self, loader, verifier_policy, trusted_key_ids)
        self.expect_failures = 0

    # -- capsule registration and budget ------------------------------------

    def register_capsule(self, capsule) -> None:
        """Called only by ``Board`` while it builds, before finalize."""
        if capsule.driver_id is not None:  # the board checked it is unique
            self.drivers[capsule.driver_id] = capsule
        self.capsules.append(capsule)
        capsule.attach(CapsuleServices(self, capsule))
        self.trace.log(ACTOR_KERNEL, K_CAPSULE_REGISTERED,
                       {"name": capsule.name, "driver_id": capsule.driver_id})

    def capsule_call(self, capsule, entry: str, *args):
        """Run one capsule entry point under a fresh step-budget frame.

        Any exception the capsule lets escape, other than a diagnostic,
        becomes a diagnostic naming the capsule and the entry point.
        """
        self._frames.append([capsule.name, self.capsule_step_budget])
        try:
            return getattr(capsule, entry)(*args)
        except SimulationDiagnostic:
            raise
        except Exception as exc:
            raise SimulationDiagnostic(
                f"capsule {capsule.name!r} crashed in {entry}: {exc!r}") from exc
        finally:
            self._frames.pop()

    def charge_capsule(self) -> None:
        """Charge the running capsule one step: a capsule reaches its
        services only from its entry points, run by :meth:`capsule_call`."""
        frame = self._frames[-1]
        frame[1] -= 1
        if frame[1] < 0:
            raise CapsuleBudgetExceeded(
                f"capsule {frame[0]!r} exceeded its step budget")

    def current_holder(self) -> str:
        return self._frames[-1][0] if self._frames else "kernel"

    # -- process creation -------------------------------------------------------

    def try_create_process(self, header: BinaryHeader, payload: bytes,
                           name: str, script: Optional[ScenarioScript] = None):
        """Runnability stage: returns (pid, None, "") or
        (None, reject_reason, detail). The payload is parsed unless the
        script parsed from it is given."""
        if script is None:
            try:
                script = parse_script_bytes(payload, name)
            except ScenarioError as exc:
                return None, RejectReason.NOT_RUNNABLE, str(exc)
        if header.entry_name != "main" or script.entry != "main":
            return None, RejectReason.NOT_RUNNABLE, \
                f"no entry handler {header.entry_name!r}"
        if len(self._live) >= self.max_processes:
            return None, RejectReason.NO_ROOM, \
                f"max_processes reached: {self.max_processes} processes are live"
        flash_base = self.allocator.allocate(len(payload))
        if flash_base is None:
            return None, RejectReason.NO_ROOM, "no room for program image"
        ram_base = self.allocator.allocate(header.min_memory)
        if ram_base is None:
            self.allocator.release(flash_base, len(payload))
            return None, RejectReason.NO_ROOM, \
                f"no room for {header.min_memory} bytes of process memory"

        pid = next(self._next_pid)
        flash = MemoryRegion(flash_base, len(payload), ACCESS_READ)
        ram = MemoryRegion(ram_base, header.min_memory, ACCESS_RW)
        self.memory.write(None, flash.base, payload,
                          note=f',"purpose":"load_image","pid":{pid}')
        self.memory.write(None, ram.base, bytes(ram.length),
                          note=f',"purpose":"load_zero","pid":{pid}')
        pcb = ProcessControlBlock(
            id=pid, name=script.name or name, ram=ram, flash=flash,
            program=ProcessProgram(script),
            mpu=self._mpu_config(pid, flash, ram, ram.end), trace=self.trace,
            grant_watermark=ram.end)
        self.processes[pid] = pcb
        self._live.append(pcb)
        self.trace.log(ACTOR_KERNEL, K_PROCESS_CREATED,
                       {"pid": pid, "name": pcb.name,
                        "ram_base": ram.base, "ram_len": ram.length,
                        "flash_base": flash.base, "flash_len": flash.length})
        return pid, None, ""

    def _mpu_config(self, pid: int, flash: MemoryRegion, ram: MemoryRegion,
                    watermark: int) -> MpuConfig:
        # The accessible RAM region ends at the grant watermark: grant
        # allocations are kernel state and are walled off from the process.
        return self.memory.configure_regions(pid, [
            flash, MemoryRegion(ram.base, watermark - ram.base, ACCESS_RW)])

    def _live_pcb(self, pid: int) -> ProcessControlBlock:
        """The live process a capsule names by pid."""
        pcb = self.processes.get(pid)
        if pcb is None or not pcb.live:
            raise ProcessDead(f"pid {pid} is not live")
        return pcb

    # -- syscall dispatch -----------------------------------------------------------

    def handle_syscall(self, pcb: ProcessControlBlock, inv: SyscallInvocation,
                       text: Optional[str] = None) -> Optional[SyscallReturn]:
        """Dispatch one system call of a live process, logged as ``text``, its
        call_text, if given. Returns None when no value is delivered to the
        process: a blocked yield-wait, a yield whose upcall ended it, or exit."""
        if not pcb.live:
            raise ProcessDead(f"pid {pcb.id} is not live")
        pcb.log_syscall(text or call_text(inv))
        klass = inv.klass
        if klass is _COMMAND:
            ret = self._sys_command(pcb, inv)
        elif klass is _YIELD:
            return self._sys_yield(pcb, inv)
        elif klass is _SUBSCRIBE:
            ret = self._sys_subscribe(pcb, inv)
        elif klass in ALLOW_CLASSES:
            ret = self._sys_allow(pcb, inv)
        else:  # EXIT
            self._terminate(pcb, ProcessState.EXITED, "exit syscall")
            return None
        self._return(pcb, ret)
        return ret

    def _return(self, pcb: ProcessControlBlock, ret: SyscallReturn, text=None) -> None:
        """Deliver a syscall's return value: log its text and keep it."""
        text = pcb.last_return_text = text or encode_return(ret)
        pcb.log_return(f'{{"ret":{text}}}')

    def _sys_allow(self, pcb: ProcessControlBlock,
                   inv: SyscallInvocation) -> SyscallReturn:
        mode = "rw" if inv.klass is SyscallClass.RW_ALLOW else "ro"
        driver = self.drivers.get(inv.driver_id)
        if driver is None:
            return SyscallReturn.failure_region(ErrorCode.NODEVICE,
                                                inv.base, inv.length)
        limit = driver.NUM_RW_BUFFERS if mode == "rw" else driver.NUM_RO_BUFFERS
        if not 0 <= inv.subcommand < limit:
            return SyscallReturn.failure_region(ErrorCode.INVAL,
                                                inv.base, inv.length)
        if inv.length > 0:
            # rw shares need a writeable region, ro shares a readable one.
            kind = WRITE if mode == "rw" else READ
            if not self.memory.check_access(pcb.mpu, inv.base, inv.length, kind):
                return SyscallReturn.failure_region(ErrorCode.INVAL,
                                                    inv.base, inv.length)
        # Zero-length regions are accepted unconditionally at any base:
        # they are the reclaim idiom and are never dereferenced.
        key = (inv.driver_id, inv.subcommand, mode)
        previous, _ = pcb.allow_slots.get(key, (EMPTY_REGION, ""))
        access = ACCESS_RW if mode == "rw" else ACCESS_READ
        # Only the capsule registered under the driver id visits the slot.
        note = region_note(driver.name, "allow",
                           f',"pid":{pcb.id},"driver":{inv.driver_id},'
                           f'"buf":{inv.subcommand},"mode":"{mode}"')
        pcb.allow_slots[key] = (MemoryRegion(inv.base, inv.length, access), note)
        return SyscallReturn.success_region(previous.base, previous.length)

    def _sys_subscribe(self, pcb: ProcessControlBlock,
                       inv: SyscallInvocation) -> SyscallReturn:
        driver = self.drivers.get(inv.driver_id)
        if driver is None:
            return SyscallReturn.failure(ErrorCode.NODEVICE)
        if not 0 <= inv.subcommand < driver.NUM_SUBSCRIBES:
            return SyscallReturn.failure(ErrorCode.INVAL)
        if inv.fn_id != "null" and inv.fn_id not in pcb.program.handlers:
            return SyscallReturn.failure(ErrorCode.INVAL)
        key = (inv.driver_id, inv.subcommand)
        previous = pcb.upcall_slots.get(key, NULL_UPCALL)
        if inv.fn_id == "null":
            pcb.upcall_slots[key] = NULL_UPCALL
        else:
            pcb.upcall_slots[key] = UpcallDescriptor(inv.fn_id, inv.userdata)
        # An upcall the slot queued before the swap never runs.
        pcb.upcall_queue.pop(key, None)
        return SyscallReturn.success_upcall(previous)

    def _sys_command(self, pcb: ProcessControlBlock,
                     inv: SyscallInvocation) -> SyscallReturn:
        driver = self.drivers.get(inv.driver_id)
        if driver is None:
            return SyscallReturn.failure(ErrorCode.NODEVICE)
        if inv.subcommand == 0:
            # Existence probe: answered by the kernel for every driver.
            return SyscallReturn.success()
        ret = self.capsule_call(driver, "command", inv.subcommand, inv.arg0,
                                inv.arg1, pcb.id)
        if not isinstance(ret, SyscallReturn):
            raise SimulationDiagnostic(
                f"capsule {driver.name!r} returned {ret!r} from command")
        return ret

    def _sys_yield(self, pcb: ProcessControlBlock,
                   inv: SyscallInvocation) -> Optional[SyscallReturn]:
        if pcb.upcall_queue:
            self._deliver_upcall(pcb)
            if pcb.state is not _RUNNING:
                return None  # the upcall ended the process
            ret, text = _RAN_UPCALL if inv.yield_mode is _NO_WAIT else _SUCCESS
        elif inv.yield_mode is _NO_WAIT:
            ret, text = _NONE_QUEUED
        else:
            self._set_state(pcb, _YIELDED_WAIT)
            return None
        self._return(pcb, ret, text)
        return ret

    # -- upcalls ------------------------------------------------------------------

    def schedule_upcall(self, capsule_name: str, driver_id: int, pid: int,
                        subscribe_num: int, args) -> bool:
        args = (*args, 0, 0, 0)[:3]
        writers = self._upcall_writers.get(capsule_name)
        if writers is None:
            actor = actor_capsule(capsule_name)
            writers = self._upcall_writers[capsule_name] = (
                self.trace.channel(actor, K_UPCALL_QUEUED),
                self.trace.channel(actor, K_UPCALL_DROPPED))
        queued, dropped = writers
        detail = (f'{{"pid":{pid},"driver":{driver_id},"sub":{subscribe_num},'
                  f'"args":[{args[0]},{args[1]},{args[2]}],')
        pcb = self.processes.get(pid)
        if pcb is None or not pcb.live:
            dropped(detail + '"reason":"dead process"}')
            return False
        slot = (driver_id, subscribe_num)
        if pcb.upcall_slots.get(slot, NULL_UPCALL).is_null:
            dropped(detail + '"reason":"null subscription"}')
            return False
        queue = pcb.upcall_queue
        # Per-slot replacement: stale completions never pile up, and a
        # replaced upcall keeps its place in the queue.
        replaced = slot in queue
        if not replaced and len(queue) >= self.upcall_queue_depth:
            dropped(detail + '"reason":"queue full"}')
            return False
        queue[slot] = args
        queued(detail + ('"replaced":true}' if replaced else '"replaced":false}'))
        return True

    def _deliver_upcall(self, pcb: ProcessControlBlock) -> None:
        queue = pcb.upcall_queue
        slot = next(iter(queue))
        a0, a1, a2 = queue.pop(slot)
        handler = pcb.upcall_slots[slot]
        pcb.log_upcall_run(f'{{"driver":{slot[0]},"sub":{slot[1]},'
                           f'"fn":{encode_basestring_ascii(handler.fn_id)},'
                           f'"userdata":{handler.userdata},"args":[{a0},{a1},{a2}]}}')
        pcb.program.run_handler(self, pcb, handler.fn_id)

    def _resume_yielded(self, pcb: ProcessControlBlock) -> None:
        """A yield-wait completes: run one queued upcall, then hand the
        yield's return value to the script."""
        self._set_state(pcb, _RUNNING)
        self._deliver_upcall(pcb)
        if pcb.state is _RUNNING:
            self._return(pcb, *_SUCCESS)

    # -- grants ---------------------------------------------------------------------

    def grant_enter(self, capsule_name: str, schema_size: int, pid: int,
                    visitor: Callable):
        pcb = self._live_pcb(pid)
        key = (capsule_name, pid)
        if key in self._grant_entries:
            raise ReentrancyError(
                f"capsule {capsule_name!r} re-entered its grant for pid {pid}")
        grant = pcb.grants.get(capsule_name)
        if grant is None:
            top = pcb.grant_watermark
            base = top - schema_size
            if schema_size > pcb.free_grant_bytes:
                refused = (f"pid {pid} has {pcb.free_grant_bytes} bytes free, "
                           f"grant needs {schema_size}")
            elif schema_size and any(slot.length and slot.base < top and base < slot.end
                                     for slot, _ in pcb.allow_slots.values()):
                # A grant never takes bytes that a live allow shares.
                refused = f"grant [{base}, {top}) overlaps a buffer pid {pid} shares"
            else:
                refused = ""
            if refused:
                self.trace.log(ACTOR_KERNEL, K_GRANT_NOMEM,
                               {"pid": pid, "capsule": capsule_name,
                                "size": schema_size})
                raise GrantNoMem(refused)
            if schema_size:
                self.memory.write(None, base, bytes(schema_size),
                                  note=region_note(capsule_name, "grant_zero",
                                                   f',"pid":{pid}'))
            grant = pcb.grants[capsule_name] = (
                MemoryRegion(base, schema_size),
                region_note(capsule_name, "grant", f',"pid":{pid}'))
            pcb.mpu = self._mpu_config(pid, pcb.flash, pcb.ram, base)
            pcb.grant_watermark = base
            self.trace.log(ACTOR_KERNEL, K_GRANT_ALLOC,
                           {"pid": pid, "capsule": capsule_name,
                            "size": schema_size, "base": base})
        self._grant_entries.add(key)
        handle = ScopedRegion(self.memory, grant[0], capsule_name, "grant", grant[1])
        try:
            return visitor(handle)
        finally:
            handle._live = False
            self._grant_entries.discard(key)

    # -- scoped buffer access ------------------------------------------------------

    def with_buffer(self, capsule, pid: int, buf_num: int, mode: str,
                    visitor: Callable):
        """Hand the visitor a fresh view of the buffer pid shares in the
        capsule's slot, invalidated when the visitor returns, so a capsule
        cannot keep it."""
        pcb = self._live_pcb(pid)
        key = (capsule.driver_id, buf_num, mode)
        share = pcb.allow_slots.get(key)
        if share is None:
            raise NoSharedBuffer(
                f"pid {pid} shares nothing in slot {key}")
        handle = ScopedRegion(self.memory, share[0], capsule.name, "allow", share[1])
        try:
            return visitor(handle)
        finally:
            handle._live = False

    # -- process-local memory (the script side) ---------------------------------------

    def process_local_write(self, pcb: ProcessControlBlock, offset: int,
                            data: bytes) -> bool:
        try:
            self.memory.write(pcb.mpu, pcb.ram.base + offset, data)
        except AccessDenied:
            self.fault_process(pcb, f"write_local at offset {offset}")
            return False
        return True

    def process_local_read(self, pcb: ProcessControlBlock, offset: int,
                           length: int) -> Optional[bytes]:
        try:
            return self.memory.read(pcb.mpu, pcb.ram.base + offset, length)
        except AccessDenied:
            self.fault_process(pcb, f"read_local at offset {offset}")
            return None

    def record_expect(self, pcb: ProcessControlBlock, pattern: Dict[str, Any],
                      text: str) -> None:
        """Match an expect's pattern against the text of the last return,
        and log ``text``, the pattern as the trace writes it. A pattern
        whose text is the return's passes without a parse: equal texts are
        equal records."""
        actual = pcb.last_return_text
        passed = text == actual or (actual is not None and match_return(pattern, actual))
        pcb.log_expect(f'{{"pattern":{text},'
                       f'"actual":{actual or "null"},'
                       f'"pass":{"true" if passed else "false"}}}')
        if not passed:
            self.expect_failures += 1

    # -- lifecycle ----------------------------------------------------------------------

    def exit_process(self, pcb: ProcessControlBlock, reason: str) -> None:
        self._terminate(pcb, ProcessState.EXITED, reason)

    def fault_process(self, pcb: ProcessControlBlock, reason: str) -> None:
        self._terminate(pcb, ProcessState.FAULTED, reason)

    def _terminate(self, pcb: ProcessControlBlock, state: ProcessState,
                   reason: str) -> None:
        """End a live process: its steps run only while it runs, and
        :meth:`handle_syscall` and :meth:`process_destroy` refuse a dead one."""
        pcb.allow_slots.clear()
        pcb.upcall_slots.clear()
        pcb.upcall_queue.clear()
        pcb.grants.clear()
        self._live.remove(pcb)
        if pcb.ram.length:
            self.allocator.release(pcb.ram.base, pcb.ram.length)
        self.allocator.release(pcb.flash.base, pcb.flash.length)
        self._set_state(pcb, state, reason)
        # Let every capsule drop in-flight references to this process.
        for capsule in self.capsules:
            self.capsule_call(capsule, "on_process_exit", pcb.id)

    def _set_state(self, pcb: ProcessControlBlock, state: ProcessState,
                   reason: Optional[str] = None) -> None:
        pcb.state = state
        tail = f',"reason":{encode_basestring_ascii(reason)}' if reason else ""
        self._log_state(f'{{"pid":{pcb.id},"state":"{state.value}"{tail}}}')

    # -- privileged, capability-gated operations ------------------------------------------

    def process_destroy(self, token, pid: int) -> None:
        self.registry.validate(token, CapabilityKind.PROCESS_MANAGEMENT)
        pcb = self._live_pcb(pid)
        self.trace.log(ACTOR_KERNEL, K_PRIVILEGED_OP,
                       {"op": "process_destroy",
                        "kind": CapabilityKind.PROCESS_MANAGEMENT.value,
                        "holder": self.current_holder(), "pid": pid})
        self._terminate(pcb, ProcessState.EXITED, "destroyed")

    # -- the loop --------------------------------------------------------------------------

    def loop_step(self) -> bool:
        """One kernel loop iteration: service interrupts, then give every
        schedulable process one syscall-or-upcall quantum, in pid order.
        Returns False when there was nothing at all to do."""
        if self.registry.phase is not _FINALIZED:
            raise PhaseError("the kernel loop only runs on a finalized board")
        progressed = self.chip.irqc.service() > 0
        # A snapshot: a process created during this step first runs in the
        # next one, and one that dies during it is skipped by its state.
        for pcb in tuple(self._live):
            state = pcb.state
            if state is _RUNNING:
                pcb.program.advance(self, pcb)
                progressed = True
            elif state is _YIELDED_WAIT:
                if pcb.upcall_queue:
                    self._resume_yielded(pcb)
                    progressed = True
            elif state is _UNSTARTED:
                self._set_state(pcb, _RUNNING, "started")
                pcb.program.advance(self, pcb)
                progressed = True
        return progressed

    def quiescent(self) -> bool:
        """The sleep condition, checked in this order: every live process
        waits in a yield with no upcall queued, then no interrupt is
        pending and the chip's ``ticks_until_event()``, its only work
        test, is None. A loader job in its integrity check keeps the hash
        engine busy or its interrupt pending."""
        for pcb in self._live:
            if pcb.state is not _YIELDED_WAIT or pcb.upcall_queue:
                return False
        chip = self.chip
        return not chip.irqc.any_pending() and chip.ticks_until_event() is None
