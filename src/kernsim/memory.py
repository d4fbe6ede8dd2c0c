"""Flat simulated RAM with per-process protection regions.

This is the enforcement point for process isolation: every
process-originated access, and every kernel access into process memory,
goes through :class:`MemoryController`. The protection model is the usual
single-address-space MPU one: a small, fixed number of (base, length,
access) regions per process, no translation.

Two rules from the protection model deserve calling out because they are
easy to get wrong:

* an access is allowed iff every byte of it is covered by some region
  granting the needed permission; coverage may be stitched together from
  several regions, and
* zero-length accesses and zero-length regions are always legal at any
  base address; they transfer nothing and are never dereferenced.

Coverage is computed when a process's regions change, not on every
access: :meth:`MemoryController.configure_regions` merges the regions
granting each access kind into sorted, disjoint intervals, touching ones
stitched together, and returns them as an immutable :class:`MpuConfig`,
which the process's control block holds and hands to each access; the
controller keeps no per-process state. Every access still checks
coverage by the per-byte rule above; it asks whether one merged interval
holds all of its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import AccessDenied, OutOfBounds, TooManyRegions
from .trace import K_MEM_ACCESS, K_MEM_FAULT, ACTOR_KERNEL, TraceLog, actor_process

ACCESS_NONE = "none"
ACCESS_READ = "read"
ACCESS_RW = "rw"

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous protection region: [base, base + length), built by the
    kernel with a known access level and a non-negative base and length."""

    base: int
    length: int
    access: str = ACCESS_RW

    @property
    def end(self) -> int:
        return self.base + self.length

    def grants(self, kind: str) -> bool:
        if self.access == ACCESS_RW:
            return True
        if self.access == ACCESS_READ:
            return kind == READ
        return False


EMPTY_REGION = MemoryRegion(0, 0, ACCESS_NONE)

# Sorted, disjoint [start, stop) intervals, no two touching.
Coverage = Tuple[Tuple[int, int], ...]


def _coverage(regions: Sequence[MemoryRegion], kind: str) -> Coverage:
    """The bytes that the regions granting ``kind`` cover, merged."""
    merged: List[Tuple[int, int]] = []
    for start, stop in sorted((r.base, r.end) for r in regions
                              if r.length > 0 and r.grants(kind)):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return tuple(merged)


class MpuConfig(NamedTuple):
    """One process's MPU configuration: its pid, its trace actor, the
    merged coverage of the regions granting reads and writes, and the
    writer of the process's ``mem_access`` events."""

    pid: int
    actor: str
    read: Coverage
    write: Coverage
    log_access: Callable[[str], None]


class MemoryController:
    """One flat byte array, its limits, the trace its accesses go to and
    the writer of the kernel's ``mem_access`` events."""

    def __init__(self, total_size: int, mpu_max_regions: int, trace: TraceLog):
        self.total_size = total_size
        self.data = bytearray(total_size)
        self.mpu_max_regions = mpu_max_regions
        self.trace = trace
        self._log_kernel_access = trace.channel(ACTOR_KERNEL, K_MEM_ACCESS)

    # -- region configuration ------------------------------------------

    def configure_regions(self, pid: int, regions: Sequence[MemoryRegion]) -> MpuConfig:
        """The MPU configuration of process ``pid`` with these regions.

        Zero-length regions may carry any base; they never match an access
        and are never dereferenced, so bounds do not apply to them. A
        refused configuration raises; the config the caller holds stays.
        """
        if len(regions) > self.mpu_max_regions:
            raise TooManyRegions(
                f"{len(regions)} regions > MPU limit {self.mpu_max_regions}")
        for region in regions:
            if region.length > 0 and region.end > self.total_size:
                raise OutOfBounds(
                    f"region [{region.base}, {region.end}) outside "
                    f"{self.total_size}-byte space")
        actor = actor_process(pid)
        return MpuConfig(pid, actor, _coverage(regions, READ), _coverage(regions, WRITE),
                         self.trace.channel(actor, K_MEM_ACCESS))

    # -- access checks ----------------------------------------------------

    def check_access(self, config: MpuConfig, base: int, length: int, kind: str) -> bool:
        """Would this access by the process with ``config`` be allowed?

        True iff one merged interval of the coverage granting ``kind``
        holds [base, base + length), which is the per-byte predicate
        "every byte lies in some region granting `kind`".
        """
        if length == 0:
            return True
        if base < 0:
            return False
        for start, stop in config.read if kind == READ else config.write:
            if base < start:
                return False
            if base + length <= stop:
                return True
        return False

    # -- the access path ----------------------------------------------------

    def access(self, config: Optional[MpuConfig], base: int, length: int,
               kind: str, data: Optional[bytes] = None, note: str = "") -> bytes:
        """Perform a checked read or write by the process with ``config``,
        or by the kernel if ``config`` is None.

        The kernel bypasses region checks but not bounds checks. A process
        must have full region coverage; a violation raises
        :class:`AccessDenied` (the caller decides the process's fate).
        Returns the bytes read, or ``b""`` for writes and zero-length ones.
        ``note`` is the encoded members that the ``mem_access`` payload
        carries after ``op``, each with its leading comma, for example
        ``',"purpose":"load_zero","pid":1'``. A write's ``length`` is ``len(data)``.
        """
        if length == 0:
            # Never touches the array, never faults, leaves no trace event.
            return b""

        if config is None:
            log_access = self._log_kernel_access
            if base < 0 or base + length > self.total_size:
                raise OutOfBounds(
                    f"kernel access [{base}, {base + length}) outside space")
        else:
            log_access = config.log_access
            if not self.check_access(config, base, length, kind):
                self.trace.log(config.actor, K_MEM_FAULT,
                               {"base": base, "len": length, "op": kind})
                raise AccessDenied(config.pid, base, length, kind)

        if kind == READ:
            result = bytes(self.data[base:base + length])
        else:
            self.data[base:base + length] = data
            result = b""

        log_access(f'{{"base":{base},"len":{length},"op":"{kind}"{note}}}')
        return result

    # Convenience wrappers used by the kernel and tests.

    def read(self, config: Optional[MpuConfig], base: int, length: int,
             note: str = "") -> bytes:
        return self.access(config, base, length, READ, note=note)

    def write(self, config: Optional[MpuConfig], base: int, data: bytes,
              note: str = "") -> None:
        self.access(config, base, len(data), WRITE, data=data, note=note)
