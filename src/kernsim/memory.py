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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .errors import AccessDenied, OutOfBounds, TooManyRegions
from .trace import K_MEM_ACCESS, K_MEM_FAULT, ACTOR_KERNEL, TraceLog, actor_process

ACCESS_NONE = "none"
ACCESS_READ = "read"
ACCESS_RW = "rw"
_ACCESS_LEVELS = (ACCESS_NONE, ACCESS_READ, ACCESS_RW)

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous protection region: [base, base + length)."""

    base: int
    length: int
    access: str = ACCESS_RW

    def __post_init__(self):
        if self.access not in _ACCESS_LEVELS:
            raise ValueError(f"bad access level {self.access!r}")
        if self.length < 0:
            raise ValueError("region length must be >= 0")
        if self.base < 0:
            raise ValueError("region base must be >= 0")

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


@dataclass(frozen=True)
class Accessor:
    """Who is touching memory: the kernel, or one process."""

    kind: str
    pid: Optional[int] = None

    @classmethod
    def kernel(cls) -> "Accessor":
        return cls("kernel")

    @classmethod
    def process(cls, pid: int) -> "Accessor":
        return cls("process", pid)

    @property
    def actor(self) -> str:
        if self.kind == "kernel":
            return ACTOR_KERNEL
        return actor_process(self.pid)


class MemoryController:
    """One flat byte array plus the per-process region tables."""

    def __init__(self, total_size: int, mpu_max_regions: int,
                 trace: Optional[TraceLog] = None):
        if total_size <= 0:
            raise ValueError("total_size must be positive")
        self.total_size = total_size
        self.data = bytearray(total_size)
        self.mpu_max_regions = mpu_max_regions
        self.trace = trace
        self._regions: Dict[int, List[MemoryRegion]] = {}

    # -- region configuration ------------------------------------------

    def configure_regions(self, pid: int, regions: Sequence[MemoryRegion]) -> None:
        """Replace the MPU configuration for a process.

        Zero-length regions may carry any base; they never match an access
        and are never dereferenced, so bounds do not apply to them.
        """
        if len(regions) > self.mpu_max_regions:
            raise TooManyRegions(
                f"{len(regions)} regions > MPU limit {self.mpu_max_regions}")
        for region in regions:
            if region.length > 0 and region.end > self.total_size:
                raise OutOfBounds(
                    f"region [{region.base}, {region.end}) outside "
                    f"{self.total_size}-byte space")
        self._regions[pid] = list(regions)

    def drop_regions(self, pid: int) -> None:
        self._regions.pop(pid, None)

    # -- access checks ----------------------------------------------------

    def check_access(self, pid: int, base: int, length: int, kind: str) -> bool:
        """Would this process access be allowed?

        Walks the (sorted) granting regions and verifies they cover
        [base, base + length) without a gap. Equivalent to the per-byte
        predicate "every byte lies in some region granting `kind`".
        """
        if length == 0:
            return True
        if base < 0:
            return False
        intervals = sorted(
            (r.base, r.end)
            for r in self._regions.get(pid, ())
            if r.length > 0 and r.grants(kind)
        )
        covered_to = base
        end = base + length
        for start, stop in intervals:
            if start > covered_to:
                break
            if stop > covered_to:
                covered_to = stop
            if covered_to >= end:
                return True
        return covered_to >= end

    # -- the access path ----------------------------------------------------

    def access(self, accessor: Accessor, base: int, length: int, kind: str,
               data: Optional[bytes] = None, note: Optional[Dict] = None) -> bytes:
        """Perform a checked read or write.

        Kernel accessors bypass region checks but not bounds checks.
        Process accessors must have full region coverage; a violation
        raises :class:`AccessDenied` (the caller decides the process's
        fate). Returns the bytes read, or ``b""`` for writes and for all
        zero-length accesses.
        """
        if kind == WRITE:
            if data is None:
                raise ValueError("write access requires data")
            if len(data) != length:
                raise ValueError("data length mismatch")
        if length == 0:
            # Never touches the array, never faults, leaves no trace event.
            return b""

        if accessor.kind == "kernel":
            if base < 0 or base + length > self.total_size:
                raise OutOfBounds(
                    f"kernel access [{base}, {base + length}) outside space")
        else:
            if not self.check_access(accessor.pid, base, length, kind):
                if self.trace is not None:
                    self.trace.log(accessor.actor, K_MEM_FAULT,
                                   {"base": base, "len": length, "op": kind})
                raise AccessDenied(accessor.pid, base, length, kind)

        if kind == READ:
            result = bytes(self.data[base:base + length])
        else:
            self.data[base:base + length] = data
            result = b""

        if self.trace is not None:
            payload = {"base": base, "len": length, "op": kind}
            if note:
                payload.update(note)
            self.trace.log(accessor.actor, K_MEM_ACCESS, payload)
        return result

    # Convenience wrappers used by the kernel and tests.

    def read(self, accessor: Accessor, base: int, length: int,
             note: Optional[Dict] = None) -> bytes:
        return self.access(accessor, base, length, READ, note=note)

    def write(self, accessor: Accessor, base: int, data: bytes,
              note: Optional[Dict] = None) -> None:
        self.access(accessor, base, len(data), WRITE, data=data, note=note)
