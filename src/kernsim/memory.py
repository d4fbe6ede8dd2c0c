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
stitched together. Every access still checks coverage by the per-byte
rule above; it asks whether one merged interval holds all of its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


class _Actors(dict):
    """The trace actor of each accessor, built once per pid."""

    def __missing__(self, pid: int) -> str:
        actor = self[pid] = actor_process(pid)
        return actor


class MemoryController:
    """One flat byte array plus the per-process region tables."""

    def __init__(self, total_size: int, mpu_max_regions: int, trace: TraceLog):
        if total_size <= 0:
            raise ValueError("total_size must be positive")
        self.total_size = total_size
        self.data = bytearray(total_size)
        self.mpu_max_regions = mpu_max_regions
        self.trace = trace
        # The merged coverage of each configured process, per access kind.
        self._coverage: Dict[int, Dict[str, Coverage]] = {}
        self._actors = _Actors({None: ACTOR_KERNEL})

    # -- region configuration ------------------------------------------

    def configure_regions(self, pid: int, regions: Sequence[MemoryRegion]) -> None:
        """Replace the MPU configuration for a process.

        Zero-length regions may carry any base; they never match an access
        and are never dereferenced, so bounds do not apply to them. A
        refused configuration leaves the previous one in force.
        """
        if len(regions) > self.mpu_max_regions:
            raise TooManyRegions(
                f"{len(regions)} regions > MPU limit {self.mpu_max_regions}")
        for region in regions:
            if region.length > 0 and region.end > self.total_size:
                raise OutOfBounds(
                    f"region [{region.base}, {region.end}) outside "
                    f"{self.total_size}-byte space")
        self._coverage[pid] = {kind: _coverage(regions, kind)
                               for kind in (READ, WRITE)}

    def drop_regions(self, pid: int) -> None:
        self._coverage.pop(pid, None)

    # -- access checks ----------------------------------------------------

    def check_access(self, pid: int, base: int, length: int, kind: str) -> bool:
        """Would this process access be allowed?

        True iff one merged interval of the coverage granting ``kind``
        holds [base, base + length), which is the per-byte predicate
        "every byte lies in some region granting `kind`".
        """
        if length == 0:
            return True
        if base < 0:
            return False
        coverage = self._coverage.get(pid)
        if coverage is None:
            return False
        for start, stop in coverage[kind]:
            if base < start:
                return False
            if base + length <= stop:
                return True
        return False

    # -- the access path ----------------------------------------------------

    def access(self, pid: Optional[int], base: int, length: int, kind: str,
               data: Optional[bytes] = None, note: str = "") -> bytes:
        """Perform a checked read or write by process ``pid``, or by the
        kernel if ``pid`` is None.

        The kernel bypasses region checks but not bounds checks. A process
        must have full region coverage; a violation raises
        :class:`AccessDenied` (the caller decides the process's fate).
        Returns the bytes read, or ``b""`` for writes and zero-length ones.
        ``note`` is the encoded members that the ``mem_access`` payload
        carries after ``op``, each with its leading comma, for example
        ``',"purpose":"load_zero","pid":1'``.
        """
        if kind == WRITE:
            if data is None:
                raise ValueError("write access requires data")
            if len(data) != length:
                raise ValueError("data length mismatch")
        if length == 0:
            # Never touches the array, never faults, leaves no trace event.
            return b""

        actor = self._actors[pid]
        if pid is None:
            if base < 0 or base + length > self.total_size:
                raise OutOfBounds(
                    f"kernel access [{base}, {base + length}) outside space")
        elif not self.check_access(pid, base, length, kind):
            self.trace.log(actor, K_MEM_FAULT,
                           {"base": base, "len": length, "op": kind})
            raise AccessDenied(pid, base, length, kind)

        if kind == READ:
            result = bytes(self.data[base:base + length])
        else:
            self.data[base:base + length] = data
            result = b""

        self.trace.log(actor, K_MEM_ACCESS,
                       f'{{"base":{base},"len":{length},"op":"{kind}"{note}}}')
        return result

    # Convenience wrappers used by the kernel and tests.

    def read(self, pid: Optional[int], base: int, length: int,
             note: str = "") -> bytes:
        return self.access(pid, base, length, READ, note=note)

    def write(self, pid: Optional[int], base: int, data: bytes,
              note: str = "") -> None:
        self.access(pid, base, len(data), WRITE, data=data, note=note)
