import pytest

from kernsim.errors import AccessDenied, OutOfBounds, TooManyRegions
from kernsim.memory import (
    ACCESS_NONE,
    ACCESS_READ,
    ACCESS_RW,
    READ,
    WRITE,
    Accessor,
    MemoryController,
    MemoryRegion,
)

from oracles import mpu_allowed


def controller(size=8192, mpu_max_regions=8):
    return MemoryController(size, mpu_max_regions)


def test_in_bounds_write_at_region_edge():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 4096, ACCESS_RW)])
    mem.write(Accessor.process(1), 4095, b"\xaa")
    assert mem.read(Accessor.process(1), 4095, 1) == b"\xaa"


def test_region_count_limit():
    mem = controller(mpu_max_regions=8)
    regions = [MemoryRegion(i * 16, 8, ACCESS_RW) for i in range(9)]
    with pytest.raises(TooManyRegions):
        mem.configure_regions(1, regions)
    mem.configure_regions(1, regions[:8])


def test_region_must_fit_address_space():
    mem = controller(size=1024)
    with pytest.raises(OutOfBounds):
        mem.configure_regions(1, [MemoryRegion(1000, 100, ACCESS_RW)])


def test_zero_length_region_carries_arbitrary_base():
    mem = controller(size=256)
    mem.configure_regions(1, [MemoryRegion(999999, 0, ACCESS_RW)])


def test_reconfigure_discards_previous_regions():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 64, ACCESS_RW)])
    mem.configure_regions(1, [MemoryRegion(64, 64, ACCESS_RW)])
    with pytest.raises(AccessDenied):
        mem.read(Accessor.process(1), 0, 1)
    mem.read(Accessor.process(1), 64, 1)


def test_boundary_enumeration_against_oracle():
    # Enumerate addresses around a region edge and compare each outcome
    # with the per-byte predicate.
    mem = controller()
    regions = [MemoryRegion(0, 4096, ACCESS_RW)]
    mem.configure_regions(1, regions)
    for base in (4094, 4095, 4096, 4097):
        expected = mpu_allowed(regions, base, 1, "read")
        assert mem.check_access(1, base, 1, READ) == expected
    with pytest.raises(AccessDenied):
        mem.read(Accessor.process(1), 4096, 1)


def test_write_overlapping_edge_by_one_byte_denied():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 64, ACCESS_RW)])
    with pytest.raises(AccessDenied):
        mem.write(Accessor.process(1), 60, b"\x00" * 5)


def test_coverage_may_span_adjacent_regions():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 32, ACCESS_RW),
                              MemoryRegion(32, 32, ACCESS_RW)])
    mem.write(Accessor.process(1), 28, b"\x11" * 8)
    assert mem.read(Accessor.process(1), 28, 8) == b"\x11" * 8


def test_read_only_region_rejects_writes():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 64, ACCESS_READ)])
    assert mem.read(Accessor.process(1), 0, 4) == b"\x00" * 4
    with pytest.raises(AccessDenied):
        mem.write(Accessor.process(1), 0, b"\x01")


def test_none_region_grants_nothing():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 64, ACCESS_NONE)])
    with pytest.raises(AccessDenied):
        mem.read(Accessor.process(1), 0, 1)


def test_zero_length_access_never_faults_or_touches():
    mem = controller(size=256)
    mem.configure_regions(1, [])
    snapshot = bytes(mem.data)
    assert mem.read(Accessor.process(1), 999999, 0) == b""
    mem.write(Accessor.process(1), 123456, b"")
    assert mem.read(Accessor.kernel(), 400, 0) == b""  # even past the end
    assert bytes(mem.data) == snapshot


def test_kernel_bypasses_regions_but_not_bounds():
    mem = controller(size=256)
    mem.configure_regions(1, [])
    mem.write(Accessor.kernel(), 0, b"\xfe")
    assert mem.read(Accessor.kernel(), 0, 1) == b"\xfe"
    with pytest.raises(OutOfBounds):
        mem.read(Accessor.kernel(), 250, 10)


def test_denied_access_modifies_nothing():
    mem = controller(size=256)
    mem.configure_regions(1, [MemoryRegion(0, 16, ACCESS_RW)])
    snapshot = bytes(mem.data)
    with pytest.raises(AccessDenied):
        mem.write(Accessor.process(1), 8, b"\xff" * 16)  # tail out of region
    assert bytes(mem.data) == snapshot


def test_exhaustive_small_space_against_oracle():
    # Every (base, len, kind) on a 64-byte space, several region shapes.
    configs = [
        [MemoryRegion(0, 32, ACCESS_RW)],
        [MemoryRegion(0, 16, ACCESS_READ), MemoryRegion(16, 16, ACCESS_RW)],
        [MemoryRegion(8, 24, ACCESS_RW), MemoryRegion(16, 32, ACCESS_READ)],
        [MemoryRegion(0, 64, ACCESS_NONE), MemoryRegion(20, 0, ACCESS_RW)],
    ]
    mem = controller(size=64)
    for regions in configs:
        mem.configure_regions(1, regions)
        for base in range(0, 66):
            for length in range(0, 66 - base):
                for kind in (READ, WRITE):
                    assert mem.check_access(1, base, length, kind) == \
                        mpu_allowed(regions, base, length, kind), \
                        (regions, base, length, kind)
