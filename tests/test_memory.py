import random

import pytest

from kernsim.errors import AccessDenied, OutOfBounds, TooManyRegions
from kernsim.memory import (
    ACCESS_NONE,
    ACCESS_READ,
    ACCESS_RW,
    READ,
    WRITE,
    MemoryController,
    MemoryRegion,
)
from kernsim.trace import TraceLog

from oracles import mpu_allowed, permission_bytemap


def controller(size=8192, mpu_max_regions=8):
    return MemoryController(size, mpu_max_regions, TraceLog())


def test_in_bounds_write_at_region_edge():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 4096, ACCESS_RW)])
    mem.write(1, 4095, b"\xaa")
    assert mem.read(1, 4095, 1) == b"\xaa"


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
        mem.read(1, 0, 1)
    mem.read(1, 64, 1)


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
        mem.read(1, 4096, 1)


def test_write_overlapping_edge_by_one_byte_denied():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 64, ACCESS_RW)])
    with pytest.raises(AccessDenied):
        mem.write(1, 60, b"\x00" * 5)


def test_coverage_may_span_adjacent_regions():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 32, ACCESS_RW),
                              MemoryRegion(32, 32, ACCESS_RW)])
    mem.write(1, 28, b"\x11" * 8)
    assert mem.read(1, 28, 8) == b"\x11" * 8


def test_read_only_region_rejects_writes():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 64, ACCESS_READ)])
    assert mem.read(1, 0, 4) == b"\x00" * 4
    with pytest.raises(AccessDenied):
        mem.write(1, 0, b"\x01")


def test_none_region_grants_nothing():
    mem = controller()
    mem.configure_regions(1, [MemoryRegion(0, 64, ACCESS_NONE)])
    with pytest.raises(AccessDenied):
        mem.read(1, 0, 1)


def test_zero_length_access_never_faults_or_touches():
    mem = controller(size=256)
    mem.configure_regions(1, [])
    snapshot = bytes(mem.data)
    assert mem.read(1, 999999, 0) == b""
    mem.write(1, 123456, b"")
    assert mem.read(None, 400, 0) == b""  # even past the end
    assert bytes(mem.data) == snapshot


def test_kernel_bypasses_regions_but_not_bounds():
    mem = controller(size=256)
    mem.configure_regions(1, [])
    mem.write(None, 0, b"\xfe")
    assert mem.read(None, 0, 1) == b"\xfe"
    with pytest.raises(OutOfBounds):
        mem.read(None, 250, 10)


def test_denied_access_modifies_nothing():
    mem = controller(size=256)
    mem.configure_regions(1, [MemoryRegion(0, 16, ACCESS_RW)])
    snapshot = bytes(mem.data)
    with pytest.raises(AccessDenied):
        mem.write(1, 8, b"\xff" * 16)  # tail out of region
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


def _random_regions(rng, space, limit):
    """Up to ``limit`` regions of every access level: some touch the one
    before, many overlap, some are empty (at any base)."""
    regions = []
    for _ in range(rng.randint(0, limit)):
        if regions and rng.random() < 0.3:
            base = min(regions[-1].end, space)
        else:
            base = rng.randrange(space + 1)
        if rng.random() < 0.15:
            base, length = rng.randrange(2 * space), 0
        else:
            length = rng.randint(0, space - base)
        regions.append(MemoryRegion(base, length,
                                    rng.choice((ACCESS_NONE, ACCESS_READ, ACCESS_RW))))
    return regions


def test_merged_coverage_matches_the_per_byte_oracle_on_random_regions():
    # Every (base, len, kind) on a 96-byte space, lengths running up to two
    # bytes past its end, for 200 seeded region sets.
    space, limit = 96, 8
    rng = random.Random(0x96)
    mem = controller(size=space, mpu_max_regions=limit)
    for _ in range(200):
        regions = _random_regions(rng, space, limit)
        mem.configure_regions(1, regions)
        for kind in (READ, WRITE):
            # Bytes past the space lie in no region.
            bytemap = permission_bytemap(regions, space + 2, kind)
            for base in range(space + 1):
                allowed = True
                assert mem.check_access(1, base, 0, kind)
                for length in range(1, space + 3 - base):
                    allowed = allowed and bytemap[base + length - 1]
                    assert mem.check_access(1, base, length, kind) == allowed, \
                        (regions, base, length, kind)
            assert not mem.check_access(1, -1, 1, kind)
            assert mem.check_access(1, -1, 0, kind)


def test_a_refused_configuration_leaves_the_previous_coverage():
    mem = controller(size=96, mpu_max_regions=2)
    mem.configure_regions(1, [MemoryRegion(0, 16, ACCESS_RW)])
    with pytest.raises(TooManyRegions):
        mem.configure_regions(1, [MemoryRegion(16, 16, ACCESS_RW)] * 3)
    with pytest.raises(OutOfBounds):
        mem.configure_regions(1, [MemoryRegion(16, 16, ACCESS_RW),
                                  MemoryRegion(90, 16, ACCESS_RW)])
    assert mem.check_access(1, 0, 16, WRITE)
    assert not mem.check_access(1, 16, 1, READ)


def test_dropped_and_unconfigured_processes_may_access_nothing():
    mem = controller(size=96)
    mem.configure_regions(1, [MemoryRegion(0, 96, ACCESS_RW)])
    mem.drop_regions(1)
    mem.drop_regions(2)  # never configured: a no-op
    for pid in (1, 2):
        for base in range(96):
            for length in (1, 96 - base):
                for kind in (READ, WRITE):
                    assert not mem.check_access(pid, base, length, kind)
        assert mem.check_access(pid, 0, 0, READ)
