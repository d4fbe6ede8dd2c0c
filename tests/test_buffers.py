import random

import pytest

from kernsim.buffers import BufferWindow
from kernsim.errors import RangeError, WindowInFlight


# Each byte of this backing holds its own offset, so a read shows where
# the window starts and how long it is.
def _counting():
    return BufferWindow(bytearray(range(64)))


def test_slice_composes_relative_offsets():
    w = _counting()
    w.slice(0, 16).slice(4, 8)
    assert w.read() == bytes(range(4, 12))
    assert w.capacity == 64


def test_full_slice_is_identity():
    w = _counting()
    w.slice(0, w.capacity)
    assert w.read() == bytes(range(64))


def test_slice_out_of_range():
    w = BufferWindow(64)
    with pytest.raises(RangeError):
        w.slice(60, 8)


def test_reset_restores_full_extent():
    w = _counting()
    w.slice(10, 20).slice(5, 5)
    w.reset()
    assert w.read() == bytes(range(64))
    w.reset()
    assert w.read() == bytes(range(64))  # idempotent


def test_window_data_access_is_window_relative():
    w = BufferWindow(bytearray(b"abcdefgh"))
    w.slice(2, 4)
    assert w.read() == b"cdef"
    w.write(1, b"XY")
    w.reset()
    assert w.read() == b"abcXYfgh"


def test_random_slice_chains_then_reset_preserve_everything():
    rng = random.Random(7)
    for _ in range(200):
        original = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 128)))
        w = BufferWindow(bytearray(original))
        for _ in range(rng.randrange(0, 10)):
            if len(w) == 0:
                break
            start = rng.randrange(0, len(w) + 1)
            length = rng.randrange(0, len(w) - start + 1)
            w.slice(start, length)
        w.reset()
        assert w.capacity == len(original)
        assert w.read() == original


def test_in_flight_window_is_untouchable():
    w = BufferWindow(16)
    w.take()
    for call in (lambda: w.slice(0, 4), lambda: w.reset(),
                 lambda: w.read(0, 1), lambda: w.write(0, b"x"),
                 lambda: w.take()):
        with pytest.raises(WindowInFlight):
            call()
    w.release()
    w.reset()


def test_hw_read_works_while_in_flight():
    w = BufferWindow(bytearray(b"\x10\x20\x30\x40"))
    w.slice(1, 3)
    w.take()
    assert w.hw_read(1, 2) == b"\x30\x40"
    assert w.hw_read(3, 0) == b""
    for offset, length in ((3, 1), (2, 2), (-1, 1), (0, -1)):
        with pytest.raises(RangeError):
            w.hw_read(offset, length)
