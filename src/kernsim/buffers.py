"""Resizable views over owned byte buffers for split-phase drivers.

A :class:`BufferWindow` owns its backing storage for the life of the
program and exposes a movable window onto it. Layers narrow the window to
exactly the bytes they care about, hand the whole object down a
split-phase call, and the original owner can always restore the full
extent afterwards; no slicing operation ever loses the backing buffer.

Ownership transfer across a split-phase call is tracked at runtime: while
a window is in flight the holder that started the operation must not
touch it, and doing so is a detected contract violation.
"""

from __future__ import annotations

from .errors import RangeError, WindowInFlight


class BufferWindow:
    def __init__(self, backing) -> None:
        # A bytearray is kept as it is; a size or bytes are copied into one.
        if not isinstance(backing, bytearray):
            backing = bytearray(backing)
        self._backing = backing
        self._start = 0
        self._length = len(backing)
        self._in_flight = False

    # -- geometry -----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self._backing)

    def __len__(self) -> int:
        return self._length

    def _guard(self) -> None:
        if self._in_flight:
            raise WindowInFlight("window is owned by an in-flight operation")

    def slice(self, start: int, length: int) -> "BufferWindow":
        """Narrow to a sub-range of the current window (offsets relative
        to the window, not the backing buffer)."""
        self._guard()
        if start < 0 or length < 0 or start + length > self._length:
            raise RangeError(
                f"slice [{start}, {start + length}) outside window of {self._length}")
        self._start += start
        self._length = length
        return self

    def reset(self) -> "BufferWindow":
        """Restore the window to the complete underlying buffer."""
        self._guard()
        self._start = 0
        self._length = self.capacity
        return self

    # -- data access ---------------------------------------------------------

    def read(self, offset: int = 0, length: int = None) -> bytes:
        self._guard()
        if length is None:
            length = self._length - offset
        if offset < 0 or length < 0 or offset + length > self._length:
            raise RangeError("read outside window")
        base = self._start + offset
        return bytes(self._backing[base:base + length])

    def write(self, offset: int, data: bytes) -> None:
        self._guard()
        if offset < 0 or offset + len(data) > self._length:
            raise RangeError("write outside window")
        base = self._start + offset
        self._backing[base:base + len(data)] = data

    # -- split-phase ownership -------------------------------------------------

    def take(self) -> None:
        """Mark the window as owned by an in-flight operation."""
        self._guard()
        self._in_flight = True

    def release(self) -> None:
        self._in_flight = False

    def hw_read(self, offset: int, length: int) -> bytes:
        """Hardware-side read of ``length`` bytes; valid even while in flight.

        DMA engines stream from the window the software handed them; the
        in-flight guard restrains software holders, not the hardware.
        """
        if offset < 0 or length < 0 or offset + length > self._length:
            raise RangeError("hw_read outside window")
        base = self._start + offset
        return bytes(self._backing[base:base + length])
