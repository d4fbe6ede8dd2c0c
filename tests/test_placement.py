"""Where the loader places a process's image and RAM, checked against an
oracle that knows nothing of the kernel: first fit over a bitmap of
16-byte units, whose units a process holds from its process_created event
until its process_state event says it exited or faulted."""

import random

import pytest

from kernsim.audit import parse_trace

from conftest import make_board, script_source, trace_events

UNIT = 16
RAM_SIZES = (777, 1024, 2048, 4096, 65536, 1 << 20)


class Bitmap:
    """Board memory as ``total // UNIT`` units, each free or taken: a block
    takes whole units, so one that ends within a unit takes all of it, and
    the part of a last unit past ``total`` holds nothing."""

    def __init__(self, total: int):
        self.units = [False] * (total // UNIT)

    def place(self, size: int):
        """The base of the lowest run of free units that holds ``size``
        bytes, now taken; None if none does. Size 0 takes nothing, at 0."""
        if size == 0:
            return 0
        need = -(-size // UNIT)
        run = 0
        for unit, taken in enumerate(self.units):
            run = 0 if taken else run + 1
            if run == need:
                first = unit + 1 - need
                self.units[first:unit + 1] = [True] * need
                return first * UNIT
        return None

    def free(self, base: int, size: int) -> None:
        first, need = base // UNIT, -(-size // UNIT)
        self.units[first:first + need] = [False] * need


class Oracle:
    """What each load should get: the bases, or the NoRoom detail."""

    def __init__(self, total: int, max_processes: int):
        self.bitmap = Bitmap(total)
        self.max_processes = max_processes
        self.held = {}  # pid -> ((flash base, len), (ram base, len))

    def load(self, image: int, ram: int):
        """(flash_base, ram_base, None) or (None, None, NoRoom detail)."""
        if len(self.held) >= self.max_processes:
            return None, None, (f"max_processes reached: {self.max_processes} "
                                "processes are live")
        flash_base = self.bitmap.place(image)
        if flash_base is None:
            return None, None, "no room for program image"
        ram_base = self.bitmap.place(ram)
        if ram_base is None:
            self.bitmap.free(flash_base, image)
            return None, None, f"no room for {ram} bytes of process memory"
        return flash_base, ram_base, None

    def created(self, payload) -> None:
        self.held[payload["pid"]] = ((payload["flash_base"], payload["flash_len"]),
                                     (payload["ram_base"], payload["ram_len"]))

    def ended(self, pid: int) -> None:
        for base, size in self.held.pop(pid):
            self.bitmap.free(base, size)


class Driver:
    """A sync board whose trace the oracle follows: each load's result is
    checked against the oracle's, and each exit or fault frees its units."""

    def __init__(self, ram_size: int, max_processes: int = 256):
        self.board = make_board(ram_size=ram_size, max_processes=max_processes)
        self.oracle = Oracle(ram_size, max_processes)
        self.read = 0  # the trace lines the oracle has followed

    def _follow(self):
        lines = self.board.trace.out.getvalue().splitlines()[self.read:]
        self.read += len(lines)
        for record in parse_trace("\n".join(lines).encode("utf-8")):
            payload = record["payload"]
            if record["kind"] == "process_created":
                self.oracle.created(payload)
            elif record["kind"] == "process_state" and \
                    payload["state"] in ("exited", "faulted"):
                self.oracle.ended(payload["pid"])
            yield record

    def load(self, source: bytes, min_memory: int):
        """Load ``source`` and return what the board gave it, having checked
        that against the oracle: (flash_base, ram_base) or the detail."""
        want = self.oracle.load(len(source), min_memory)
        job = self.board.load_app(source)
        created = [r["payload"] for r in self._follow() if r["kind"] == "process_created"]
        if want[2] is None:
            assert job.pid is not None, job.detail
            assert [(c["flash_base"], c["flash_len"], c["ram_base"], c["ram_len"])
                    for c in created] == [(want[0], len(source), want[1], min_memory)]
            return want[0], want[1]
        assert (job.pid, job.reject_reason.value, job.detail, created) == \
            (None, "NoRoom", want[2], [])
        return want[2]

    def run(self, ticks: int) -> None:
        self.board.run(self.board.chip.clock.now + ticks)
        for _ in self._follow():
            pass


def halts(min_memory, pad=""):
    return script_source([{"op": "halt"}], min_memory=min_memory, pad=pad)


def waits(min_memory, pad="", ticks=10):
    """An app that waits ``ticks`` for its alarm, then halts."""
    return script_source([{"op": "sync_command", "driver": 0, "cmd": 1,
                           "args": [ticks, 0], "fn": "on_alarm"}, {"op": "halt"}],
                         {"on_alarm": []}, min_memory=min_memory, pad=pad)


def faults(min_memory, pad=""):
    """An app that reads the byte past its RAM, and faults."""
    return script_source([{"op": "read_local", "offset": min_memory, "len": 1}],
                         min_memory=min_memory, pad=pad)


@pytest.mark.parametrize("seed", range(120))
def test_each_load_gets_the_first_fit_the_oracle_gives(seed):
    rng = random.Random(seed)
    ram_size = RAM_SIZES[seed % len(RAM_SIZES)]
    driver = Driver(ram_size, max_processes=rng.choice((3, 8, 256)))
    for _ in range(40):
        if rng.random() < 0.4:
            driver.run(rng.randrange(1, 30))
            continue
        make = rng.choice((halts, waits, faults))
        min_memory = rng.choice((0, rng.randrange(1, 64),
                                 rng.randrange(1, max(2, ram_size // 4))))
        pad = "p" * rng.randrange(0, 200)
        if make is waits:
            driver.load(waits(min_memory, pad, rng.randrange(1, 40)), min_memory)
        else:
            driver.load(make(min_memory, pad), min_memory)
    trace_events(driver.board)


def _padded(size):
    return -(-size // UNIT) * UNIT


def test_a_process_without_ram_gets_base_0_and_takes_nothing():
    driver = Driver(4096)
    first, second = waits(0), waits(100)
    assert driver.load(first, 0) == (0, 0)
    # The next image starts where the first one's padded block ends.
    assert driver.load(second, 100) == (
        _padded(len(first)), _padded(len(first)) + _padded(len(second)))


def test_a_load_refused_for_its_ram_leaves_nothing_taken():
    driver = Driver(1024)
    first = waits(16)
    assert driver.load(first, 16) == (0, _padded(len(first)))
    offered = _padded(len(first)) + UNIT
    assert driver.load(waits(1024), 1024) == "no room for 1024 bytes of process memory"
    assert driver.load(halts(16), 16)[0] == offered


def test_a_gap_an_exit_frees_is_reused_from_its_lowest_base():
    driver = Driver(2048)
    driver.load(waits(32, ticks=50), 32)
    freed, _ = driver.load(halts(200, pad="p" * 40), 200)
    driver.load(waits(32, ticks=50), 32)
    driver.run(5)  # the halting app exits; the waiting ones still wait
    assert list(driver.oracle.held) == [1, 3]
    assert driver.load(halts(16), 16)[0] == freed
    driver.run(5)
    assert driver.load(faults(16), 16)[0] == freed
    driver.run(5)  # a fault frees its blocks too
    assert driver.load(halts(16), 16)[0] == freed


def test_a_full_table_refuses_before_placing():
    driver = Driver(4096, max_processes=1)
    driver.load(waits(16), 16)
    assert driver.load(halts(16), 16) == (
        "max_processes reached: 1 processes are live")
