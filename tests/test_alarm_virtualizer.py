import json
import random
from bisect import bisect_right
from pathlib import Path

from kernsim.abi import SyscallReturn
from kernsim.capsules import AlarmDriver
from kernsim.hw import AlarmHw, InterruptController
from kernsim.regmap import RegisterFile, load_register_map
from kernsim.trace import TraceLog

from oracles import alarm_oracle

MAPS_DIR = Path(__file__).resolve().parents[1] / "src" / "kernsim" / "maps"
ALARM_SPEC = load_register_map(json.loads((MAPS_DIR / "alarm.json").read_text()))

RING = 1 << 32
CTRL = ALARM_SPEC.register("CTRL")
ENABLE = CTRL.field("ENABLE").mask
IRQEN = CTRL.field("IRQEN").mask


class FakeGrant:
    """A grant handle over a plain byte array."""

    def __init__(self, data):
        self.data = data

    def write_u8(self, offset, value):
        self.data[offset] = value & 0xFF

    def read_u32(self, offset):
        return int.from_bytes(self.data[offset:offset + 4], "little")

    def write_u32(self, offset, value):
        self.data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")


class FakeServices:
    """The kernel services the alarm driver uses: a byte-array grant per
    pid, and each scheduled upcall recorded as (client, fire tick), where
    client c is pid c + 1."""

    def __init__(self):
        self.grants = {}
        self.fires = []

    def grant_enter(self, pid, visitor):
        grant = self.grants.setdefault(pid, bytearray(AlarmDriver.GRANT_SCHEMA))
        return visitor(FakeGrant(grant))

    def schedule_upcall(self, pid, subscribe_num, args):
        self.fires.append((pid - 1, args[0]))
        return True


def set_alarm(driver, client, deadline):
    assert driver.command(AlarmDriver.CMD_SET, deadline, 0, client + 1) == \
        SyscallReturn.success()


def make_driver(n_clients, initial_count=0):
    """An alarm driver with n_clients processes attached, client c holding
    slot c, so that same-tick fires come in client order as in the oracle."""
    irqc = InterruptController(TraceLog())
    hw = AlarmHw(ALARM_SPEC, irqc, 0, initial_count=initial_count)
    driver = AlarmDriver("alarm", 0, hw, n_clients)
    services = FakeServices()
    driver.attach(services)
    for i in range(n_clients):
        driver._slots[i][0] = i + 1
    hw.client = driver.handle_interrupt
    return hw, irqc, driver, services.fires


def replay(n_clients, set_events, total_ticks, initial_count=0):
    """Drive the real alarm driver: apply sets scheduled for a tick, advance
    the hardware, then service any pending interrupt.

    Like Board.run, it steps one tick while an interrupt is pending and
    otherwise jumps to the next scheduled set or compare match, whichever
    comes first; the ticks skipped would change nothing.
    """
    hw, irqc, driver, fires = make_driver(n_clients, initial_count)
    sets_at = {}
    for at, cid, deadline in set_events:
        sets_at.setdefault(at, []).append((cid, deadline % RING))
    set_ticks = sorted(sets_at)
    t = 0
    while t < total_ticks:
        for cid, deadline in sets_at.get(t, []):
            set_alarm(driver, cid, deadline)
        n = 1
        if not irqc.any_pending():
            later = bisect_right(set_ticks, t)
            n = (set_ticks[later] if later < len(set_ticks) else total_ticks) - t
            gap = hw.ticks_until_event()
            if gap is not None:
                n = min(n, gap)
        hw.tick(n)
        irqc.service()
        t += n
    return fires


def test_min_deadline_programs_hardware():
    hw, irqc, driver, fires = make_driver(2)
    set_alarm(driver, 0, 100)
    assert hw.regs.hw_get("COMPARE") == 100
    set_alarm(driver, 1, 50)
    assert hw.regs.hw_get("COMPARE") == 50
    for _ in range(50):
        hw.tick()
    irqc.service()
    assert fires == [(1, 50)]
    # re-armed for the next minimum
    assert hw.regs.hw_get("COMPARE") == 100
    for _ in range(50):
        hw.tick()
    irqc.service()
    assert fires == [(1, 50), (0, 100)]


def test_deadline_now_fires_on_next_service():
    hw, irqc, driver, fires = make_driver(1, initial_count=10)
    set_alarm(driver, 0, 10)
    hw.tick()
    irqc.service()
    assert fires == [(0, 11)]


def test_same_tick_clients_fire_in_registration_order():
    hw, irqc, driver, fires = make_driver(3)
    set_alarm(driver, 2, 100)
    set_alarm(driver, 0, 100)
    for _ in range(100):
        hw.tick()
    irqc.service()
    assert fires == [(0, 100), (2, 100)]


def test_reset_replaces_previous_deadline():
    hw, irqc, driver, fires = make_driver(1)
    set_alarm(driver, 0, 30)
    set_alarm(driver, 0, 60)
    for _ in range(45):
        hw.tick()
        irqc.service()
    assert fires == []
    for _ in range(15):
        hw.tick()
        irqc.service()
    assert fires == [(0, 60)]


def test_disarm_cancels():
    hw, irqc, driver, fires = make_driver(2)
    set_alarm(driver, 0, 20)
    set_alarm(driver, 1, 40)
    driver.on_process_exit(1)  # client 0 exits
    for _ in range(60):
        hw.tick()
        irqc.service()
    assert fires == [(1, 40)]


def mmio_writes(monkeypatch):
    """Record every software write to a register file as (register, value)."""
    writes = []
    original = RegisterFile.mmio_write

    def recording(self, offset, value):
        writes.append((self.spec.by_offset(offset).name, value))
        return original(self, offset, value)

    monkeypatch.setattr(RegisterFile, "mmio_write", recording)
    return writes


def test_arm_and_fire_register_traffic(monkeypatch):
    writes = mmio_writes(monkeypatch)
    hw, irqc, driver, fires = make_driver(1)
    regs = hw.regs
    # An arm is two writes: COMPARE, then CTRL with both bits in one write.
    set_alarm(driver, 0, 30)
    assert writes == [("COMPARE", 30), ("CTRL", ENABLE | IRQEN)]
    assert (regs.field_get("CTRL", "ENABLE"), regs.field_get("CTRL", "IRQEN"),
            regs.read_reg("COMPARE")) == (1, 1, 30)
    # A fire that leaves nothing armed is one write: IRQEN cleared, ENABLE kept.
    writes.clear()
    hw.tick(30)
    irqc.service()
    assert fires == [(0, 30)]
    assert writes == [("CTRL", ENABLE)]
    assert (regs.field_get("CTRL", "ENABLE"), regs.field_get("CTRL", "IRQEN"),
            regs.read_reg("COMPARE")) == (1, 0, 30)
    # Re-arming from there is again two writes.
    writes.clear()
    set_alarm(driver, 0, 45)
    assert writes == [("COMPARE", 45), ("CTRL", ENABLE | IRQEN)]


def test_the_soonest_deadline_is_programmed_and_a_passed_one_is_due_at_once():
    hw, irqc, driver, fires = make_driver(3, initial_count=100)
    # now + HALF_RING is the farthest deadline that is still to come.
    set_alarm(driver, 0, 100 + RING // 2)
    set_alarm(driver, 1, 110)
    assert hw.regs.read_reg("COMPARE") == 110
    set_alarm(driver, 2, 95)
    assert hw.regs.read_reg("COMPARE") == 95
    irqc.service()
    assert fires == [(2, 100)]
    assert hw.regs.read_reg("COMPARE") == 110


def test_oracle_equivalence_200_random_scenarios():
    # Includes wraparound cases via initial counts near the top of the ring.
    rng = random.Random(0x7E57)
    for case in range(200):
        n_clients = rng.randrange(1, 9)
        total_ticks = rng.randrange(10, 10_001)
        initial = rng.choice([0, 0, 0, rng.randrange(0, 1000),
                              RING - rng.randrange(1, total_ticks + 100)])
        n_events = rng.randrange(1, 51)
        events = []
        for _ in range(n_events):
            at = rng.randrange(0, total_ticks)
            cid = rng.randrange(0, n_clients)
            # deadlines: mostly near future, some already passed, some far
            flavor = rng.random()
            now_at = (initial + at) % RING
            if flavor < 0.7:
                deadline = (now_at + rng.randrange(0, total_ticks)) % RING
            elif flavor < 0.85:
                deadline = (now_at - rng.randrange(0, 200)) % RING  # passed
            else:
                deadline = rng.randrange(0, RING)
            events.append((at, cid, deadline))
        got = replay(n_clients, events, total_ticks, initial)
        want = alarm_oracle(n_clients, events, total_ticks, initial)
        assert got == want, f"case {case}: {events[:5]}..."
