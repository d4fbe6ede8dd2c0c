"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the dumb way (per-byte loops,
event-list replay, straight bit arithmetic) and never imports the
implementation paths it is used to check.
"""

import json

from kernsim.errors import SimulationDiagnostic

RING = 1 << 32
HALF = 1 << 31


def mpu_allowed(regions, base, length, kind):
    """Per-byte brute force: every byte of [base, base+length) must lie in
    some region granting `kind` ('read' or 'write')."""
    if length == 0:
        return True
    for addr in range(base, base + length):
        covered = False
        for region in regions:
            if region.length == 0:
                continue
            if not (region.base <= addr < region.base + region.length):
                continue
            if region.access == "rw" or (region.access == "read" and kind == "read"):
                covered = True
                break
        if not covered:
            return False
    return True


def permission_bytemap(regions, space_size, kind):
    """Byte-by-byte permission map for a whole address space."""
    return [mpu_allowed(regions, addr, 1, kind) for addr in range(space_size)]


def fnv1a64_reference(data):
    """FNV-1a, 64 bit: XOR the byte in, multiply by the prime, mod 2^64."""
    h = 14695981039346656037
    for b in bytes(data):
        h = ((h ^ b) * 1099511628211) % (1 << 64)
    return h


def field_update_reference(reg_value, bit_offset, bit_width, field_value):
    """Mask/shift oracle for read-modify-write of one field."""
    mask = ((1 << bit_width) - 1) << bit_offset
    return (reg_value & ~mask) | ((field_value << bit_offset) & mask)


def field_extract_reference(reg_value, bit_offset, bit_width):
    return (reg_value >> bit_offset) & ((1 << bit_width) - 1)


def deadline_passed(now, deadline):
    return ((now - deadline) % RING) < HALF


def alarm_oracle(n_clients, set_events, total_ticks, start_count=0):
    """Brute-force event-list replay of the alarm virtualizer.

    set_events: list of (at_tick_offset, client_id, deadline). Returns the
    list of (client_id, fire_tick) pairs, evaluating every armed client on
    every tick, in registration order.
    """
    sets_at = {}
    for at, cid, deadline in set_events:
        sets_at.setdefault(at, []).append((cid, deadline % RING))
    armed = [False] * n_clients
    deadlines = [0] * n_clients
    fires = []
    now = start_count % RING
    for t in range(total_ticks):
        for cid, deadline in sets_at.get(t, []):
            armed[cid] = True
            deadlines[cid] = deadline
        now = (now + 1) % RING
        for cid in range(n_clients):
            if armed[cid] and deadline_passed(now, deadlines[cid]):
                armed[cid] = False
                fires.append((cid, now))
    return fires


class OneSlotSwapModel:
    """Reference model of one allow slot: a stack-free 'previous value'
    cell seeded with the distinguished empty region."""

    def __init__(self, empty=(0, 0)):
        self.current = empty

    def install(self, region):
        previous = self.current
        self.current = region
        return previous


def run_per_tick(board, max_ticks):
    """Reference run loop: one kernel loop step per clock tick.

    ``Board.run`` skips idle ticks; this stepper simulates every one of
    them, so the two must give byte-identical traces and equal exit codes.
    The board must be finalized. Returns the exit code.
    """
    kernel, chip, trace = board.kernel, board.chip, board.trace
    try:
        while True:
            kernel.loop_step()
            if kernel.quiescent():
                trace.log("kernel", "quiescent", {})
                break
            if chip.clock.now >= max_ticks:
                trace.log("kernel", "tick_limit", {"max_ticks": max_ticks})
                break
            chip.tick(1)
    except SimulationDiagnostic as exc:
        trace.log("kernel", "diagnostic", {"reason": str(exc)})
        return 3
    return 1 if kernel.expect_failures else 0


# --- trace records, built as dicts ----------------------------------------

def compact(record):
    """The bytes the trace holds for a record: its compact JSON."""
    return json.dumps(record, separators=(",", ":"))


def invocation_record(inv):
    """The record a syscall event carries for an invocation."""
    klass = inv.klass.value
    if klass == "yield":
        return {"class": "yield", "mode": inv.yield_mode.value}
    if klass == "subscribe":
        return {"class": "subscribe", "driver": inv.driver_id, "sub": inv.subcommand,
                "fn": inv.fn_id, "userdata": inv.userdata}
    if klass == "command":
        return {"class": "command", "driver": inv.driver_id, "cmd": inv.subcommand,
                "args": [inv.arg0, inv.arg1]}
    if klass in ("rw_allow", "ro_allow"):
        return {"class": klass, "driver": inv.driver_id, "buf": inv.subcommand,
                "base": inv.base, "len": inv.length}
    return {"class": "exit"}


def return_record(ret):
    """The record a syscall_return event carries for a return."""
    variant = ret.variant.value
    if variant == "success":
        return {"variant": "success"}
    if variant == "success_value":
        return {"variant": "success_value", "value": ret.value}
    if variant == "success_region":
        return {"variant": "success_region", "base": ret.base, "len": ret.length}
    if variant == "success_upcall":
        if ret.upcall.fn_id == "null":
            return {"variant": "success_upcall", "fn": "null"}
        return {"variant": "success_upcall", "fn": ret.upcall.fn_id,
                "userdata": ret.upcall.userdata}
    if variant == "failure":
        return {"variant": "failure", "err": ret.error.name}
    return {"variant": "failure_region", "err": ret.error.name,
            "base": ret.base, "len": ret.length}
