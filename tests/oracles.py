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


class UpcallQueueModel:
    """Reference model of one process's subscribe slots and upcall queue.

    ``pending`` is an ordered map from slot ``(driver, sub)`` to the args
    of the slot's pending upcall, kept as a list of ``[slot, args]`` pairs,
    oldest first: a slot holds at most one. An upcall is dropped for a
    ``dead process``, for a slot whose handler is ``null`` (never
    subscribed counts as ``null``) and, when its slot has none pending,
    for a ``queue full`` of ``depth`` slots; otherwise a repeat replaces
    the slot's args where they stand. A subscribe that succeeds drops its
    slot's pending upcall, and delivery pops the oldest and runs its
    slot's handler as it is then. ``subscribes`` maps each driver id to
    its number of subscribe slots; ``handlers`` are the process's handler
    names. Methods return the records the trace and the syscall returns
    carry, built as dicts.
    """

    def __init__(self, depth, handlers, subscribes, live=True):
        self.depth = depth
        self.handlers = set(handlers)
        self.subscribes = dict(subscribes)
        self.live = live
        self.slots = {}  # slot -> (fn, userdata)
        self.pending = []  # [slot, args] pairs, oldest first

    def subscribe(self, slot, fn, userdata):
        """The return record of a subscribe of ``fn`` to ``slot``."""
        driver, sub = slot
        if driver not in self.subscribes:
            return {"variant": "failure", "err": "NODEVICE"}
        if not 0 <= sub < self.subscribes[driver] or \
                (fn != "null" and fn not in self.handlers):
            return {"variant": "failure", "err": "INVAL"}
        previous = self.slots.get(slot, ("null", 0))
        self.slots[slot] = ("null", 0) if fn == "null" else (fn, userdata)
        self.pending = [entry for entry in self.pending if entry[0] != slot]
        if previous[0] == "null":
            return {"variant": "success_upcall", "fn": "null"}
        return {"variant": "success_upcall", "fn": previous[0],
                "userdata": previous[1]}

    def schedule(self, slot, args):
        """The outcome an upcall_queued or upcall_dropped record ends in:
        ``{"replaced": ...}`` or ``{"reason": ...}``."""
        args = (list(args) + [0, 0, 0])[:3]
        if not self.live:
            return {"reason": "dead process"}
        if self.slots.get(slot, ("null", 0))[0] == "null":
            return {"reason": "null subscription"}
        for entry in self.pending:
            if entry[0] == slot:
                entry[1] = args
                return {"replaced": True}
        if len(self.pending) >= self.depth:
            return {"reason": "queue full"}
        self.pending.append([slot, args])
        return {"replaced": False}

    def deliver(self):
        """The upcall_run record of the oldest pending upcall, taken off
        the queue, or None when nothing is pending."""
        if not self.pending:
            return None
        (driver, sub), args = self.pending.pop(0)
        fn, userdata = self.slots[driver, sub]
        return {"driver": driver, "sub": sub, "fn": fn, "userdata": userdata,
                "args": args}

    def exit(self):
        self.live = False
        self.slots.clear()
        self.pending.clear()


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


def upcall_record(pid, driver, sub, args, **outcome):
    """The record an upcall_queued or upcall_dropped event carries: the
    args cut or padded with zeros to three, then ``replaced`` or
    ``reason``."""
    args = (list(args) + [0, 0, 0])[:3]
    return dict({"pid": pid, "driver": driver, "sub": sub, "args": args}, **outcome)


def upcall_run_record(driver, sub, fn, userdata, args):
    """The record an upcall_run event carries."""
    return {"driver": driver, "sub": sub, "fn": fn, "userdata": userdata,
            "args": list(args)}


def process_state_record(pid, state, reason=None):
    """The record a process_state event carries; an empty reason is left
    out."""
    record = {"pid": pid, "state": state}
    if reason:
        record["reason"] = reason
    return record


def irq_record(irq_id):
    """The record an irq_raised or irq_serviced event carries."""
    return {"irq": irq_id}
