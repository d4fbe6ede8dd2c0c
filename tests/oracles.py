"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the dumb way (per-byte loops,
event-list replay, straight bit arithmetic, a generic loop over a
schema's keys) and never imports the implementation paths it is used to
check.
"""

import json
import math

from kernsim.abi import call_text
from kernsim.errors import INVALID, Key, ScenarioError, SimulationDiagnostic, where
from kernsim.scenario import MAX_STATEMENTS, SCENARIO, STATEMENT, STATEMENTS, \
    ScenarioScript
from kernsim.scenario import _syscall as scenario_syscall

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


# --- expect verdicts and composition, from JSON values ------------------------

def tagged_json(value):
    """A decoded JSON value with each part tagged by its type, so that
    Python's ``==`` holds between two tagged values only when they are the
    same JSON value: ``true`` is not ``1``, and ``0.0`` is not ``0``."""
    if isinstance(value, dict):
        return "object", {key: tagged_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return "array", [tagged_json(item) for item in value]
    return type(value).__name__, value


def subset_match(pattern, actual):
    """An expect's verdict, from the pattern and the actual record its
    event logs: every key of the pattern holds the same JSON value in the
    record, a key the record lacks reading as null. A null actual, logged
    before any return, matches nothing."""
    if actual is None:
        return False
    return all(tagged_json(actual.get(key)) == tagged_json(value)
               for key, value in pattern.items())


# --- schema checking: the per-key loop reader ---------------------------------

def reference_check(key):
    """The checker of a schema key, compiled the plain way: one generic
    loop step per key of an object, each nested key checked by its own
    reference checker, never by the generated ``key.check``. It gives what
    the value reads as, each breach appended to ``out`` in the same words."""
    found = _REFERENCES.get(id(key))
    if found is None:  # keep the key, so that its id is not reused
        found = _REFERENCES[id(key)] = (key, _REFERENCE_COMPILERS[key.kind](key))
    return found[1]


def reference_reader(schema, tag=None):
    """The loop reader of the keys of an object of ``schema``, for a dict
    (whose ``tag`` key, if any, already named the schema):
    read(value, path, out) gives its values in schema order, each bad one
    INVALID. Each key is checked in schema order, an absent one filled in
    from its default, and then each key the schema does not name is
    refused."""
    found = _REFERENCES.get((id(schema), tag))
    if found is not None:
        return found[1]
    fields = [(name, key, reference_check(key)) for name, key in schema.items()]
    allowed = {*schema, tag}

    def read(value, path, out):
        values = []
        for name, key, check in fields:
            entry = value.get(name, INVALID)
            if entry is INVALID or entry is None:
                entry = _reference_absent(key, check, entry, (path, name), out)
            else:
                entry = check(entry, (path, name), out)
            values.append(entry)
        if not value.keys() <= allowed:
            out.extend(f"{where((path, name))} is not a known key" for name in value
                       if name not in allowed)
        return values
    _REFERENCES[(id(schema), tag)] = (schema, read)
    return read


_REFERENCES = {}


def _reference_absent(key, check, entry, path, out):
    if entry is None and not key.null:
        return check(entry, path, out)
    if key.required:
        out.append(f"{where(path)} is required")
        return INVALID
    if key.kind == "object" and key.default is not None:
        return check(key.default, path, out)
    return key.default


def _reference_refuse(out, path, expected, value):
    out.append(f"{where(path)} must be {expected}, got {value!r:.80}")
    return INVALID


def _reference_int(key):
    lo, hi = key.lo, math.inf if key.hi is None else key.hi
    expected = "an integer " + (f">= {lo}" if key.hi is None else f"in [{lo}, {hi}]")
    return lambda value, path, out: value if type(value) is int and lo <= value <= hi \
        else _reference_refuse(out, path, expected, value)


def _reference_str(key):
    lo, hi = key.lo or 0, math.inf if key.hi is None else key.hi
    expected = ("a non-empty string" if lo else "a string") + \
        (f" of at most {hi} UTF-8 bytes" if key.hi is not None else "")

    def size(text):
        try:
            return len(text.encode("utf-8"))
        except UnicodeEncodeError:
            return math.inf
    return lambda value, path, out: value if type(value) is str and len(value) >= lo \
        and (hi is math.inf or size(value) <= hi) \
        else _reference_refuse(out, path, expected, value)


def _reference_words(key):
    return lambda value, path, out: value if type(value) in (str, int) and \
        value in key.type else _reference_refuse(out, path, f"one of {key.type}", value)


def _reference_list(key):
    hi = math.inf if key.hi is None else key.hi
    expected = "a list" if key.hi is None else f"a list of at most {hi} items"

    def check(value, path, out):
        if type(value) is not list or len(value) > hi:
            return _reference_refuse(out, path, expected, value)
        if key.item is None:
            return value
        item = reference_check(key.item)
        return [item(entry, (path, i), out) for i, entry in enumerate(value)]
    return check


def _reference_map(key):
    def check(value, path, out):
        if type(value) is not dict:
            return _reference_refuse(out, path, "an object", value)
        if key.item is None:
            return value
        item = reference_check(key.item)
        return {name: item(entry, (path, name), out) for name, entry in value.items()}
    return check


def _reference_object(key):
    tag, variants, make = key.tag, key.type, key.make

    def check(value, path, out):
        if tag is None:
            if type(value) is not dict:
                return _reference_refuse(out, path, "an object", value)
            return dict(zip(variants, reference_reader(variants)(value, path, out)))
        word = value.get(tag) if type(value) is dict else None
        if type(word) is not str or word not in variants:
            if type(value) is not dict:
                return _reference_refuse(out, path, "an object", value)
            return _reference_refuse(out, (path, tag), f"one of {tuple(variants)}", word)
        schema = variants[word]
        seen = len(out)
        values = reference_reader(schema, tag)(value, path, out)
        if make is None:
            return dict(zip((tag, *schema), [word, *values]))
        return make[word](*values) if len(out) == seen else INVALID
    return check


_REFERENCE_COMPILERS = {"int": _reference_int, "str": _reference_str,
                        "words": _reference_words, "list": _reference_list,
                        "map": _reference_map, "object": _reference_object}


def reference_statements(raw_list, path, in_handler, budget, out):
    """The steps a statement list unrolls to, each statement read by the
    loop reader and built by its op's make (a loop's body read here, so
    that it is read by the loop reader too)."""
    stmts = []
    for i, raw in enumerate(raw_list):
        here = (path, i)
        op = raw.get("op") if type(raw) is dict else None
        if type(op) is not str or op not in STATEMENTS:
            reference_check(STATEMENT)(raw, here, out)
            continue
        seen = len(out)
        values = reference_reader(STATEMENTS[op], "op")(raw, here, out)
        if len(out) != seen:
            continue
        if op != "loop":
            STATEMENT.make[op](*values, here, out, stmts, in_handler, budget)
            continue
        count, body = values
        body = reference_statements(body, (here, "body"), in_handler, budget, out)
        budget[0] -= len(body) * count
        if budget[0] < 0:
            raise ScenarioError(out + [
                f"script exceeds {MAX_STATEMENTS} statements after unrolling"])
        if count > 1:
            body = [(step[0], step[1], call_text(step[1]))
                    if step[0] is scenario_syscall and step[2] is None else step
                    for step in body]
        if body:  # an empty body unrolls to nothing, whatever the count
            stmts.extend(body * count)
    return stmts


def reference_parse_script(data, name="app"):
    """The script parse_script must give for a decoded scenario file, or
    the violations of the ScenarioError it must raise (as a list)."""
    out = []
    doc = reference_check(_SCENARIO_KEY)(data, "scenario", out)
    if doc is INVALID:
        return out
    budget = [MAX_STATEMENTS]
    try:
        main = reference_statements(doc["main"] or (), ("scenario", "main"), False,
                                    budget, out)
        handlers = {hname: reference_statements(body or (), (("scenario", "handlers"),
                                                             hname), True, budget, out)
                    for hname, body in (doc["handlers"] or {}).items()}
    except ScenarioError as exc:
        return exc.violations
    if out:
        return out
    return ScenarioScript(
        name=name if doc["name"] is None else doc["name"],
        min_memory=doc["min_memory"], key_id=doc["credential"]["key_id"],
        entry=doc["entry"], main=main, handlers=handlers,
        credential_digest=doc["credential"]["digest"])


_SCENARIO_KEY = Key(SCENARIO)
