"""Trace auditors: every audited kernel invariant, reconstructed from the
trace alone.

Each auditor takes the parsed trace (a list of event records as emitted
by the trace log) and returns a list of violation strings; an empty list
means the invariant held for the whole run. The test suite runs
:func:`run_all_audits` over every scenario it executes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


def parse_trace(data: bytes) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines() if line]


def _payload(event: Dict[str, Any]) -> Dict[str, Any]:
    return event.get("payload", {})


def audit_upcalls_inside_yield(events: List[Dict[str, Any]]) -> List[str]:
    """Every upcall execution is immediately preceded, in its process's
    own event stream, by a yield invocation."""
    violations: List[str] = []
    last_by_process: Dict[str, Dict[str, Any]] = {}
    for event in events:
        actor = event["actor"]
        if not actor.startswith("process:"):
            continue
        if event["kind"] == "upcall_run":
            prev = last_by_process.get(actor)
            ok = (prev is not None and prev["kind"] == "syscall"
                  and _payload(prev).get("call", {}).get("class") == "yield")
            if not ok:
                violations.append(
                    f"seq {event['seq']}: upcall ran for {actor} without an "
                    f"immediately preceding yield")
        last_by_process[actor] = event
    return violations


def audit_zero_length_allows(events: List[Dict[str, Any]]) -> List[str]:
    """A zero-length allow is legal at any base: it fails only for a slot
    that does not exist (NODEVICE or INVAL), to which no allow succeeds
    anywhere in the trace. No allow call of any length generates a memory
    access event (validation is pure arithmetic)."""
    # One pass. An allow waits in ``pending`` for its process's next
    # event, which must be its return, with no memory traffic anywhere in
    # the trace before it. ``outcomes`` holds, per allow in seq order, its
    # violation or (seq, slot, return) of a refused zero-length allow.
    outcomes: List[Any] = []
    pending: Dict[str, tuple] = {}  # actor -> (outcome index, seq, call)
    installed = set()
    for event in events:
        kind, actor = event["kind"], event["actor"]
        if kind in ("mem_access", "mem_fault"):
            for index, seq, _ in pending.values():
                outcomes[index] = (f"seq {event['seq']}: memory access during "
                                   f"an allow call (seq {seq})")
            pending.clear()
            continue
        if actor in pending:
            index, seq, call = pending.pop(actor)
            if kind != "syscall_return":
                outcomes[index] = f"seq {seq}: allow not followed by its return"
            else:
                slot = (call.get("class"), call.get("driver"), call.get("buf"))
                record = _payload(event).get("ret", {})
                if record.get("variant") == "success_region":
                    installed.add(slot)
                elif call.get("len") == 0:
                    outcomes[index] = (seq, slot, record)
        if kind == "syscall":
            call = _payload(event).get("call", {})
            if call.get("class") in ("rw_allow", "ro_allow"):
                pending[actor] = (len(outcomes), event["seq"], call)
                outcomes.append(None)
    return [found for found in outcomes if isinstance(found, str)] + [
        f"seq {seq}: zero-length allow did not succeed (got {record.get('variant')})"
        for seq, slot, record in (found for found in outcomes
                                  if isinstance(found, tuple))
        if slot in installed or record.get("err") not in ("NODEVICE", "INVAL")]


def audit_return_shapes(events: List[Dict[str, Any]]) -> List[str]:
    """Allow-class calls always return a region variant; subscribe calls
    return an upcall descriptor on success and a bare failure otherwise."""
    violations: List[str] = []
    pending: Dict[str, str] = {}
    for event in events:
        actor = event["actor"]
        if event["kind"] == "syscall":
            pending[actor] = _payload(event).get("call", {}).get("class")
        elif event["kind"] == "syscall_return":
            klass = pending.pop(actor, None)
            variant = _payload(event).get("ret", {}).get("variant")
            if klass in ("rw_allow", "ro_allow"):
                if variant not in ("success_region", "failure_region"):
                    violations.append(
                        f"seq {event['seq']}: allow returned {variant}")
            elif klass == "subscribe":
                if variant not in ("success_upcall", "failure"):
                    violations.append(
                        f"seq {event['seq']}: subscribe returned {variant}")
    return violations


def audit_capsule_memory(events: List[Dict[str, Any]]) -> List[str]:
    """No raw memory access event is ever attributed to a capsule: capsules
    reach process memory only through kernel-scoped visitors."""
    return [
        f"seq {event['seq']}: capsule-attributed memory access"
        for event in events
        if event["kind"] in ("mem_access", "mem_fault")
        and event["actor"].startswith("capsule:")
    ]


def audit_slot_ownership(events: List[Dict[str, Any]]) -> List[str]:
    """Capsule buffer accesses always land inside the CURRENT region of the
    addressed allow slot, as reconstructed from the process's own syscall
    history; a swapped-out share is untouchable."""
    violations: List[str] = []
    slots: Dict[tuple, tuple] = {}  # (pid, driver, buf, mode) -> (base, len)
    pending_allow: Dict[str, Dict[str, Any]] = {}
    for event in events:
        kind = event["kind"]
        actor = event["actor"]
        payload = _payload(event)
        if kind == "syscall":
            call = payload.get("call", {})
            if call.get("class") in ("rw_allow", "ro_allow"):
                pending_allow[actor] = call
        elif kind == "syscall_return" and actor in pending_allow:
            call = pending_allow.pop(actor)
            ret = payload.get("ret", {})
            if ret.get("variant") == "success_region":
                pid = int(actor.split(":")[1])
                mode = "rw" if call["class"] == "rw_allow" else "ro"
                slots[(pid, call["driver"], call["buf"], mode)] = \
                    (call["base"], call["len"])
        elif kind == "process_state" and payload.get("state") in ("exited", "faulted"):
            pid = payload.get("pid")
            for key in [k for k in slots if k[0] == pid]:
                del slots[key]
        elif kind == "mem_access" and payload.get("purpose") == "allow":
            key = (payload["pid"], payload["driver"], payload["buf"],
                   payload["mode"])
            region = slots.get(key)
            lo, hi = payload["base"], payload["base"] + payload["len"]
            if region is None or lo < region[0] or hi > region[0] + region[1]:
                violations.append(
                    f"seq {event['seq']}: capsule {payload.get('via')!r} touched "
                    f"[{lo}, {hi}) outside current share {region} of slot {key}")
    return violations


def audit_capabilities(events: List[Dict[str, Any]]) -> List[str]:
    """Every privileged operation names a (holder, kind) pair minted at
    construction, and nothing mints after finalize."""
    violations: List[str] = []
    minted: set = set()
    finalized = False
    for event in events:
        kind = event["kind"]
        payload = _payload(event)
        if kind == "cap_minted":
            if finalized:
                violations.append(
                    f"seq {event['seq']}: capability minted after finalize")
            minted.add((payload.get("holder"), payload.get("kind")))
        elif kind == "finalized":
            finalized = True
        elif kind == "privileged_op":
            pair = (payload.get("holder"), payload.get("kind"))
            if pair not in minted:
                violations.append(
                    f"seq {event['seq']}: privileged op {payload.get('op')!r} by "
                    f"{pair[0]!r} without a minted {pair[1]!r} token")
    return violations


ALL_AUDITS = {
    "upcalls_inside_yield": audit_upcalls_inside_yield,
    "zero_length_allows": audit_zero_length_allows,
    "return_shapes": audit_return_shapes,
    "capsule_memory": audit_capsule_memory,
    "slot_ownership": audit_slot_ownership,
    "capabilities": audit_capabilities,
}


def run_all_audits(events: List[Dict[str, Any]]) -> Dict[str, List[str]]:
    return {name: fn(events) for name, fn in ALL_AUDITS.items()}
