"""Deterministic simulation trace: a totally ordered stream of events.

Every observable action in a run is appended here with a strictly
increasing sequence number and the simulated tick at which it happened.
The serialized form is one JSON object per line with keys in fixed order
(seq, tick, actor, kind, payload) so that byte-identical replay is a
meaningful property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

ACTOR_KERNEL = "kernel"


def actor_process(pid: int) -> str:
    return f"process:{pid}"


def actor_capsule(name: str) -> str:
    return f"capsule:{name}"


def actor_hw(name: str) -> str:
    return f"hw:{name}"


# Event kinds. Tests and the trace auditor match on these strings, so they
# are part of the trace format and must stay stable.
K_BOOT = "boot"
K_CAPSULE_REGISTERED = "capsule_registered"
K_CAP_MINTED = "cap_minted"
K_FINALIZED = "finalized"
K_CONFIG_ERROR = "config_error"
K_LOADER_STATE = "loader_state"
K_HASH_SUBMIT = "hash_submit"
K_PROCESS_CREATED = "process_created"
K_PROCESS_STATE = "process_state"
K_SYSCALL = "syscall"
K_SYSCALL_RETURN = "syscall_return"
K_EXPECT = "expect"
K_MEM_ACCESS = "mem_access"
K_MEM_FAULT = "mem_fault"
K_UPCALL_QUEUED = "upcall_queued"
K_UPCALL_DROPPED = "upcall_dropped"
K_UPCALL_RUN = "upcall_run"
K_GRANT_ALLOC = "grant_alloc"
K_GRANT_NOMEM = "grant_nomem"
K_IRQ_RAISED = "irq_raised"
K_IRQ_SERVICED = "irq_serviced"
K_ALARM_DELIVER = "alarm_deliver"
K_UART_TX = "uart_tx"
K_UART_DONE = "uart_done"
K_CAPSULE_ERROR = "capsule_error"
K_PRIVILEGED_OP = "privileged_op"
K_DIAGNOSTIC = "diagnostic"
K_TICK_LIMIT = "tick_limit"
K_QUIESCENT = "quiescent"


@dataclass
class TraceEvent:
    seq: int
    tick: int
    actor: str
    kind: str
    payload: Dict[str, Any]

    def to_record(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "tick": self.tick,
            "actor": self.actor,
            "kind": self.kind,
            "payload": self.payload,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))


class TraceLog:
    """Append-only event log for one simulation run."""

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self.events: List[TraceEvent] = []
        self._seq = 0
        self._clock = clock or (lambda: 0)

    def log(self, actor: str, kind: str, payload: Optional[Dict[str, Any]] = None) -> TraceEvent:
        event = TraceEvent(self._seq, self._clock(), actor, kind, payload or {})
        self._seq += 1
        self.events.append(event)
        return event

    def to_bytes(self, pretty: bool = False) -> bytes:
        if pretty:
            text = "\n".join(json.dumps(e.to_record(), indent=2) for e in self.events)
        else:
            text = "\n".join(e.to_json_line() for e in self.events)
        return (text + "\n").encode("utf-8") if text else b""
