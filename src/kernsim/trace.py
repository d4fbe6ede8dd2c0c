"""Deterministic simulation trace: a totally ordered stream of events.

Every observable action in a run is logged here with a strictly
increasing sequence number and the simulated tick at which it happened.
Each event is encoded once, when it is logged, as one JSON object per
line with keys in fixed order (seq, tick, actor, kind, payload), and
written straight to the log's text stream, so byte-identical replay is a
meaningful property and a run that dies leaves every earlier event.

A line is built from a fixed template: the seq and tick integers, then a
prefix holding the encoded actor and kind, cached per (actor, kind) pair,
then the payload, which is encoded only when it is not empty. The bytes
are those of ``json.dumps(record, separators=(",", ":"))``.
"""

from __future__ import annotations

import io
import json
from typing import Any, Callable, Dict, Optional, TextIO, Tuple

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
K_UART_TX = "uart_tx"
K_CAPSULE_ERROR = "capsule_error"
K_PRIVILEGED_OP = "privileged_op"
K_DIAGNOSTIC = "diagnostic"
K_TICK_LIMIT = "tick_limit"
K_QUIESCENT = "quiescent"


class TraceLog:
    """Append-only event log for one simulation run.

    Events go to ``out`` (an in-memory buffer unless a stream is given),
    one compact JSON line each.
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 out: Optional[TextIO] = None):
        self.out = io.StringIO() if out is None else out
        self._write = self.out.write
        # One encoder per log: json.dumps builds a new one on every call
        # that passes non-default arguments.
        self._encode = json.JSONEncoder(separators=(",", ":")).encode
        self._prefixes: Dict[Tuple[str, str], str] = {}
        self._seq = 0
        self._clock = clock or (lambda: 0)

    def log(self, actor: str, kind: str,
            payload: Optional[Dict[str, Any]] = None) -> None:
        prefix = self._prefixes.get((actor, kind))
        if prefix is None:
            encode = self._encode
            prefix = self._prefixes[actor, kind] = \
                f',"actor":{encode(actor)},"kind":{encode(kind)},"payload":'
        body = self._encode(payload) if payload else "{}"
        self._write(f'{{"seq":{self._seq},"tick":{self._clock()}{prefix}{body}}}\n')
        self._seq += 1
