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

:meth:`TraceLog.log_series` logs a run of events of one (actor, kind),
each with its own encoded payload, the tick advancing by one every
``per_tick`` events, in a few large writes; its bytes equal those of one
:meth:`TraceLog.log` per event. A busy UART logs the bytes it moves over
a span of ticks this way.

A payload given as a ``str`` is taken as already encoded and written
unchanged. Every emitter on the loop and syscall paths hands over text:
``uart_tx`` (one text per byte value), ``irq_raised`` and ``irq_serviced``
(one per line), ``syscall`` and ``syscall_return`` (the :mod:`kernsim.abi`
encoders), ``expect`` (its pattern goes through :func:`encode_json` once per
script statement, when :mod:`kernsim.scenario` parses the script),
``mem_access`` (a head plus the note's members), and ``process_state``,
``upcall_queued``, ``upcall_dropped`` and ``upcall_run`` (built by the kernel
where they are logged). Such text must equal the compact JSON of the record
it stands for, byte for byte; strings in it are escaped by
``json.encoder.encode_basestring_ascii``, as :func:`encode_json` does.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Optional, Sequence, TextIO, Tuple, Union

ACTOR_KERNEL = "kernel"

# The most lines TraceLog.log_series hands to one write of the stream.
SERIES_CHUNK = 256

# One encoder for every caller: json.dumps builds a new one on every call
# that passes non-default arguments.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_json(value: Any) -> str:
    """The compact JSON text of a value, as the log writes it."""
    return _ENCODER.encode(value)


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


class SimClock:
    """Monotone tick counter; the only source of simulated time. Only
    :meth:`kernsim.hw.Chip.tick` advances it."""

    def __init__(self):
        self.now = 0


class TraceLog:
    """Append-only event log for one simulation run.

    Events go to ``out`` (an in-memory buffer unless a stream is given),
    one compact JSON line each, stamped with ``clock.now``.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 out: Optional[TextIO] = None):
        self.out = io.StringIO() if out is None else out
        self._write = self.out.write
        self._prefixes: Dict[Tuple[str, str], str] = {}
        self._seq = 0
        self.clock = SimClock() if clock is None else clock

    def _cache_prefix(self, actor: str, kind: str) -> str:
        prefix = self._prefixes[actor, kind] = \
            f',"actor":{encode_json(actor)},"kind":{encode_json(kind)},"payload":'
        return prefix

    def log(self, actor: str, kind: str,
            payload: Union[Dict[str, Any], str, None] = None) -> None:
        prefix = self._prefixes.get((actor, kind))
        if prefix is None:
            prefix = self._cache_prefix(actor, kind)
        if isinstance(payload, str):
            body = payload
        else:
            body = encode_json(payload) if payload else "{}"
        self._write(f'{{"seq":{self._seq},"tick":{self.clock.now}{prefix}{body}}}\n')
        self._seq += 1

    def log_series(self, actor: str, kind: str, first: int, per_tick: int,
                   payloads: Sequence[str]) -> None:
        """Log one ``(actor, kind)`` event per encoded payload, in order,
        the i-th stamped with tick ``first + i // per_tick``.

        The bytes equal those of one :meth:`log` per event made at its
        tick. At most ``SERIES_CHUNK`` lines go to each write, so a long
        series streams rather than building one string.
        """
        prefix = self._prefixes.get((actor, kind)) or self._cache_prefix(actor, kind)
        seq, n = self._seq, len(payloads)
        for at in range(0, n, SERIES_CHUNK):
            self._write("".join([
                f'{{"seq":{seq + i},"tick":{first + i // per_tick}'
                f'{prefix}{payloads[i]}}}\n'
                for i in range(at, min(at + SERIES_CHUNK, n))]))
        self._seq = seq + n
