"""Deterministic simulation trace: a totally ordered stream of events.

Every observable action in a run is logged here with a strictly
increasing sequence number and the simulated tick at which it happened.
Each event is encoded once, when it is logged, as one JSON object per
line with keys in fixed order (seq, tick, actor, kind, payload), and
written straight to the log's text stream, so byte-identical replay is a
meaningful property and a run that dies leaves every earlier event.

A line is built from a fixed template: the seq and tick integers, then a
head holding the encoded actor and kind, then the payload, which is
encoded only when it is not empty. The bytes are those of
``json.dumps(record, separators=(",", ":"))``. :meth:`TraceLog.channel`
gives the writer of one (actor, kind) pair, which holds its head. Each
source that logs per event binds its writers once, and :meth:`TraceLog.log`
serves set-up and other cold events through the same writers.

:meth:`TraceLog.log_series` logs a run of events of one (actor, kind),
each with its own encoded payload, the tick advancing by one every
``per_tick`` events, in a few large writes; its bytes equal those of one
:meth:`TraceLog.log` per event. A busy UART logs the bytes it moves over
a span of ticks this way; a one-tick step that moves one byte goes
through its writer, as one event.

A payload given as a ``str`` is taken as already encoded and written
unchanged. Every emitter on the loop and syscall paths hands text to a
writer its source holds: ``uart_tx`` (the UART; one text per byte value),
``irq_raised`` and ``irq_serviced`` (each interrupt line; one text each),
``syscall``, ``syscall_return``, ``expect`` and ``upcall_run`` (each
process's control block; the :mod:`kernsim.abi` encoders, though a loop
body's calls and each ``expect`` pattern carry their text from when
:mod:`kernsim.scenario` parses the script), ``mem_access`` (the memory
controller for the kernel and each MPU configuration for its process; a
head plus the note's members), and ``process_state`` and each capsule's
``upcall_queued`` and ``upcall_dropped`` (the kernel, which builds them
where they are logged). Such text must equal the compact JSON of the
record it stands for, byte for byte; strings in it are escaped by
``json.encoder.encode_basestring_ascii``, as :func:`encode_json` does.
"""

from __future__ import annotations

import io
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Dict, Optional, Sequence, TextIO, Tuple, Union

ACTOR_KERNEL = "kernel"

# The most lines TraceLog.log_series hands to one write of the stream.
SERIES_CHUNK = 256

# The C encoder json.dumps builds per call, built once as iterencode does but
# with markers=None: they detect cycles, and decoded JSON cannot be cyclic.
_encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", False, False, True)


def encode_json(value: Any) -> str:
    """The compact JSON text of a value, as the log writes it."""
    return "".join(_encode(value, 0))


def json_equal(a: Any, b: Any) -> bool:
    """Whether two decoded JSON values are the same JSON value: ``true``
    is not ``1`` and ``0.0`` is not ``0``, though Python's ``==`` holds
    them equal. The pairs still to compare wait on a stack, so no nesting
    depth reaches the recursion limit."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if type(a) is list and len(a) == len(b):
            pending.extend(zip(a, b))
        elif type(a) is dict and a.keys() == b.keys():
            pending.extend((v, b[k]) for k, v in a.items())
        elif a != b:  # a scalar, or lists or objects of other shapes
            return False
    return True


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
        self._channels: Dict[Tuple[str, str], Callable[[str], None]] = {}
        self._seq = 0
        self.clock = SimClock() if clock is None else clock

    def channel(self, actor: str, kind: str) -> Callable[[str], None]:
        """The writer of ``(actor, kind)`` events, one per pair: called
        with an encoded payload, it writes the line :meth:`log` writes,
        stamped with the next seq and ``clock.now``."""
        writer = self._channels.get((actor, kind))
        if writer is None:
            head = (f',"actor":{encode_basestring_ascii(actor)}'
                    f',"kind":{encode_basestring_ascii(kind)},"payload":')

            # What the writer uses is bound as defaults: a closure would
            # make four cells per writer, objects set-up's collections scan.
            def writer(body: str, log: TraceLog = self, write=self._write,
                       clock: SimClock = self.clock, head: str = head) -> None:
                seq = log._seq
                write(f'{{"seq":{seq},"tick":{clock.now}{head}{body}}}\n')
                log._seq = seq + 1

            writer.head = head
            self._channels[actor, kind] = writer
        return writer

    def log(self, actor: str, kind: str,
            payload: Union[Dict[str, Any], str, None] = None) -> None:
        if not isinstance(payload, str):
            payload = encode_json(payload) if payload else "{}"
        self.channel(actor, kind)(payload)

    def log_series(self, actor: str, kind: str, first: int, per_tick: int,
                   payloads: Sequence[str]) -> None:
        """Log one ``(actor, kind)`` event per encoded payload, in order,
        the i-th stamped with tick ``first + i // per_tick``.

        The bytes equal those of one :meth:`log` per event made at its
        tick. At most ``SERIES_CHUNK`` lines go to each write, so a long
        series streams rather than building one string. A single event
        costs less through the pair's :meth:`channel`, which is how the
        UART logs a one-tick step that moves one byte.
        """
        head = self.channel(actor, kind).head
        seq, n = self._seq, len(payloads)
        for at in range(0, n, SERIES_CHUNK):
            self._write("".join([
                f'{{"seq":{seq + i},"tick":{first + i // per_tick}'
                f'{head}{payloads[i]}}}\n'
                for i in range(at, min(at + SERIES_CHUNK, n))]))
        self._seq = seq + n
