"""Outside-in per-module attribution for one traced kernsim run.

The program is not changed: the benchmark replaces public functions of
each ``kernsim`` module with timing wrappers before ``cli.main`` runs.
A wrapper is installed under every name its callers look it up by
(``fnv1a64`` is bound in ``loader``, ``kernel`` and ``board``, and the
hash engine captures ``board.fnv1a64`` when the board is built), so no
layer silently reads zero.

Each span records nesting-aware self time: its duration minus the time
covered by the spans it encloses. Wrapping costs about a microsecond per
call, so traced runs give shares and counts, never end-to-end speeds.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


# Hooks run after a wrapped call and keep counts other than calls.

def _idle_step(rec: Recorder, args, result) -> None:
    if result is False:
        rec.bump("kernel.idle_steps")


def _parsed(rec: Recorder, args, result) -> None:
    rec.bump("scenario.parse_bytes", len(args[0]))


def _digested(rec: Recorder, args, result) -> None:
    rec.bump("loader.digest_bytes", len(args[0]))


def _ticked(rec: Recorder, args, result) -> None:
    chip = args[0]
    n = args[1] if len(args) > 1 else 1
    rec.bump("hw.ticks", n)
    if (chip.uart is not None and chip.uart.busy) or \
            (chip.hashengine is not None and chip.hashengine.busy):
        rec.bump("hw.busy_ticks", n)


def _serviced(rec: Recorder, args, result) -> None:
    rec.bump("hw.irqs", result)


# Counts that hooks and the console probe keep, besides call counts.
HOOK_COUNTS = ("kernel.idle_steps", "scenario.parse_bytes", "loader.digest_bytes",
               "hw.ticks", "hw.busy_ticks", "hw.irqs",
               "capsules.console_commands", "capsules.busy_returns")

# (span, targets as "module:Owner.attr" or "module:func", call-count
# metric, hook run after each call with (recorder, args, result))
SPANS: Sequence[Tuple[str, Sequence[str], Optional[str], Optional[Callable]]] = (
    ("board.config", ["board:BoardConfig.from_file"], None, None),
    ("board.build", ["board:Board.__init__"], None, None),
    ("board.run", ["board:Board.run"], None, None),
    ("scenario.parse", ["scenario:parse_script_bytes", "board:parse_script_bytes",
                        "kernel:parse_script_bytes"], None, _parsed),
    ("scenario.advance", ["scenario:ProcessProgram.advance"],
     "scenario.advance_calls", None),
    ("scenario.advance", ["scenario:ProcessProgram.run_handler"], None, None),
    ("loader.pack", ["loader:pack_binary", "board:pack_binary"], None, None),
    ("loader.digest", ["loader:fnv1a64", "kernel:fnv1a64", "board:fnv1a64"],
     None, _digested),
    ("loader.advance", ["kernel:ProcessLoader.submit"], "loader.jobs", None),
    ("loader.advance", ["kernel:ProcessLoader.advance",
                        "kernel:ProcessLoader.on_hash_irq"], None, None),
    ("kernel.loop_step", ["kernel:Kernel.loop_step"], "kernel.loop_steps",
     _idle_step),
    ("kernel.quiescent", ["kernel:Kernel.quiescent"], None, None),
    ("kernel.syscall", ["kernel:Kernel.handle_syscall"], None, None),
    ("kernel.grant_enter", ["kernel:Kernel.grant_enter"], None, None),
    ("kernel.schedule_upcall", ["kernel:Kernel.schedule_upcall"], None, None),
    ("capsules.call", ["kernel:Kernel.capsule_call"], "capsules.calls", None),
    ("hw.tick", ["hw:Chip.tick"], None, _ticked),
    ("hw.irq_service", ["hw:InterruptController.service"], None, _serviced),
    ("regmap.access", [f"regmap:RegisterFile.{m}" for m in (
        "mmio_read", "mmio_write", "read_reg", "write_reg", "field_set",
        "field_get", "hw_set", "hw_get", "hw_field_set", "hw_field_get")],
     "regmap.accesses", None),
    ("memory.check", ["memory:MemoryController.check_access"], "memory.checks", None),
    ("memory.access", ["memory:MemoryController.access"], "memory.accesses", None),
    ("memory.access", ["memory:MemoryController.read",
                       "memory:MemoryController.write"], None, None),
    ("trace.log", ["trace:TraceLog.log"], "trace.events", None),
    ("trace.write", ["board:_write_trace"], None, None),
)


class Recorder:
    """Self time per span and counters for one run."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # _stack[i] accumulates the time of spans nested in open span i;
        # _stack[0] is the root, so it ends as the total time under spans.
        self._stack: List[float] = [0.0]

    @property
    def spanned_s(self) -> float:
        return self._stack[0]

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, fn: Callable, name: str, count: Optional[str],
             hook: Optional[Callable]) -> Callable:
        stack = self._stack
        self_s = self.self_s
        self_s.setdefault(name, 0.0)
        if count:
            self.counts.setdefault(count, 0)
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
            if count:
                counts[count] += 1
            if hook:
                hook(self, args, result)
            return result

        return wrapper


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(f"kernsim.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


def _count_console(rec: Recorder, fn: Callable) -> Callable:
    """Count console commands and their BUSY returns, without a span."""
    from kernsim.abi import ErrorCode, ReturnVariant

    def command(*args, **kwargs):
        ret = fn(*args, **kwargs)
        rec.bump("capsules.console_commands")
        if ret.variant is ReturnVariant.FAILURE and ret.error is ErrorCode.BUSY:
            rec.bump("capsules.busy_returns")
        return ret

    return command


def install() -> Recorder:
    """Wrap every target in :data:`SPANS`; returns the recorder."""
    rec = Recorder()
    for name in HOOK_COUNTS:
        rec.counts[name] = 0
    wrapped: Dict[int, Callable] = {}
    for name, targets, count, hook in SPANS:
        for target in targets:
            owner, attr = _resolve(target)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            # One wrapper per function object, shared by all its bindings.
            if id(fn) not in wrapped:
                wrapped[id(fn)] = rec.span(fn, name, count, hook)
            new = wrapped[id(fn)]
            setattr(owner, attr, classmethod(new) if is_classmethod else new)
    from kernsim.capsules import ConsoleDriver
    ConsoleDriver.command = _count_console(rec, ConsoleDriver.command)
    return rec
