"""Board configuration, construction, and the batch run loop.

A board file describes the whole machine: RAM size, MPU limits,
peripherals (with their register map files and timing constants), the
capsule stack with its composition annotations, capability grants, and
the loader/verifier policy. Everything is validated before the board
finalizes; an invalid configuration never simulates.

The run loop runs kernel loop steps until the system is quiescent
(nothing runnable, no pending interrupts, no armed or busy peripherals, no
in-flight loader jobs) or the tick limit is reached. After a step that did
work, or while an interrupt is pending, the clock advances one tick.
After a step that found nothing to do, nothing can change until a
peripheral acts, so the clock advances straight to the next hardware
event (or the tick limit, if that comes first), as a kernel sleeps until
its next interrupt. The trace is the same as with one step per tick.

Exit codes: 0 clean quiescence or tick limit, 1 any expect mismatch,
2 configuration error or a trace sink that cannot be written, 3 capsule
diagnostic (budget, reentrancy, register misuse).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, TextIO

from .capabilities import BoardPhase, CapabilityKind, CapabilityRegistry
from .capsules import CAPSULE_TYPES, validate_composition
from .errors import (
    INVALID,
    ConfigError,
    Key,
    Schema,
    SimulationDiagnostic,
    SpecError,
    walk,
)
from .hw import AlarmHw, Chip, HashEngineHw, InterruptController, UartHw
from .kernel import Kernel, LoaderJob, PackedApp
from .loader import VERIFIER_POLICIES, fnv1a64, pack_binary
from .memory import MemoryController
from .regmap import RegisterMapSpec, load_register_map
from .scenario import parse_script_bytes
from .trace import (
    ACTOR_KERNEL,
    K_BOOT,
    K_CONFIG_ERROR,
    K_DIAGNOSTIC,
    K_FINALIZED,
    K_QUIESCENT,
    K_TICK_LIMIT,
    SimClock,
    TraceLog,
)

DEFAULT_MAX_TICKS = 10_000
MAX_TICKS = Key(int, 0)
# Upper bounds on the board integers that size an allocation: RAM is one
# byte array, the alarm driver keeps a client slot per allowed process,
# and a console copies each transfer into a window of buffer_size bytes.
MAX_RAM_SIZE = 16 * 1024 * 1024
MAX_PROCESSES = 256
MAX_BUFFER_SIZE = 64 * 1024
# The longest board, app or register map file read. A script unrolls to
# at most scenario.MAX_STATEMENTS statements, so no real input comes near
# it; a file that never ends (such as /dev/zero) is refused at this length.
MAX_INPUT_SIZE = 64 * 1024 * 1024
# The size of the first read of an input file: it holds every shipped
# input, and stays below the size from which the C allocator maps fresh
# pages for a buffer.
_FIRST_READ = 128 * 1024

# The model behind each known peripheral.
_PERIPHERAL_MODELS = {"alarm": AlarmHw, "uart": UartHw, "hashengine": HashEngineHw}
# The board schema. A process holds two MPU regions, its flash and its RAM;
# a key id is 16 bits in the binary header.
LAYER: Schema = {
    "name": Key(str, 1, required=True),
    "type": Key(CAPSULE_TYPES.keys(), required=True),
    "driver_id": Key(int, 0, null=True),
    "provides": Key(dict, default={}),
    "requires": Key(dict, default={}),
    "buffer_size": Key(int, 0, MAX_BUFFER_SIZE),
    "min_buffer_size": Key(int, 0),
}
BOARD: Schema = {
    "name": Key(str, default="board"),
    "ram_size": Key(int, 1, MAX_RAM_SIZE, required=True),
    "mpu_max_regions": Key(int, 2, default=8),
    "upcall_queue_depth": Key(int, 1, default=8),
    "capsule_step_budget": Key(int, 1, default=100_000),
    "max_processes": Key(int, 1, MAX_PROCESSES, 8),
    "loader": Key(("sync", "async"), default="sync"),
    "verifier": Key(VERIFIER_POLICIES, default="digest_match"),
    "trusted_key_ids": Key(list, default=(), item=Key(int, 0, 0xFFFF)),
    "peripherals": Key({name: Key({"irq": Key(int, 0, required=True),
                                   "map": Key(str, null=True), **model.KNOBS})
                        for name, model in _PERIPHERAL_MODELS.items()}),
    "capsules": Key(list, default=(), item=Key(LAYER)),
    "capabilities": Key(dict, default={}, item=Key(
        list, item=Key(tuple(kind.value for kind in CapabilityKind)))),
}


class BoardConfig(SimpleNamespace):
    """A board that passed validation: an attribute for each BOARD key,
    holding the schema default where the file leaves the key out, and
    ``peripheral_specs``, the register map of each peripheral."""

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  base_dir: Optional[Path] = None) -> "BoardConfig":
        """Full static validation, raising ConfigError with every violation
        found. The walk checks each key; the rules that tie keys together
        are checked here, on the values that passed. Each peripheral's map
        is loaded once, here."""
        v: List[str] = []
        specs: Dict[str, RegisterMapSpec] = {}
        board = walk(Key(BOARD), data, "board config", v)
        if board is INVALID:
            raise ConfigError(v)
        peripherals = board["peripherals"] = {
            pname: pcfg for pname, pcfg in (board["peripherals"] or {}).items()
            if pcfg is not None}
        irqs: Dict[int, str] = {}
        for pname, pcfg in peripherals.items():
            irq = pcfg and pcfg["irq"]
            if pcfg and irq is not INVALID and irqs.setdefault(irq, pname) != pname:
                v.append(f"peripheral {pname!r} reuses irq {irq} of {irqs[irq]!r}")
            if pcfg and pcfg["map"] is not INVALID:
                _load_map(pname, pcfg["map"], base_dir, v, specs)
        if board["loader"] == "async" and "hashengine" not in peripherals:
            v.append("async loader requires a hashengine peripheral")

        names: set = set()
        driver_ids: Dict[int, Dict[str, Any]] = {}
        irq_owners: Dict[str, Dict[str, Any]] = {}  # by peripheral
        layers = [layer for layer in board["capsules"] or () if layer and layer["name"]]
        for layer in layers:
            name, ctype, driver_id = layer["name"], layer["type"], layer["driver_id"]
            if name in names:
                v.append(f"duplicate capsule name {name!r}")
            names.add(name)
            if not ctype:
                continue
            if driver_id is None and CAPSULE_TYPES[ctype].NEEDS_DRIVER_ID:
                v.append(f"capsule {name!r} (type {ctype!r}) needs a driver_id")
            elif driver_id not in (None, INVALID) and \
                    driver_ids.setdefault(driver_id, layer) is not layer:
                v.append(f"capsule {name!r} reuses driver_id {driver_id} of "
                         f"{driver_ids[driver_id]['name']!r}")
            needed = CAPSULE_TYPES[ctype].IRQ_PERIPHERAL
            if needed and needed not in peripherals:
                v.append(f"capsule {name!r} (type {ctype!r}) needs the {needed!r} "
                         f"peripheral")
            elif needed and irq_owners.setdefault(needed, layer) is not layer:
                v.append(f"capsule {name!r} (type {ctype!r}) takes the {needed!r} "
                         f"interrupt of capsule {irq_owners[needed]['name']!r}")
        v.extend(validate_composition([layer for layer in layers if layer["type"]]))
        v.extend(f"capability grant names unknown capsule {holder!r}"
                 for holder in board["capabilities"] or {} if holder not in names)
        if v:
            raise ConfigError(v)
        return cls(**board, peripheral_specs=specs)

    @classmethod
    def from_file(cls, path) -> "BoardConfig":
        path = Path(path)
        raw = _read(path, "board file")
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise ConfigError([f"board file does not parse: {exc}"]) from None
        return cls.from_dict(data, path.parent)


def _read(path: Path, what: str) -> bytes:
    try:
        raw = _read_bounded(path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate
        raise ConfigError([f"cannot read {what}: {exc}"]) from None
    if raw is None:
        raise ConfigError([f"{what} {str(path)!r} is longer than "
                           f"{MAX_INPUT_SIZE} bytes"])
    return raw


def _read_bounded(path) -> Optional[bytes]:
    """The bytes of the file at ``path`` (a Path or a package resource),
    or None when it holds more than MAX_INPUT_SIZE bytes. A read of n bytes
    allocates n, so the bounded read runs only when a small first read
    fills its buffer."""
    with path.open("rb") as f:
        first = min(_FIRST_READ, MAX_INPUT_SIZE + 1)
        raw = f.read(first)
        if len(raw) == first:
            raw += f.read(MAX_INPUT_SIZE + 1 - first)
    return None if len(raw) > MAX_INPUT_SIZE else raw


def _load_map(pname: str, map_ref: Optional[str], base_dir: Optional[Path],
              v: List[str], specs: Dict[str, RegisterMapSpec]) -> None:
    """Add the peripheral's register map (the packaged one unless the
    board names a file) to specs if it loads and meets the model's
    register contract; else add the violations to v."""
    try:
        if map_ref is None:
            raw = _read_bounded(
                resources.files("kernsim").joinpath(f"maps/{pname}.json"))
        else:
            path = Path(map_ref)
            raw = _read_bounded(path if base_dir is None or path.is_absolute()
                                else base_dir / path)
    except (OSError, ValueError):  # ValueError: a NUL or lone surrogate
        v.append(f"peripheral {pname!r} references a missing register map "
                 f"{map_ref!r}")
        return
    if raw is None:
        v.append(f"register map {map_ref!r} for {pname!r} is longer than "
                 f"{MAX_INPUT_SIZE} bytes")
        return
    try:
        spec = load_register_map(json.loads(raw))
    except (ValueError, RecursionError) as exc:
        v.append(f"register map for {pname!r} does not parse: {exc}")
        return
    except SpecError as exc:
        lacks = exc.violations
    else:
        lacks = spec.missing(_PERIPHERAL_MODELS[pname])
        if not lacks:
            specs[pname] = spec
    v.extend(f"register map for {pname!r}: {violation}" for violation in lacks)


class Board:
    """A fully constructed machine, ready to load apps and run."""

    def __init__(self, config: BoardConfig, seed: int = 0,
                 out: Optional[TextIO] = None):
        self.config = config
        clock = SimClock()
        self.trace = TraceLog(clock, out)
        irqc = InterruptController(self.trace)

        pcfgs = config.peripherals

        def build(pname: str, *trace):
            if pname not in pcfgs:
                return None
            model, cfg = _PERIPHERAL_MODELS[pname], pcfgs[pname]
            return model(config.peripheral_specs[pname], irqc, cfg["irq"], *trace,
                         **{knob: cfg[knob] for knob in model.KNOBS})

        alarm, uart = build("alarm"), build("uart", self.trace)
        hashengine = build("hashengine")
        self.chip = Chip(clock, irqc, alarm, uart, hashengine)
        self.memory = MemoryController(config.ram_size, config.mpu_max_regions,
                                       self.trace)
        self.registry = CapabilityRegistry(self.trace)
        self.kernel = Kernel(
            self.memory, self.chip, self.trace, self.registry,
            upcall_queue_depth=config.upcall_queue_depth,
            capsule_step_budget=config.capsule_step_budget,
            max_processes=config.max_processes,
            verifier_policy=config.verifier,
            trusted_key_ids=config.trusted_key_ids)

        self.trace.log(ACTOR_KERNEL, K_BOOT, {
            "board": config.name, "ram_size": config.ram_size,
            "loader": config.loader, "verifier": config.verifier,
            "seed": seed,
        })

        # The kernel's boot path holds its own loader token; capsule-side
        # loading needs one granted at construction.
        self._boot_token = self.registry.mint(CapabilityKind.LOADER_CONTROL,
                                              "kernel")

        # What capsule builders may see during construction.
        deps = SimpleNamespace(chip=self.chip, max_processes=config.max_processes)
        self.capsules_by_name: Dict[str, Any] = {}
        for layer in config.capsules:
            name = layer["name"]
            kinds = config.capabilities.get(name, [])
            tokens = [self.registry.mint(CapabilityKind(kind), name)
                      for kind in kinds]
            capsule = CAPSULE_TYPES[layer["type"]].build(name, layer, deps, tokens)
            self.kernel.register_capsule(capsule)
            self.capsules_by_name[name] = capsule

        # Interrupt wiring: peripheral-owning capsules get their IRQ; the
        # hash engine interrupt belongs to the kernel's loader.
        for capsule in self.kernel.capsules:
            periph = capsule.IRQ_PERIPHERAL
            if periph in pcfgs:
                self.kernel.register_irq_capsule(pcfgs[periph]["irq"], capsule)
        if hashengine is not None:
            irqc.set_handler(pcfgs["hashengine"]["irq"],
                             self.kernel.loader.on_hash_irq)

    @classmethod
    def from_dict(cls, data: Dict[str, Any], seed: int = 0,
                  base_dir: Optional[Path] = None) -> "Board":
        return cls(BoardConfig.from_dict(data, base_dir), seed=seed)

    def finalize(self) -> None:
        self.registry.finalize()
        self.trace.log(ACTOR_KERNEL, K_FINALIZED, {})

    # -- app loading ---------------------------------------------------------

    def load_app(self, source: bytes, name: str = "app") -> LoaderJob:
        """Pack a scenario file into a process binary and hand it to the
        configured loader, together with the script parsed here; the
        loader keeps it only for a byte-equal payload."""
        source = bytes(source)
        script = parse_script_bytes(source, name)
        digest = (fnv1a64(source) if script.credential_digest is None
                  else script.credential_digest)
        blob = pack_binary(source, script.min_memory, entry_name=script.entry,
                           digest=digest, key_id=script.key_id)
        return self.kernel.loader.submit(self._boot_token, blob, script.name,
                                         self.config.loader == "sync",
                                         PackedApp(source, script))

    def load_binary(self, blob: bytes, name: str = "app") -> LoaderJob:
        """Feed an already-packed binary to the configured loader, which
        parses and digests its payload afresh."""
        return self.kernel.loader.submit(self._boot_token, blob, name,
                                         self.config.loader == "sync")

    # -- the run loop ------------------------------------------------------------

    def run(self, max_ticks: int = DEFAULT_MAX_TICKS) -> int:
        if self.registry.phase is BoardPhase.BUILDING:
            self.finalize()
        kernel, chip = self.kernel, self.chip
        clock, irqc = chip.clock, chip.irqc
        try:
            while True:
                progressed = kernel.loop_step()
                if kernel.quiescent():
                    self.trace.log(ACTOR_KERNEL, K_QUIESCENT, {})
                    break
                now = clock.now
                if now >= max_ticks:
                    self.trace.log(ACTOR_KERNEL, K_TICK_LIMIT,
                                   {"max_ticks": max_ticks})
                    break
                if progressed or irqc.any_pending():
                    chip.tick(1)
                else:
                    gap = chip.ticks_until_event()
                    left = max_ticks - now
                    chip.tick(left if gap is None else min(gap, left))
        except SimulationDiagnostic as exc:
            self.trace.log(ACTOR_KERNEL, K_DIAGNOSTIC, {"reason": str(exc)})
            return 3
        return 1 if self.kernel.expect_failures else 0


def check_board(path) -> List[str]:
    """Validate a board file without running; returns all violations."""
    try:
        BoardConfig.from_file(path)
    except ConfigError as exc:
        return exc.violations
    return []


def run_simulation(board_path, app_paths, *, max_ticks: int = DEFAULT_MAX_TICKS,
                   seed: int = 0, trace_path=None,
                   err: Optional[TextIO] = None) -> int:
    """CLI entry: open the trace sink, then build, load and run, each event
    going to the sink as it is logged. Returns the exit code: 2 for a
    trace path that names the board or an app file (refused before the
    sink opens, so no input is overwritten), for a sink that fails to
    open, write, flush or close, and for configuration problems, which
    still emit their diagnostics as trace events. Diagnostics go to
    ``err``, by default the current stderr."""
    err = sys.stderr if err is None else err
    for path in (board_path, *app_paths) if trace_path is not None else ():
        try:
            aliased = os.path.samefile(trace_path, path)
        except (OSError, ValueError):  # a missing path, or one with a NUL
            aliased = False
        if aliased:
            print(f"config error: trace file {str(trace_path)!r} is the "
                  f"input file {str(path)!r}", file=err)
            return 2
    try:
        if trace_path is None:
            sink = contextlib.nullcontext(sys.stdout)
        else:
            try:
                sink = open(trace_path, "w", encoding="utf-8", newline="")
            except ValueError as exc:  # a NUL in the path
                raise OSError(exc) from None
        with sink as out:
            try:
                return _simulate(board_path, app_paths, max_ticks, seed, out, err)
            finally:
                _write_trace(out)
    except OSError as exc:  # from the sink: a board or app file read raises ConfigError
        print(f"config error: cannot write trace: {exc}", file=err)
        return 2


def _simulate(board_path, app_paths, max_ticks: int, seed: int, out: TextIO,
              err: TextIO) -> int:
    trace = TraceLog(out=out)
    try:
        refused: List[str] = []
        if walk(MAX_TICKS, max_ticks, "max_ticks", refused) is INVALID:
            raise ConfigError(refused)
        board = Board(BoardConfig.from_file(board_path), seed, out)
        trace = board.trace
        board.finalize()
        for app_path in map(Path, app_paths):
            board.load_app(_read(app_path, "app file"), app_path.stem)
    except ConfigError as exc:  # ScenarioError is a ConfigError
        for violation in exc.violations:
            trace.log(ACTOR_KERNEL, K_CONFIG_ERROR, {"violation": violation})
            print(f"config error: {violation}", file=err)
        return 2
    return board.run(max_ticks)


def _write_trace(out: TextIO) -> None:
    """Push the sink's buffered lines out; every event was encoded and
    written when it was logged."""
    out.flush()
