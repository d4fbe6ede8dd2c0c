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
2 configuration error or unwritable trace path, 3 capsule diagnostic
(budget, reentrancy, register misuse).
"""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .capabilities import CapabilityKind, CapabilityRegistry
from .capsules import CAPSULE_TYPES, CompositionLayer, validate_composition
from .errors import (
    ConfigError,
    SimulationDiagnostic,
    SpecError,
    int_in,
    int_violation,
)
from .hw import (
    TICK_MASK,
    AlarmHw,
    Chip,
    HashEngineHw,
    InterruptController,
    SimClock,
    UartHw,
)
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
    TraceLog,
)

DEFAULT_MAX_TICKS = 10_000
# Upper bounds on the board integers that size an allocation: RAM is one
# byte array, the alarm driver keeps a client slot per allowed process,
# and a console copies each transfer into a window of buffer_size bytes.
MAX_RAM_SIZE = 16 * 1024 * 1024
MAX_PROCESSES = 256
MAX_BUFFER_SIZE = 64 * 1024

# The model behind each known peripheral.
_PERIPHERAL_MODELS = {"alarm": AlarmHw, "uart": UartHw, "hashengine": HashEngineHw}
# Each board key read as it is: its default (None: required) and its allowed
# values, an integer range (lo, hi; hi None: unbounded), a tuple of words or
# str (any string). A process holds two MPU regions, its flash and its RAM.
_SCALARS: Dict[str, Tuple[Any, Any]] = {
    "name": ("board", str),
    "ram_size": (None, (1, MAX_RAM_SIZE)),
    "mpu_max_regions": (8, (2, None)),
    "upcall_queue_depth": (8, (1, None)),
    "capsule_step_budget": (100_000, (1, None)),
    "max_processes": (8, (1, MAX_PROCESSES)),
    "loader": ("sync", ("sync", "async")),
    "verifier": ("digest_match", VERIFIER_POLICIES),
}
_PERIPHERAL_NEEDED_BY = {"alarm": "alarm", "console": "uart"}
_TYPES_NEEDING_DRIVER_ID = ("alarm", "console", "probe", "manager")
# Each peripheral's optional timing knob: (key, minimum, maximum or None).
# The next-event clock advance relies on these bounds.
_TIMING_KNOBS = {
    "alarm": ("initial_count", 0, TICK_MASK),
    "uart": ("bytes_per_tick", 1, None),
    "hashengine": ("chunk_bytes", 1, None),
}


@dataclass
class BoardConfig:
    name: str
    ram_size: int
    mpu_max_regions: int
    upcall_queue_depth: int
    capsule_step_budget: int
    max_processes: int
    loader: str
    verifier: str
    trusted_key_ids: List[int] = field(default_factory=list)
    peripherals: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    capsules: List[Dict[str, Any]] = field(default_factory=list)
    capabilities: Dict[str, List[str]] = field(default_factory=dict)
    peripheral_specs: Dict[str, RegisterMapSpec] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  base_dir: Optional[Path] = None) -> "BoardConfig":
        violations, specs = validate_board_dict(data, base_dir)
        if violations:
            raise ConfigError(violations)
        return cls(
            **{key: data.get(key, default) for key, (default, _) in _SCALARS.items()},
            trusted_key_ids=list(data.get("trusted_key_ids", [])),
            peripherals={k: dict(v) for k, v in data.get("peripherals", {}).items()},
            capsules=[dict(layer) for layer in data.get("capsules", [])],
            capabilities={k: list(v) for k, v in data.get("capabilities", {}).items()},
            peripheral_specs=specs,
        )

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
        return path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate
        raise ConfigError([f"cannot read {what}: {exc}"]) from None


def _map_bytes(pname: str, map_ref: Optional[str],
               base_dir: Optional[Path]) -> Optional[bytes]:
    """The register map file's bytes: the packaged map unless the board
    names one. None if it cannot be read."""
    if map_ref is None:
        ref = resources.files("kernsim").joinpath(f"maps/{pname}.json")
        return ref.read_bytes() if ref.is_file() else None
    path = Path(map_ref)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    try:
        return path.read_bytes()
    except (OSError, ValueError):  # ValueError: a NUL or lone surrogate
        return None


def validate_board_dict(data: Dict[str, Any], base_dir: Optional[Path] = None
                        ) -> Tuple[List[str], Dict[str, RegisterMapSpec]]:
    """Full static validation: returns every violation found, and the
    register map of each peripheral whose map passes, so that the board
    is read once."""
    v: List[str] = []
    specs: Dict[str, RegisterMapSpec] = {}
    if not isinstance(data, dict):
        return ["board config must be a JSON object"], specs

    for key, (default, allowed) in _SCALARS.items():
        value = data.get(key, default)
        if allowed is str:
            if not isinstance(value, str):
                v.append(f"{key} must be a string, got {value!r}")
        elif isinstance(allowed[0], str):
            if value not in allowed:
                v.append(f"{key} must be one of {allowed}, got {value!r}")
        elif problem := int_violation(key, value, *allowed):
            v.append(problem)
    key_ids = data.get("trusted_key_ids", [])
    if not isinstance(key_ids, list) or \
            not all(int_in(key_id, 0, 0xFFFF) for key_id in key_ids):
        v.append("trusted_key_ids must be a list of integers in [0, 65535], "
                 f"got {key_ids!r}")

    peripherals = data.get("peripherals", {})
    if not isinstance(peripherals, dict):
        v.append("peripherals must be an object")
        peripherals = {}
    irqs_seen: Dict[int, str] = {}
    for pname, pcfg in peripherals.items():
        model = _PERIPHERAL_MODELS.get(pname)
        if model is None:
            v.append(f"unknown peripheral {pname!r}")
            continue
        if not isinstance(pcfg, dict):
            v.append(f"peripheral {pname!r} config must be an object")
            continue
        irq = pcfg.get("irq")
        if not int_in(irq, 0):
            v.append(f"peripheral {pname!r} needs a non-negative integer irq")
        elif irq in irqs_seen:
            v.append(f"peripheral {pname!r} reuses irq {irq} of {irqs_seen[irq]!r}")
        else:
            irqs_seen[irq] = pname
        knob, low, high = _TIMING_KNOBS[pname]
        if problem := int_violation(f"peripheral {pname!r} {knob}",
                                    pcfg.get(knob, low), low, high):
            v.append(problem)
        map_ref = pcfg.get("map")
        if map_ref is not None and not isinstance(map_ref, str):
            v.append(f"peripheral {pname!r} map must be a file path, "
                     f"got {map_ref!r}")
            continue
        raw = _map_bytes(pname, map_ref, base_dir)
        if raw is None:
            v.append(f"peripheral {pname!r} references a missing register map "
                     f"{map_ref!r}")
            continue
        try:
            specs[pname] = load_register_map(json.loads(raw))
        except (ValueError, RecursionError) as exc:
            v.append(f"register map for {pname!r} does not parse: {exc}")
            continue
        except SpecError as exc:
            v.extend(f"register map for {pname!r}: {violation}"
                     for violation in exc.violations)
            continue
        v.extend(f"register map for {pname!r}: {violation}" for violation in
                 specs[pname].missing(model.REGISTERS, model.WRITABLE))

    if data.get("loader") == "async" and "hashengine" not in peripherals:
        v.append("async loader requires a hashengine peripheral")

    layers_cfg = data.get("capsules", [])
    if not isinstance(layers_cfg, list):
        v.append("capsules must be a list of layers")
        layers_cfg = []
    names_seen: set = set()
    driver_ids: Dict[int, str] = {}
    comp_layers: List[CompositionLayer] = []
    for layer in layers_cfg:
        if not isinstance(layer, dict):
            v.append(f"capsule layer must be an object, got {layer!r}")
            continue
        name = layer.get("name")
        if not isinstance(name, str) or not name:
            v.append(f"capsule layer missing a name: {layer!r}")
            continue
        if name in names_seen:
            v.append(f"duplicate capsule name {name!r}")
        names_seen.add(name)
        ctype = layer.get("type")
        if not isinstance(ctype, str) or ctype not in CAPSULE_TYPES:
            v.append(f"capsule {name!r} has unknown type {ctype!r}")
            continue
        driver_id = layer.get("driver_id")
        if driver_id is None:
            if ctype in _TYPES_NEEDING_DRIVER_ID:
                v.append(f"capsule {name!r} (type {ctype!r}) needs a driver_id")
        elif not int_in(driver_id, 0):
            v.append(f"capsule {name!r} driver_id must be a non-negative "
                     f"integer, got {driver_id!r}")
        elif driver_id in driver_ids:
            v.append(f"capsule {name!r} reuses driver_id {driver_id} of "
                     f"{driver_ids[driver_id]!r}")
        else:
            driver_ids[driver_id] = name
        needed = _PERIPHERAL_NEEDED_BY.get(ctype)
        if needed and needed not in peripherals:
            v.append(f"capsule {name!r} (type {ctype!r}) needs the {needed!r} "
                     f"peripheral")
        annotations: Dict[str, Any] = {}
        for key in ("provides", "requires"):
            value = layer.get(key, {})
            if not isinstance(value, dict):
                v.append(f"capsule {name!r} {key} must be an object, got {value!r}")
                value = {}
            annotations[key] = value
        for key, high in (("buffer_size", MAX_BUFFER_SIZE),
                          ("min_buffer_size", None)):
            value = layer.get(key)
            problem = int_violation(f"capsule {name!r} {key}", value, 0, high)
            if key in layer and problem:
                v.append(problem)
                value = None
            annotations[key] = value
        comp_layers.append(CompositionLayer(name=name, **annotations))

    v.extend(validate_composition(comp_layers))

    grants = data.get("capabilities", {})
    if not isinstance(grants, dict):
        v.append("capabilities must be an object of capsule -> kinds")
        grants = {}
    valid_kinds = {kind.value for kind in CapabilityKind}
    for holder, kinds in grants.items():
        if holder not in names_seen:
            v.append(f"capability grant names unknown capsule {holder!r}")
        if not isinstance(kinds, list):
            v.append(f"capability grant for {holder!r} must be a list of kinds, "
                     f"got {kinds!r}")
            continue
        for kind in kinds:
            if not isinstance(kind, str) or kind not in valid_kinds:
                v.append(f"capability grant for {holder!r} names unknown kind "
                         f"{kind!r}")
    return v, specs


class _BoardDeps:
    """What capsule builders may see during construction."""

    def __init__(self, chip: Chip, max_processes: int):
        self.chip = chip
        self.max_processes = max_processes


class Board:
    """A fully constructed machine, ready to load apps and run."""

    def __init__(self, config: BoardConfig, seed: int = 0,
                 out: Optional[TextIO] = None):
        self.config = config
        self.seed = seed
        clock = SimClock()
        self.trace = TraceLog(lambda: clock.now, out)
        irqc = InterruptController(self.trace)

        pcfgs = config.peripherals

        def build(pname: str, **kwargs):
            if pname not in pcfgs:
                return None
            knob = _TIMING_KNOBS[pname][0]
            if knob in pcfgs[pname]:  # else the model's default
                kwargs[knob] = pcfgs[pname][knob]
            return _PERIPHERAL_MODELS[pname](config.peripheral_specs[pname], irqc,
                                             pcfgs[pname]["irq"], **kwargs)

        alarm, uart = build("alarm"), build("uart", trace=self.trace)
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

        deps = _BoardDeps(self.chip, config.max_processes)
        self.capsules_by_name: Dict[str, Any] = {}
        for layer in config.capsules:
            name = layer["name"]
            kinds = config.capabilities.get(name, [])
            tokens = [self.registry.mint(CapabilityKind(kind), name)
                      for kind in kinds]
            capsule = CAPSULE_TYPES[layer["type"]](name, layer, deps, tokens)
            self.kernel.register_capsule(capsule)
            self.capsules_by_name[name] = capsule

        # Interrupt wiring: peripheral-owning capsules get their IRQ; the
        # hash engine interrupt belongs to the kernel's loader.
        for capsule in self.kernel.capsules:
            periph = getattr(capsule, "IRQ_PERIPHERAL", None)
            if periph and periph in pcfgs:
                self.kernel.register_irq_capsule(pcfgs[periph]["irq"], capsule)
        if hashengine is not None:
            irqc.set_handler(pcfgs["hashengine"]["irq"],
                             self.kernel.loader.on_hash_irq)

        self._finalized = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any], seed: int = 0,
                  base_dir: Optional[Path] = None) -> "Board":
        return cls(BoardConfig.from_dict(data, base_dir), seed=seed)

    def finalize(self) -> None:
        self.registry.finalize()
        self.trace.log(ACTOR_KERNEL, K_FINALIZED, {})
        self._finalized = True

    # -- app loading ---------------------------------------------------------

    def load_app(self, source: bytes, name: str = "app") -> LoaderJob:
        """Pack a scenario file into a process binary and hand it to the
        configured loader, together with the parsed script and the digest
        computed here; the loader keeps them only for a byte-equal payload."""
        source = bytes(source)
        script = parse_script_bytes(source, name)
        computed = None if script.credential_digest is not None else fnv1a64(source)
        digest = script.credential_digest if computed is None else computed
        blob = pack_binary(source, script.min_memory, entry_name=script.entry,
                           digest=digest, key_id=script.key_id)
        return self.kernel.loader.submit(self._boot_token, blob, script.name,
                                         self.config.loader == "sync",
                                         PackedApp(source, script, computed))

    def load_binary(self, blob: bytes, name: str = "app") -> LoaderJob:
        """Feed an already-packed binary to the configured loader, which
        parses and digests its payload afresh."""
        return self.kernel.loader.submit(self._boot_token, blob, name,
                                         self.config.loader == "sync")

    # -- the run loop ------------------------------------------------------------

    def run(self, max_ticks: int = DEFAULT_MAX_TICKS) -> int:
        if not self._finalized:
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
    going to the sink as it is logged. Returns the exit code; an
    unwritable sink and configuration problems short-circuit with code 2,
    and configuration problems still emit their diagnostics as trace
    events. Diagnostics go to ``err``, by default the current stderr."""
    err = sys.stderr if err is None else err
    if trace_path is None:
        sink = contextlib.nullcontext(sys.stdout)
    else:
        try:
            sink = open(trace_path, "w", encoding="utf-8", newline="")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            print(f"config error: cannot write trace: {exc}", file=err)
            return 2
    with sink as out:
        try:
            return _simulate(board_path, app_paths, max_ticks, seed, out, err)
        finally:
            _write_trace(out)


def _simulate(board_path, app_paths, max_ticks: int, seed: int, out: TextIO,
              err: TextIO) -> int:
    trace = TraceLog(out=out)
    try:
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
