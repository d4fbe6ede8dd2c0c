"""The benchmark's per-module tracing (`perfbench/run.py --trace 1`) wraps
kernsim functions by name. Every name it wraps must exist, so that
deleting one fails here rather than in a traced benchmark run."""

import runpy
from pathlib import Path

from kernsim.capsules import ConsoleDriver

# run_path compiles the file without writing bytecode next to it.
LAYERS = runpy.run_path(str(Path(__file__).resolve().parents[1]
                            / "perfbench" / "layers.py"))


def _resolves(target: str) -> bool:
    owner, attr = LAYERS["_resolve"](target)
    # install() reads a class attribute from the class's own __dict__.
    return attr in (owner.__dict__ if isinstance(owner, type) else vars(owner))


def test_every_span_target_resolves():
    targets = [target for _, names, _, _ in LAYERS["SPANS"] for target in names]
    assert len(targets) > 30
    assert [target for target in targets if not _resolves(target)] == []


def test_console_command_exists_for_the_console_probe():
    assert "command" in ConsoleDriver.__dict__
