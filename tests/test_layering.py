"""Capsules reach hardware only through the interface calls of the
peripheral models (``set_alarm``, ``disarm``, ``transmit_buffer``) and
receive completions as their clients. This check reads the source of
``capsules.py`` and refuses any register access there."""

import ast
from pathlib import Path

import pytest

CAPSULES = Path(__file__).resolve().parents[1] / "src" / "kernsim" / "capsules.py"
# Attributes that reach a register file or a parked completion.
FORBIDDEN_ATTRS = ("regs", "mmio_read", "mmio_write", "take_completion")


def layering_violations(source):
    """Each import of the register-map module, import of ``HALF_RING`` from
    the hardware module, or access to a forbidden attribute, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            names = {alias.name for alias in node.names}
            if module == "regmap" or (module in ("", "kernsim") and "regmap" in names):
                found.append(f"line {node.lineno}: imports from regmap")
            if module == "hw" and "HALF_RING" in names:
                found.append(f"line {node.lineno}: imports HALF_RING")
        elif isinstance(node, ast.Import):
            if any(alias.name.rpartition(".")[2] == "regmap" for alias in node.names):
                found.append(f"line {node.lineno}: imports regmap")
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRS:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


def test_capsules_reach_hardware_only_through_interface_calls():
    assert layering_violations(CAPSULES.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "from .regmap import RegisterFile",
    "from kernsim.regmap import RegisterFile",
    "from . import regmap",
    "import kernsim.regmap",
    "from .hw import AlarmHw, HALF_RING",
    "x = self.hw.regs",
    "self.uart.regs.mmio_write(0, 1)",
    "value = regs.mmio_read(0)",
    "done = self.uart.take_completion()",
])
def test_each_register_access_form_is_refused(source):
    assert len(layering_violations(source)) >= 1
