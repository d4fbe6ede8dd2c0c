"""Exception types shared across the simulator, and the integer check
every input validator uses."""

from typing import Optional


def int_in(value, lo: int, hi: Optional[int] = None) -> bool:
    """True if value is an integer in [lo, hi] (hi None: no upper bound).

    JSON ``true``/``false`` load as Python bools, which are ints; they are
    refused here, so no validator reads them as 1/0.
    """
    return (isinstance(value, int) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi))


class KernsimError(Exception):
    """Base class for all simulator errors."""


class SimulationDiagnostic(KernsimError):
    """A detected bug in kernel-side extension code.

    These are not recoverable outcomes: a capsule that overruns its step
    budget, re-enters a grant, or touches a register it must not touch has
    violated its contract, and the run halts with exit code 3.
    """


# --- simulated memory -------------------------------------------------

class OutOfBounds(KernsimError):
    """Access or region extends past the end of the address space."""


class TooManyRegions(KernsimError):
    """Region configuration exceeds the MPU's region count."""


class AccessDenied(KernsimError):
    """A process touched memory outside its configured regions."""

    def __init__(self, pid, base, length, kind):
        super().__init__(f"pid {pid}: {kind} of [{base}, {base + length}) denied")
        self.pid = pid
        self.base = base
        self.length = length
        self.kind = kind


# --- syscall ABI -------------------------------------------------------

class MalformedInvocation(KernsimError):
    """Scenario record does not decode to a known system call."""


# --- register maps and MMIO ---------------------------------------------

class SpecError(KernsimError):
    """A register map description is invalid; carries every violation."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class UnknownOffset(SimulationDiagnostic):
    """MMIO access at an offset no register claims."""


class IllegalAccessKind(SimulationDiagnostic):
    """Write to a read-only register, or read of a write-only one."""


class UnknownRegister(KernsimError):
    pass


class UnknownField(KernsimError):
    pass


class ValueOutOfRange(KernsimError):
    """Field value does not fit in the field's declared bit width."""


class UnknownEnumName(KernsimError):
    pass


# --- buffer windows ------------------------------------------------------

class RangeError(KernsimError):
    """Requested window lies outside the current window."""


class WindowInFlight(SimulationDiagnostic):
    """A window was used while a split-phase operation owns it."""


class WriteToReadOnly(KernsimError):
    """A capsule wrote through a read-only share.

    Delivered to the capsule, never escalated: the kernel does not fault.
    """


class NoSharedBuffer(KernsimError):
    """The addressed allow slot holds no shared region."""


class StaleHandle(SimulationDiagnostic):
    """A capsule retained a scoped buffer handle past its visitor call."""


# --- capabilities ---------------------------------------------------------

class PhaseError(KernsimError):
    """Operation attempted in the wrong board phase (e.g. minting after
    finalize)."""


class ForeignCapability(KernsimError):
    """Token was minted by a different board instance."""


class WrongKind(KernsimError):
    """Token kind does not match the privileged operation."""


class NoSuchProcess(KernsimError):
    pass


# --- kernel ---------------------------------------------------------------

class ProcessDead(KernsimError):
    """Target process is faulted, exited, or never existed."""


class GrantNoMem(KernsimError):
    """The process's remaining memory cannot hold the grant allocation."""


class ReentrancyError(SimulationDiagnostic):
    """Nested grant entry for the same (capsule, process) pair."""


class CapsuleBudgetExceeded(SimulationDiagnostic):
    """A capsule call ran past its per-entry step budget."""


class InvalidTransition(KernsimError):
    """Loader event does not apply to the job's current state."""


# --- configuration and scenarios --------------------------------------------

class ConfigError(KernsimError):
    """Board configuration is invalid; carries every violation found."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class ScenarioError(ConfigError):
    """Scenario script failed to parse or violated a script invariant."""
