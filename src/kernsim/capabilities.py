"""Unforgeable privilege tokens minted only during board construction.

A token carries nothing but its kind and the identity of the board that
minted it. Sensitive kernel operations demand a token of the right kind
from the right board; code that was never handed one simply cannot
express the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from .errors import ForeignCapability, PhaseError, WrongKind
from .trace import ACTOR_KERNEL, K_CAP_MINTED, TraceLog


class CapabilityKind(str, Enum):
    PROCESS_MANAGEMENT = "ProcessManagement"
    GRANT_INSPECTION = "GrantInspection"
    LOADER_CONTROL = "LoaderControl"


class BoardPhase(Enum):
    BUILDING = "building"
    FINALIZED = "finalized"


_receipts = itertools.count(1)


@dataclass(frozen=True, eq=False)
class CapabilityToken:
    kind: CapabilityKind
    board_receipt: int = field(repr=False)


class CapabilityRegistry:
    """Per-board mint: tracks the phase and logs every (kind, holder)
    granted."""

    def __init__(self, trace: TraceLog):
        self.receipt = next(_receipts)
        self.phase = BoardPhase.BUILDING
        self.trace = trace

    def mint(self, kind: CapabilityKind, holder: str) -> CapabilityToken:
        if self.phase is not BoardPhase.BUILDING:
            raise PhaseError("capabilities can only be minted while building")
        token = CapabilityToken(kind, self.receipt)
        self.trace.log(ACTOR_KERNEL, K_CAP_MINTED,
                       {"kind": kind.value, "holder": holder})
        return token

    def finalize(self) -> None:
        if self.phase is not BoardPhase.BUILDING:
            raise PhaseError("board already finalized")
        self.phase = BoardPhase.FINALIZED

    def validate(self, token: CapabilityToken, kind: CapabilityKind) -> None:
        if not isinstance(token, CapabilityToken):
            raise WrongKind(f"not a capability token: {token!r}")
        if token.board_receipt != self.receipt:
            raise ForeignCapability("token was minted by a different board")
        if token.kind is not kind:
            raise WrongKind(f"need {kind.value}, got {token.kind.value}")
