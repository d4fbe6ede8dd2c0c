"""Unforgeable privilege tokens minted only during board construction.

A token carries nothing but its kind, and is valid only as the very
object its board minted: one built by hand, copied or minted by another
board is refused. Sensitive kernel operations demand a token of the
right kind; code that was never handed one simply cannot express the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict
from .errors import ForeignCapability, PhaseError, WrongKind
from .trace import ACTOR_KERNEL, K_CAP_MINTED, TraceLog


class CapabilityKind(str, Enum):
    PROCESS_MANAGEMENT = "ProcessManagement"
    LOADER_CONTROL = "LoaderControl"


@dataclass(frozen=True, eq=False)
class CapabilityToken:
    kind: CapabilityKind


class CapabilityRegistry:
    """Per-board mint: holds the tokens it minted, keyed by ``id`` so that
    any object can be looked up, and logs every (kind, holder) granted."""

    def __init__(self, trace: TraceLog):
        self.finalized = False
        self.trace = trace
        self._minted: Dict[int, CapabilityToken] = {}

    def mint(self, kind: CapabilityKind, holder: str) -> CapabilityToken:
        if self.finalized:
            raise PhaseError("capabilities can only be minted while building")
        token = CapabilityToken(kind)
        self._minted[id(token)] = token
        self.trace.log(ACTOR_KERNEL, K_CAP_MINTED,
                       {"kind": kind.value, "holder": holder})
        return token

    def finalize(self) -> None:
        if self.finalized:
            raise PhaseError("board already finalized")
        self.finalized = True

    def validate(self, token, kind: CapabilityKind) -> None:
        if self._minted.get(id(token)) is not token:
            raise ForeignCapability("token was not minted by this board")
        if token.kind is not kind:
            raise WrongKind(f"need {kind.value}, got {token.kind.value}")
