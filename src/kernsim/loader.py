"""Process binary format, digest, loader states, and verifier policies.

Binary layout (all integers little-endian):

    offset  size  field
    0       4     magic "KSIM"
    4       2     version (currently 2)
    6       2     header_len (total header bytes)
    8       4     payload_len
    12      4     min_memory (RAM bytes the process needs)
    16      2     entry_name length n
    18      n     entry_name (UTF-8)
    18+n    8     credential digest
    26+n    2     credential key id

The payload (a scenario script) follows immediately at header_len. The
credential digest is the first eight bytes of the payload's SHA-256,
read little-endian. Version 1 binaries carried an FNV-1a-64 digest and
are refused as unsupported.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import KernsimError

MAGIC = b"KSIM"
VERSION = 2
_FIXED = struct.Struct("<4sHHII")
_NAME_LEN = struct.Struct("<H")
_CREDENTIAL = struct.Struct("<QH")
# The longest entry name whose header_len still fits its u16.
MAX_ENTRY_BYTES = 0xFFFF - _FIXED.size - _NAME_LEN.size - _CREDENTIAL.size


def fnv1a64(data: bytes) -> int:
    """The credential digest: the first eight bytes of the payload's
    SHA-256, read little-endian.

    The name is that of the FNV-1a-64 digest it replaced; it stays until
    the benchmark's ``loader.digest`` span, which wraps it by this name,
    is renamed with it.
    """
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


class HeaderError(KernsimError):
    """Structural problem in a process binary header."""


@dataclass(frozen=True)
class BinaryHeader:
    version: int
    header_len: int
    payload_len: int
    min_memory: int
    entry_name: str
    digest: int
    key_id: int


def pack_binary(payload: bytes, min_memory: int, entry_name: str = "main",
                digest: Optional[int] = None, key_id: int = 0) -> bytes:
    """Build a process binary; digest defaults to the payload's credential
    digest (:func:`fnv1a64`)."""
    if digest is None:
        digest = fnv1a64(payload)
    name = entry_name.encode("utf-8")
    header_len = _FIXED.size + _NAME_LEN.size + len(name) + _CREDENTIAL.size
    parts = [
        _FIXED.pack(MAGIC, VERSION, header_len, len(payload), min_memory),
        _NAME_LEN.pack(len(name)),
        name,
        _CREDENTIAL.pack(digest, key_id),
    ]
    return b"".join(parts) + payload


def parse_binary(blob: bytes):
    """Structural header check; returns (header, payload) or raises
    :class:`HeaderError` naming the defect."""
    if len(blob) < _FIXED.size:
        raise HeaderError("binary shorter than fixed header")
    magic, version, header_len, payload_len, min_memory = _FIXED.unpack_from(blob, 0)
    if magic != MAGIC:
        raise HeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise HeaderError(f"unsupported version {version}")
    name_off = _FIXED.size
    if len(blob) < name_off + _NAME_LEN.size:
        raise HeaderError("truncated entry name length")
    (name_len,) = _NAME_LEN.unpack_from(blob, name_off)
    expected_header = _FIXED.size + _NAME_LEN.size + name_len + _CREDENTIAL.size
    if header_len != expected_header:
        raise HeaderError(
            f"header_len {header_len} inconsistent (expected {expected_header})")
    if len(blob) < header_len:
        raise HeaderError("binary shorter than declared header")
    name_bytes = blob[name_off + _NAME_LEN.size:name_off + _NAME_LEN.size + name_len]
    try:
        entry_name = name_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise HeaderError("entry name is not valid UTF-8") from None
    digest, key_id = _CREDENTIAL.unpack_from(blob, header_len - _CREDENTIAL.size)
    if len(blob) - header_len != payload_len:
        raise HeaderError(
            f"payload_len {payload_len} does not match actual {len(blob) - header_len}")
    header = BinaryHeader(version, header_len, payload_len, min_memory,
                          entry_name, digest, key_id)
    return header, blob[header_len:]


class LoaderState(str, Enum):
    FETCHED = "fetched"
    HEADER_CHECKED = "header_checked"
    INTEGRITY_PENDING = "integrity_pending"
    INTEGRITY_CHECKED = "integrity_checked"
    RUNNABLE = "runnable"
    REJECTED = "rejected"


class RejectReason(str, Enum):
    BAD_HEADER = "BadHeader"
    BAD_INTEGRITY = "BadIntegrity"
    NOT_RUNNABLE = "NotRunnable"
    NO_ROOM = "NoRoom"


VERIFIER_POLICIES = ("accept_all", "digest_match", "digest_key_id")


def credential_accepted(policy: str, header: BinaryHeader, computed_digest: int,
                        trusted_key_ids) -> bool:
    """Apply the configured verifier policy, one of VERIFIER_POLICIES (the
    only values the board schema admits), to a computed payload digest."""
    if policy == "accept_all":
        return True
    if policy == "digest_match":
        return computed_digest == header.digest
    return computed_digest == header.digest and header.key_id in trusted_key_ids
