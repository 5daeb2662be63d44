"""A simplified IAB TCF v2 transparency & consent string codec.

Real TC strings are base64url-encoded bitfields carrying the CMP id,
the consent timestamp, purpose consents, and vendor consents.  This
codec keeps that structure (header + purposes bitfield + vendor range)
in a compact, deterministic format::

    2.<cmp_id>.<purposes-bits>.<vendor-ids>.<signal>

encoded with base64url.  It is intentionally *not* wire-compatible
with the IAB format, but exercises the same encode/decode pipeline a
consent auditor needs.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import FrozenSet, List

from repro.errors import ParseError

#: TCF v2 declares ten standard purposes.
NUM_PURPOSES = 10

#: Purposes granted by a blanket "accept all" click.
ALL_PURPOSES: FrozenSet[int] = frozenset(range(1, NUM_PURPOSES + 1))


@dataclass(frozen=True)
class ConsentRecord:
    """A decoded consent state."""

    cmp_id: int
    purposes: FrozenSet[int] = field(default_factory=frozenset)
    vendors: FrozenSet[int] = field(default_factory=frozenset)
    signal: str = "accept"   # accept | reject

    @property
    def is_reject(self) -> bool:
        return self.signal == "reject"


def _purposes_bits(purposes: FrozenSet[int]) -> str:
    return "".join(
        "1" if p in purposes else "0" for p in range(1, NUM_PURPOSES + 1)
    )


def encode_tc_string(record: ConsentRecord) -> str:
    """Encode a :class:`ConsentRecord` into a TC-style string."""
    if not 0 <= record.cmp_id <= 9999:
        raise ParseError(f"cmp_id out of range: {record.cmp_id}")
    if any(p < 1 or p > NUM_PURPOSES for p in record.purposes):
        raise ParseError("purpose ids must be within 1..10")
    if record.signal not in ("accept", "reject"):
        raise ParseError(f"unknown consent signal {record.signal!r}")
    vendors = ",".join(str(v) for v in sorted(record.vendors))
    raw = ".".join(
        [
            "2",
            str(record.cmp_id),
            _purposes_bits(record.purposes),
            vendors,
            record.signal,
        ]
    )
    return base64.urlsafe_b64encode(raw.encode("ascii")).decode("ascii").rstrip("=")


def decode_tc_string(token: str) -> ConsentRecord:
    """Decode a TC-style string; raises :class:`ParseError` when invalid."""
    if not token:
        raise ParseError("empty consent string")
    padding = "=" * (-len(token) % 4)
    try:
        raw = base64.urlsafe_b64decode(token + padding).decode("ascii")
    except (ValueError, UnicodeDecodeError) as exc:
        raise ParseError(f"undecodable consent string: {exc}") from exc
    parts = raw.split(".")
    if len(parts) != 5 or parts[0] != "2":
        raise ParseError(f"malformed consent payload: {raw!r}")
    _, cmp_text, bits, vendor_text, signal = parts
    if not cmp_text.isdigit():
        raise ParseError(f"bad cmp id {cmp_text!r}")
    if len(bits) != NUM_PURPOSES or set(bits) - {"0", "1"}:
        raise ParseError(f"bad purposes bitfield {bits!r}")
    if signal not in ("accept", "reject"):
        raise ParseError(f"bad signal {signal!r}")
    purposes = frozenset(
        i + 1 for i, bit in enumerate(bits) if bit == "1"
    )
    vendors: List[int] = []
    if vendor_text:
        for piece in vendor_text.split(","):
            if not piece.isdigit():
                raise ParseError(f"bad vendor id {piece!r}")
            vendors.append(int(piece))
    return ConsentRecord(
        cmp_id=int(cmp_text),
        purposes=purposes,
        vendors=frozenset(vendors),
        signal=signal,
    )


def accept_all_string(cmp_id: int, vendors: FrozenSet[int] = frozenset()) -> str:
    """The string a blanket accept click produces."""
    return encode_tc_string(
        ConsentRecord(cmp_id=cmp_id, purposes=ALL_PURPOSES,
                      vendors=vendors, signal="accept")
    )


def reject_all_string(cmp_id: int) -> str:
    """The string a reject-all click produces (no purposes granted)."""
    return encode_tc_string(
        ConsentRecord(cmp_id=cmp_id, purposes=frozenset(), signal="reject")
    )
