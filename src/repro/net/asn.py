"""Autonomous System Number utilities.

ASNs are plain ``int`` throughout the library; this module centralises the
range classification rules (IANA registry) used by the sanitization pipeline
to spot misconfigured peers (e.g. the AS65000 case in the paper's A8.3.2).
"""

from __future__ import annotations

from typing import Tuple

ASN_MAX = (1 << 32) - 1

#: AS_TRANS (RFC 6793): placeholder ASN used when 4-byte ASNs traverse
#: 2-byte-only speakers.  Seeing it in a path is a data-quality signal.
AS_TRANS = 23456

#: (low, high) inclusive ranges reserved for private use (RFC 6996).
PRIVATE_ASN_RANGES: Tuple[Tuple[int, int], ...] = (
    (64512, 65534),
    (4200000000, 4294967294),
)
(_PRIVATE_16_LOW, _PRIVATE_16_HIGH), (_PRIVATE_32_LOW, _PRIVATE_32_HIGH) = (
    PRIVATE_ASN_RANGES
)

#: Ranges reserved for documentation (RFC 5398).
DOCUMENTATION_ASN_RANGES: Tuple[Tuple[int, int], ...] = (
    (64496, 64511),
    (65536, 65551),
)


def validate_asn(asn: int) -> int:
    """Return ``asn`` unchanged if it is a syntactically valid ASN.

    Raises ``ValueError`` otherwise.  Zero is rejected because it is
    reserved (RFC 7607) and never legitimately appears in an AS path.
    This sits on the hot path of path construction, so the common case
    is a single exact-type check plus a range comparison.
    """
    if asn.__class__ is int and 1 <= asn <= ASN_MAX:
        return asn
    raise ValueError(f"ASN must be an int in 1..{ASN_MAX}, got {asn!r}")


def is_private_asn(asn: int) -> bool:
    """True for RFC 6996 private-use ASNs (e.g. 65000)."""
    return (
        _PRIVATE_16_LOW <= asn <= _PRIVATE_16_HIGH
        or _PRIVATE_32_LOW <= asn <= _PRIVATE_32_HIGH
    )


def is_documentation_asn(asn: int) -> bool:
    """True for RFC 5398 documentation ASNs."""
    return any(low <= asn <= high for low, high in DOCUMENTATION_ASN_RANGES)


def is_reserved_asn(asn: int) -> bool:
    """True for ASNs that must never appear in global routing.

    Covers 0, 65535, 4294967295, AS_TRANS, and the private and
    documentation ranges.
    """
    if asn in (0, 65535, ASN_MAX, AS_TRANS):
        return True
    return is_private_asn(asn) or is_documentation_asn(asn)


def is_public_asn(asn: int) -> bool:
    """True for ASNs that may legitimately appear in a global AS path."""
    return 1 <= asn <= ASN_MAX and not is_reserved_asn(asn)
