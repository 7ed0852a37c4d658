"""BGP path attributes.

Only the attributes the replication pipeline actually consumes are
modelled: AS_PATH, communities, MED, LOCAL_PREF and ORIGIN.  They travel
together in a :class:`PathAttributes` value object attached to each route
element.
"""

from __future__ import annotations

from enum import IntEnum
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.net.aspath import ASPath


class Origin(IntEnum):
    """BGP ORIGIN attribute (RFC 4271 §5.1.1)."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class Community:
    """An RFC 1997 community value ``asn:value``.

    The paper discusses action communities (e.g. GTT 3257:2990 "do not
    announce in North America"); the simulator uses communities to drive
    selective export at transit ASes.
    """

    __slots__ = ("asn", "value", "_hash")

    def __init__(self, asn: int, value: int):
        if not 0 <= asn <= 0xFFFFFFFF:
            raise ValueError(f"community ASN {asn} out of range")
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"community value {value} out of range")
        object.__setattr__(self, "asn", asn)
        object.__setattr__(self, "value", value)
        # Tags are dict keys of every transit's export rules.
        object.__setattr__(self, "_hash", hash((asn, value)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Community is immutable")

    def __reduce__(self) -> Tuple[type, Tuple[int, int]]:
        return (Community, (self.asn, self.value))

    @classmethod
    def parse(cls, text: str) -> "Community":
        asn_text, _, value_text = text.partition(":")
        return cls(int(asn_text), int(value_text))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Community)
            and self.asn == other.asn
            and self.value == other.value
        )

    def __lt__(self, other: "Community") -> bool:
        return (self.asn, self.value) < (other.asn, other.value)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"

    def __repr__(self) -> str:
        return f"Community({self.asn}, {self.value})"


class PathAttributes:
    """The attribute bundle carried by one route announcement."""

    __slots__ = ("as_path", "communities", "med", "local_pref", "origin", "_hash")

    def __init__(
        self,
        as_path: ASPath,
        communities: Iterable[Community] = (),
        med: int = 0,
        local_pref: int = 100,
        origin: Origin = Origin.IGP,
    ):
        if not isinstance(origin, Origin):
            origin = Origin(origin)
        object.__setattr__(self, "as_path", as_path)
        object.__setattr__(self, "communities", frozenset(communities))
        object.__setattr__(self, "med", med)
        object.__setattr__(self, "local_pref", local_pref)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(
            self,
            "_hash",
            hash((as_path, self.communities, med, local_pref, self.origin)),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PathAttributes is immutable")

    def __reduce__(
        self,
    ) -> Tuple[type, Tuple[ASPath, FrozenSet[Community], int, int, Origin]]:
        return (
            PathAttributes,
            (self.as_path, self.communities, self.med, self.local_pref, self.origin),
        )

    def with_path(self, as_path: ASPath) -> "PathAttributes":
        """A copy with a different AS path."""
        return PathAttributes(
            as_path, self.communities, self.med, self.local_pref, self.origin
        )

    def with_communities(self, communities: Iterable[Community]) -> "PathAttributes":
        """A copy with a different community set."""
        return PathAttributes(
            self.as_path, communities, self.med, self.local_pref, self.origin
        )

    def community_values(self) -> Tuple[str, ...]:
        """Sorted textual community values."""
        return tuple(sorted(str(c) for c in self.communities))

    @property
    def origin_asn(self) -> Optional[int]:
        return self.as_path.origin

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PathAttributes)
            and self.as_path == other.as_path
            and self.communities == other.communities
            and self.med == other.med
            and self.local_pref == other.local_pref
            and self.origin == other.origin
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"PathAttributes(path={self.as_path!s}, "
            f"communities={sorted(map(str, self.communities))}, med={self.med})"
        )


EMPTY_COMMUNITIES: FrozenSet[Community] = frozenset()
