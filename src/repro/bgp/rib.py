"""Routing Information Base structures.

:class:`AdjRIBIn` is the per-peer table a collector maintains from one BGP
session.  :class:`RIBSnapshot` is the instantaneous cross-peer view the
policy-atom computation consumes: for each (peer, prefix), the selected
path attributes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteRecord
from repro.net.prefix import Prefix

PeerId = Tuple[str, int, str]  # (collector, peer ASN, peer address)

#: Mutation-listener signature: called with the touched (peer, prefix).
MutationListener = Callable[[PeerId, Prefix], None]


class AdjRIBIn:
    """The routes one peer currently advertises to a collector."""

    __slots__ = ("peer_id", "_routes")

    def __init__(self, peer_id: PeerId):
        self.peer_id = peer_id
        self._routes: Dict[Prefix, PathAttributes] = {}

    def announce(self, prefix: Prefix, attributes: PathAttributes) -> None:
        """Install or replace the route for ``prefix``."""
        self._routes[prefix] = attributes

    def withdraw(self, prefix: Prefix) -> None:
        """Remove the route for ``prefix`` (no-op when absent)."""
        self._routes.pop(prefix, None)

    def get(self, prefix: Prefix) -> Optional[PathAttributes]:
        """Attributes for ``prefix``, or None."""
        return self._routes.get(prefix)

    def prefixes(self) -> Set[Prefix]:
        """The prefixes this peer currently advertises."""
        return set(self._routes)

    def items(self) -> Iterator[Tuple[Prefix, PathAttributes]]:
        """Iterate (prefix, attributes) pairs."""
        return iter(self._routes.items())

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def copy(self) -> "AdjRIBIn":
        """An independent copy of this table."""
        clone = AdjRIBIn(self.peer_id)
        clone._routes = dict(self._routes)
        return clone


class RIBSnapshot:
    """Cross-peer routing state at one instant.

    This is the input to atom computation: ``snapshot.path(peer, prefix)``
    answers "what AS path did this vantage point have for this prefix".
    """

    def __init__(self, timestamp: int = 0):
        self.timestamp = timestamp
        self._tables: Dict[PeerId, AdjRIBIn] = {}
        #: mutation listeners; the incremental atom index registers one
        #: to collect its dirty prefix set (see repro.core.incremental)
        self._listeners: List[MutationListener] = []

    # ------------------------------------------------------------------
    # Mutation hooks
    # ------------------------------------------------------------------

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register ``listener(peer_id, prefix)`` for every announce or
        withdraw routed through this snapshot.

        Listeners fire only for mutations applied through this object
        (``apply_record``/``announce``/``withdraw``) — direct writes to
        an :class:`AdjRIBIn` obtained via :meth:`table`, or through a
        table-sharing view from :meth:`restrict_peers`, bypass them.
        """
        self._listeners.append(listener)

    def _table_for(self, peer_id: PeerId) -> AdjRIBIn:
        table = self._tables.get(peer_id)
        if table is None:
            table = AdjRIBIn(peer_id)
            self._tables[peer_id] = table
        return table

    def announce(self, peer_id: PeerId, prefix: Prefix,
                 attributes: PathAttributes) -> None:
        """Install one route and notify mutation listeners."""
        self._table_for(peer_id).announce(prefix, attributes)
        for listener in self._listeners:
            listener(peer_id, prefix)

    def withdraw(self, peer_id: PeerId, prefix: Prefix) -> None:
        """Remove one route (no-op when absent) and notify listeners."""
        table = self._tables.get(peer_id)
        if table is not None:
            table.withdraw(prefix)
        for listener in self._listeners:
            listener(peer_id, prefix)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[RouteRecord]) -> "RIBSnapshot":
        """Build a snapshot from RIB-dump records (corrupt ones included;
        filtering is the sanitizer's job, not the RIB's)."""
        snapshot = cls()
        for record in records:
            snapshot.apply_record(record)
        return snapshot

    def apply_record(self, record: RouteRecord) -> None:
        """Fold one record (RIB chunk or update) into the snapshot."""
        table = self._table_for(record.peer_id)
        listeners = self._listeners
        for element in record.elements:
            if element.element_type == ElementType.WITHDRAWAL:
                table.withdraw(element.prefix)
            else:
                table.announce(element.prefix, element.attributes)
            for listener in listeners:
                listener(record.peer_id, element.prefix)
        if record.timestamp > self.timestamp:
            self.timestamp = record.timestamp

    def copy(self) -> "RIBSnapshot":
        """A deep copy (tables cloned; listeners do not carry over)."""
        clone = RIBSnapshot(self.timestamp)
        clone._tables = {pid: t.copy() for pid, t in self._tables.items()}
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def peers(self) -> List[PeerId]:
        """All peer identities in the snapshot."""
        return list(self._tables)

    def collectors(self) -> Set[str]:
        """All collector names in the snapshot."""
        return {collector for collector, _, _ in self._tables}

    def table(self, peer_id: PeerId) -> Optional[AdjRIBIn]:
        """The per-peer table, or None for an unknown peer."""
        return self._tables.get(peer_id)

    def path(self, peer_id: PeerId, prefix: Prefix):
        """AS path for ``prefix`` at ``peer_id``, or None when unseen."""
        table = self._tables.get(peer_id)
        if table is None:
            return None
        attributes = table.get(prefix)
        return attributes.as_path if attributes else None

    def attributes(self, peer_id: PeerId, prefix: Prefix) -> Optional[PathAttributes]:
        """Attributes for (peer, prefix), or None when unseen."""
        table = self._tables.get(peer_id)
        return table.get(prefix) if table else None

    def prefix_count_by_peer(self) -> Dict[PeerId, int]:
        """Unique prefix count per peer (full-feed inference input)."""
        return {peer_id: len(table) for peer_id, table in self._tables.items()}

    def all_prefixes(self) -> Set[Prefix]:
        """Union of every peer's prefixes."""
        prefixes: Set[Prefix] = set()
        for table in self._tables.values():
            prefixes |= table.prefixes()
        return prefixes

    def prefix_visibility(self) -> Dict[Prefix, Tuple[Set[str], Set[int]]]:
        """For each prefix: the collectors and the peer ASNs that carry it.

        Drives the paper's §2.4.3 visibility filter (>= 2 collectors and
        >= 4 peer ASes).
        """
        visibility: Dict[Prefix, Tuple[Set[str], Set[int]]] = {}
        for (collector, peer_asn, _), table in self._tables.items():
            for prefix in table.prefixes():
                entry = visibility.get(prefix)
                if entry is None:
                    entry = (set(), set())
                    visibility[prefix] = entry
                entry[0].add(collector)
                entry[1].add(peer_asn)
        return visibility

    def restrict_peers(self, keep: Iterable[PeerId]) -> "RIBSnapshot":
        """Snapshot containing only the given peers (shares tables)."""
        keep_set = set(keep)
        restricted = RIBSnapshot(self.timestamp)
        restricted._tables = {
            peer_id: table
            for peer_id, table in self._tables.items()
            if peer_id in keep_set
        }
        return restricted

    def restrict_family(self, family: int) -> "RIBSnapshot":
        """Snapshot containing only prefixes of one address family."""
        restricted = RIBSnapshot(self.timestamp)
        for peer_id, table in self._tables.items():
            new_table = AdjRIBIn(peer_id)
            for prefix, attributes in table.items():
                if prefix.family == family:
                    new_table.announce(prefix, attributes)
            if len(new_table):
                restricted._tables[peer_id] = new_table
        return restricted

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        total = sum(len(t) for t in self._tables.values())
        return (
            f"RIBSnapshot(t={self.timestamp}, peers={len(self._tables)}, "
            f"routes={total})"
        )
