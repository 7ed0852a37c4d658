"""Incremental atom maintenance between snapshots.

A full :func:`~repro.core.atoms.compute_atoms` pass costs
O(prefixes x VPs) dict lookups per instant, yet between the paper's
same-quarter instants only a small fraction of prefixes change — VP
path vectors are highly redundant across time (Alfroy et al.,
"Measuring Internet Routing from the Most Valuable Points").
:class:`AtomIndex` exploits that redundancy: it keeps the interned
path-vector key of every prefix, collects the *dirty* prefix set from
:class:`~repro.bgp.rib.RIBSnapshot` mutation hooks as an update stream
is applied, and on :meth:`refresh` recomputes keys only for dirty
prefixes, repairing the affected equivalence classes in place.

Interning (:class:`~repro.core.intern.PathInternPool`, shared with the
columnar :mod:`~repro.core.kernel`) gives two properties the hot path
leans on:

* a normalised path or a path vector hashes **once**, when first seen;
* equal keys are the *same object*, so snapshot-to-snapshot
  comparisons — "did this prefix's key change?" — are pointer
  comparisons (``is``), not tuple hashing.

:meth:`AtomIndex.atoms` yields an :class:`~repro.core.atoms.AtomSet`
value-identical to a from-scratch ``compute_atoms`` over the same
snapshot and vantage points — including atom ids, because groups are
emitted in first-prefix order, exactly the order the batch enumeration
discovers them in.  The live pipeline (:mod:`repro.stream.live`) keeps
one index over its RIB and refreshes it with
:meth:`AtomIndex.refresh_delta` at every window boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.bgp.rib import PeerId, RIBSnapshot
from repro.core.atoms import AtomSet, PolicyAtom, vector_origins
from repro.core.intern import PathInternPool
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs import get_tracer

__all__ = ["AtomIndex", "IncrementalStats", "PathInternPool"]


@dataclass
class IncrementalStats:
    """Maintenance counters of one :class:`AtomIndex`."""

    #: per-prefix key (re)computations, including the initial build
    key_recomputations: int = 0
    #: prefixes marked dirty by mutation hooks
    dirty_marked: int = 0
    #: refresh passes that had work to do
    refreshes: int = 0
    #: full rebuilds (the initial build)
    rebuilds: int = 0
    #: dirty-set size of each refresh, in order
    dirty_sizes: List[int] = field(default_factory=list)


class AtomIndex:
    """Incrementally maintained policy-atom equivalence classes.

    The index owns (a reference to) one evolving :class:`RIBSnapshot`.
    It registers a mutation listener so that every announce/withdraw at
    a chosen vantage point marks the touched prefix dirty;
    :meth:`refresh` then recomputes keys for the dirty set only and
    repairs the affected groups.  Prefixes never touched keep their
    interned key — no lookups, no hashing.

    Parameters mirror :func:`~repro.core.atoms.compute_atoms`; the
    prefix universe follows the vantage points' tables dynamically.
    """

    def __init__(
        self,
        snapshot: RIBSnapshot,
        vantage_points: Optional[Sequence[PeerId]] = None,
        expand_singleton_sets: bool = True,
        strip_prepending: bool = False,
        pool: Optional[PathInternPool] = None,
    ):
        if pool is not None and (
            pool.expand_singleton_sets != expand_singleton_sets
            or pool.strip_prepending != strip_prepending
        ):
            raise ValueError("intern pool normalisation options mismatch")
        self.snapshot = snapshot
        if vantage_points is None:
            vantage_points = sorted(snapshot.peers())
        self.vantage_points: List[PeerId] = list(vantage_points)
        self._vp_set: Set[PeerId] = set(self.vantage_points)
        self.pool = pool if pool is not None else PathInternPool(
            expand_singleton_sets, strip_prepending
        )
        self.stats = IncrementalStats()
        #: prefix -> interned vector (only prefixes with a visible path)
        self._keys: Dict[Prefix, Tuple] = {}
        #: interned vector -> member prefixes
        self._groups: Dict[Tuple, Set[Prefix]] = {}
        # Extraction memos, keyed by id(vector) like the ``is`` test in
        # _apply_key (the vector stays alive as a _groups key) and
        # dropped with their group, so neither outgrows the live groups.
        #: id(vector) -> its origin set, computed once per group
        self._origins: Dict[int, FrozenSet[int]] = {}
        #: id(vector) -> Prefix.key of the group's smallest member;
        #: dropped whenever a member leaves, recomputed in atoms()
        self._first_keys: Dict[int, Tuple[int, int, int]] = {}
        self._dirty: Set[Prefix] = set()
        snapshot.add_mutation_listener(self._on_mutation)
        self._rebuild()

    # ------------------------------------------------------------------
    # Dirty-set collection
    # ------------------------------------------------------------------

    def _on_mutation(self, peer_id: PeerId, prefix: Prefix) -> None:
        if peer_id not in self._vp_set:
            return
        # Count unique dirty prefixes, not mutation events: a prefix
        # touched twice inside one window is one unit of refresh work,
        # and the dirty-set economy metrics must say so (the set itself
        # always deduplicated; the counter used to double-count).
        if prefix not in self._dirty:
            self._dirty.add(prefix)
            self.stats.dirty_marked += 1

    @property
    def dirty_count(self) -> int:
        """Prefixes currently awaiting recomputation."""
        return len(self._dirty)

    # ------------------------------------------------------------------
    # Key maintenance
    # ------------------------------------------------------------------

    def _compute_key(self, prefix: Prefix,
                     tables: Sequence) -> Optional[Tuple]:
        """The interned path-vector key, or None when unseen everywhere."""
        parts: List[Optional[ASPath]] = []
        visible = False
        pool_path = self.pool.path
        for table in tables:
            attributes = table.get(prefix) if table is not None else None
            if attributes is None:
                parts.append(None)
                continue
            path = pool_path(attributes.as_path)
            parts.append(path)
            if path is not None:
                visible = True
        if not visible:
            return None
        return self.pool.vector(parts)

    def _tables(self) -> List:
        # Resolved per refresh: a VP's table can be created lazily by
        # the first announcement routed through the snapshot.
        return [self.snapshot.table(vp) for vp in self.vantage_points]

    def _apply_key(self, prefix: Prefix, key: Optional[Tuple]) -> None:
        old = self._keys.get(prefix)
        if old is key:  # pointer comparison — keys are interned
            return
        if old is not None:
            members = self._groups[old]
            members.discard(prefix)
            if not members:
                del self._groups[old]
                self._origins.pop(id(old), None)
            self._first_keys.pop(id(old), None)
        if key is None:
            self._keys.pop(prefix, None)
        else:
            self._keys[prefix] = key
            self._groups.setdefault(key, set()).add(prefix)
            first = self._first_keys.get(id(key))
            if first is not None:
                self._first_keys[id(key)] = min(first, Prefix.key(prefix))

    def _rebuild(self) -> None:
        """Full recomputation (the initial build)."""
        tracer = get_tracer()
        with tracer.span("atoms-rebuild") as span:
            tables = self._tables()
            universe: Set[Prefix] = set()
            for table in tables:
                if table is not None:
                    universe |= table.prefixes()
            recomputed = 0
            for prefix in universe:
                key = self._compute_key(prefix, tables)
                recomputed += 1
                if key is not None:
                    self._keys[prefix] = key
                    self._groups.setdefault(key, set()).add(prefix)
            self.stats.key_recomputations += recomputed
            self.stats.rebuilds += 1
            if tracer.enabled:
                span.set(
                    prefixes=recomputed,
                    groups=len(self._groups),
                    intern_pool=len(self.pool),
                )
                tracer.count("incremental.rebuilds")
                tracer.count("incremental.key_recomputations", recomputed)

    def refresh(self) -> int:
        """Recompute keys for the dirty set; returns its size."""
        return len(self._refresh(collect=None))

    def refresh_delta(self) -> Dict[Prefix, Optional[Tuple]]:
        """Refresh and return the key *changes* the dirty set caused.

        The mapping holds one entry per dirty prefix whose interned key
        actually moved: the new key, or None when the prefix lost its
        last visible path.  Prefixes whose recomputed key is pointer-
        identical to the old one are omitted — exactly the work
        :meth:`_apply_key` skipped.  The live pipeline reports the
        delta's size as the window's key changes.
        """
        delta: Dict[Prefix, Optional[Tuple]] = {}
        self._refresh(collect=delta)
        return delta

    def _refresh(
        self, collect: Optional[Dict[Prefix, Optional[Tuple]]]
    ) -> Set[Prefix]:
        """Shared refresh walk; fills ``collect`` with key changes."""
        if not self._dirty:
            return set()
        tracer = get_tracer()
        with tracer.span("atoms-refresh") as span:
            tables = self._tables()
            dirty = self._dirty
            self._dirty = set()
            for prefix in dirty:
                key = self._compute_key(prefix, tables)
                self.stats.key_recomputations += 1
                if collect is not None and self._keys.get(prefix) is not key:
                    collect[prefix] = key
                self._apply_key(prefix, key)
            self.stats.refreshes += 1
            self.stats.dirty_sizes.append(len(dirty))
            if tracer.enabled:
                span.set(
                    dirty=len(dirty),
                    groups=len(self._groups),
                    intern_pool=len(self.pool),
                )
                tracer.count("incremental.refreshes")
                tracer.count("incremental.dirty_refreshed", len(dirty))
                tracer.count("incremental.key_recomputations", len(dirty))
        return dirty

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def atoms(self) -> AtomSet:
        """The current :class:`AtomSet` (refreshes pending work first).

        Identical — atom ids included — to ``compute_atoms`` over the
        same snapshot and VPs: batch enumeration discovers groups
        in order of their first (smallest) prefix, which is the order
        groups are emitted here.
        """
        self.refresh()
        first_keys = self._first_keys
        origins = self._origins
        for vector, members in self._groups.items():
            if id(vector) not in first_keys:
                first_keys[id(vector)] = min(map(Prefix.key, members))
            if id(vector) not in origins:
                origins[id(vector)] = vector_origins(vector)
        ordered = sorted(
            self._groups.items(), key=lambda item: first_keys[id(item[0])]
        )
        atoms = [
            PolicyAtom(atom_id, frozenset(members), vector, origins[id(vector)])
            for atom_id, (vector, members) in enumerate(ordered)
        ]
        return AtomSet(atoms, list(self.vantage_points), self.snapshot.timestamp)

    def __len__(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:
        return (
            f"AtomIndex({len(self._groups)} groups, {len(self._keys)} prefixes, "
            f"{len(self.vantage_points)} VPs, {len(self._dirty)} dirty)"
        )
