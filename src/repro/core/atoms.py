"""Policy-atom computation.

A policy atom (Broido & Claffy 2001; Afek et al. 2002) is a maximal
group of prefixes that share the same AS path at *every* vantage point.
Prefixes absent from a vantage point's table carry an "empty" path
there, so a prefix missing at any VP can only group with prefixes
missing at the same VPs (§2.3).

``compute_atoms`` implements the definition: each prefix's key is its
path vector across the ordered vantage-point list, and atoms are the
equivalence classes of that key.  The grouping itself runs through the
columnar kernel (:mod:`repro.core.kernel`): paths are interned to dense
ids and each prefix's id vector packed into a fixed-width bytes key, so
the hot dict pass hashes compact byte strings instead of tuples of
:class:`~repro.net.aspath.ASPath` objects.  Output is value-identical
to the direct implementation (kept as
:func:`~repro.core.kernel.compute_atoms_reference`), atom ids included.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bgp.rib import PeerId, RIBSnapshot
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.intern import PathInternPool


def vector_origins(paths: Tuple[Optional[ASPath], ...]) -> FrozenSet[int]:
    """Origin ASNs across a path vector (more than one only for MOAS)."""
    return frozenset(
        path.origin
        for path in paths
        if path is not None and path.origin is not None
    )


class PolicyAtom:
    """One atom: its prefixes plus the shared path vector.

    ``paths[i]`` is the AS path seen by ``vantage_points[i]`` of the
    owning :class:`AtomSet` (None when the atom's prefixes are not in
    that vantage point's table).  ``origins`` may pass the precomputed
    :func:`vector_origins` of ``paths`` (the incremental index keeps one
    per path vector); otherwise :meth:`origins` walks the vector.
    """

    __slots__ = ("atom_id", "prefixes", "paths", "_origins")

    def __init__(self, atom_id: int, prefixes: FrozenSet[Prefix],
                 paths: Tuple[Optional[ASPath], ...],
                 origins: Optional[FrozenSet[int]] = None):
        self.atom_id = atom_id
        self.prefixes = prefixes
        self.paths = paths
        self._origins = origins

    @property
    def size(self) -> int:
        return len(self.prefixes)

    def origins(self) -> AbstractSet[int]:
        """Origin ASNs across the path vector (>1 only for MOAS)."""
        if self._origins is not None:
            return self._origins
        return vector_origins(self.paths)

    @property
    def origin(self) -> Optional[int]:
        """The unique origin AS, or None when empty/ambiguous."""
        origins = self.origins()
        if len(origins) == 1:
            return next(iter(origins))
        return None

    def visible_at(self) -> Tuple[int, ...]:
        """Indices of vantage points that carry this atom."""
        return tuple(i for i, path in enumerate(self.paths) if path is not None)

    def __len__(self) -> int:
        return len(self.prefixes)

    def __repr__(self) -> str:
        return f"PolicyAtom(id={self.atom_id}, size={self.size}, origin={self.origin})"


class AtomSet:
    """All atoms computed from one snapshot, with lookup indexes."""

    def __init__(self, atoms: List[PolicyAtom], vantage_points: List[PeerId],
                 timestamp: int = 0):
        self.atoms = atoms
        self.vantage_points = vantage_points
        self.timestamp = timestamp
        self.by_prefix: Dict[Prefix, PolicyAtom] = {}
        for atom in atoms:
            for prefix in atom.prefixes:
                self.by_prefix[prefix] = atom
        #: lazily built atoms_by_origin() result; AtomSet is immutable
        #: after construction, so the grouping never goes stale
        self._by_origin: Optional[Dict[int, List[PolicyAtom]]] = None

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def prefixes(self) -> Set[Prefix]:
        """All prefixes across atoms."""
        return set(self.by_prefix)

    def prefix_count(self) -> int:
        """Total prefixes across atoms."""
        return len(self.by_prefix)

    def atoms_by_origin(self) -> Dict[int, List[PolicyAtom]]:
        """Atoms grouped by (unique) origin AS; MOAS atoms appear under
        each of their origins, matching the paper's per-origin analyses.

        Memoised: the grouping walks every atom's path vector, several
        per-origin analyses (``origin_count`` included) call it
        repeatedly, and the atom set never changes after construction.
        Callers share one dict — treat it as read-only.
        """
        if self._by_origin is None:
            grouped: Dict[int, List[PolicyAtom]] = defaultdict(list)
            for atom in self.atoms:
                for origin in atom.origins():
                    grouped[origin].append(atom)
            self._by_origin = dict(grouped)
        return self._by_origin

    def origin_count(self) -> int:
        """Number of distinct origin ASes."""
        return len(self.atoms_by_origin())

    def atom_of(self, prefix: Prefix) -> Optional[PolicyAtom]:
        """The atom containing ``prefix``, or None."""
        return self.by_prefix.get(prefix)

    def prefix_sets(self) -> Set[FrozenSet[Prefix]]:
        """The atoms' prefix sets (the CAM comparison key)."""
        return {atom.prefixes for atom in self.atoms}

    def __repr__(self) -> str:
        return (
            f"AtomSet({len(self.atoms)} atoms, {self.prefix_count()} prefixes, "
            f"{len(self.vantage_points)} VPs)"
        )


def _prepare_path(path: Optional[ASPath], expand_singletons: bool,
                  strip_prepending: bool) -> Optional[ASPath]:
    """Apply the configured path normalisations; None drops the route."""
    if path is None:
        return None
    if expand_singletons and path.has_set:
        path = path.expand_singleton_sets()
        if path.has_set:
            return None  # multi-element AS_SET: route removed (§2.4.4)
    if strip_prepending:
        path = ASPath.from_asns(path.strip_prepending())
    return path


def compute_atoms(
    snapshot: RIBSnapshot,
    vantage_points: Optional[Sequence[PeerId]] = None,
    prefixes: Optional[Iterable[Prefix]] = None,
    expand_singleton_sets: bool = True,
    strip_prepending: bool = False,
    pool: Optional["PathInternPool"] = None,
) -> AtomSet:
    """Group prefixes into policy atoms.

    Parameters
    ----------
    snapshot:
        The cross-peer RIB state.
    vantage_points:
        Peers to use (default: all peers in the snapshot).  Pass the
        full-feed list from the sanitizer for paper-faithful results.
    prefixes:
        Prefix universe to group (default: every prefix any chosen VP
        carries).  Pass the sanitizer's filtered set.
    expand_singleton_sets:
        Expand one-element AS_SETs; drop paths with larger sets.
    strip_prepending:
        Remove prepending *before* grouping — formation-distance method
        (i), kept for the Figure 1 comparison.  The paper's method (iii)
        groups on raw paths (the default).
    pool:
        Optional shared :class:`~repro.core.intern.PathInternPool`;
        successive snapshots fed through one pool intern (and hash)
        each normalised path once for the pool's lifetime.  Its
        normalisation options must match the keyword flags.
    """
    from repro.core.kernel import columnar_atoms

    return columnar_atoms(
        snapshot,
        vantage_points=vantage_points,
        prefixes=prefixes,
        expand_singleton_sets=expand_singleton_sets,
        strip_prepending=strip_prepending,
        pool=pool,
    )
