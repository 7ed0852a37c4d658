"""Correlation of atom structure with BGP update records (§3.3, §4.2).

For every atom (or AS) with k prefixes and every update record that
contains at least one of them, the record either contains all k (case
2) or a strict subset (case 3).  ``Pr_full(k)`` is the share of case-2
records — high for atoms, low for ASes, which is the paper's evidence
that routing operates at the atom level.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.messages import RouteRecord
from repro.core.atoms import AtomSet, PolicyAtom

#: Group kinds reported by the analysis (the four curves of Figure 3).
GROUP_ATOM = "atom"
GROUP_AS = "as"
GROUP_AS_MULTI_ATOM = "as_multi_atom"        # >= 1 atom with > 1 prefix
GROUP_AS_SINGLE_ATOMS = "as_single_atoms"    # every atom single-prefix


@dataclass
class GroupCounts:
    """N_all / N_partial for one prefix group."""

    size: int
    n_all: int = 0
    n_partial: int = 0


@dataclass
class UpdateCorrelation:
    """Per-group counters plus the aggregated Pr_full(k) curves."""

    groups: Dict[str, Dict[int, GroupCounts]] = field(
        default_factory=lambda: defaultdict(dict)
    )
    records_seen: int = 0

    def pr_full(self, kind: str, size: int) -> Optional[float]:
        """Pr_full(size) for one group kind; None when unobserved."""
        n_all = 0
        n_total = 0
        for counts in self.groups.get(kind, {}).values():
            if counts.size != size:
                continue
            n_all += counts.n_all
            n_total += counts.n_all + counts.n_partial
        if n_total == 0:
            return None
        return n_all / n_total

    def curve(self, kind: str, max_size: int = 7) -> List[Tuple[int, Optional[float]]]:
        """(k, Pr_full(k)) for k = 2..max_size (Figure 3 / 10 / 15)."""
        return [(k, self.pr_full(kind, k)) for k in range(2, max_size + 1)]


#: (kind, group id) of one group
_GroupKey = Tuple[str, int]


class _GroupResolver:
    """The groups a prefix belongs to, resolved on first touch.

    A prefix belongs to its atom's group and, for each origin of that
    atom (several for a MOAS atom), to the origin's AS group plus
    exactly one of the multi-atom / single-atoms AS groups.  Only the
    atoms a record touches are resolved.  The origin totals and the
    MOAS origin order read :meth:`AtomSet.atoms_by_origin`, which walks
    every atom once per atom set (memoised), so that one step is still
    linear in the number of atoms.  Keys come out in the order
    a full reverse index over every group would list them: the atom
    first, then each kind in turn with origins in
    :meth:`AtomSet.atoms_by_origin` order.
    """

    def __init__(self, atom_set: AtomSet, max_size: Optional[int]):
        self.atom_set = atom_set
        self.max_size = max_size
        #: size of every group resolved so far
        self.sizes: Dict[_GroupKey, int] = {}
        self._by_atom: Dict[int, List[_GroupKey]] = {}
        #: origin -> (AS group size, has an atom of more than one prefix)
        self._totals: Dict[int, Tuple[int, bool]] = {}
        self._rank: Optional[Dict[int, int]] = None

    def keys(self, atom: PolicyAtom) -> List[_GroupKey]:
        found = self._by_atom.get(id(atom))
        if found is None:
            found = self._by_atom[id(atom)] = self._resolve(atom)
        return found

    def _origin_totals(self, origin: int) -> Tuple[int, bool]:
        totals = self._totals.get(origin)
        if totals is None:
            # Atoms partition the prefixes, so an AS group's size is
            # the sum of its atoms' sizes.
            atoms = self.atom_set.atoms_by_origin()[origin]
            totals = self._totals[origin] = (
                sum(atom.size for atom in atoms),
                any(atom.size > 1 for atom in atoms),
            )
        return totals

    def _resolve(self, atom: PolicyAtom) -> List[_GroupKey]:
        max_size = self.max_size
        sizes = self.sizes
        keys: List[_GroupKey] = []
        if max_size is None or atom.size <= max_size:
            key = (GROUP_ATOM, atom.atom_id)
            keys.append(key)
            sizes[key] = atom.size
        origins = list(atom.origins())
        if len(origins) > 1:
            if self._rank is None:
                self._rank = {
                    origin: rank
                    for rank, origin in enumerate(self.atom_set.atoms_by_origin())
                }
            origins.sort(key=self._rank.__getitem__)
        split: List[_GroupKey] = []
        for origin in origins:
            size, multi = self._origin_totals(origin)
            if max_size is not None and size > max_size:
                continue
            kind = GROUP_AS_MULTI_ATOM if multi else GROUP_AS_SINGLE_ATOMS
            as_key, split_key = (GROUP_AS, origin), (kind, origin)
            sizes[as_key] = sizes[split_key] = size
            keys.append(as_key)
            split.append(split_key)
        # Every multi-atom key precedes every single-atoms key.
        split.sort(key=lambda key: key[0] != GROUP_AS_MULTI_ATOM)
        keys.extend(split)
        return keys


def update_correlation(
    atom_set: AtomSet,
    records: Iterable[RouteRecord],
    max_size: Optional[int] = None,
) -> UpdateCorrelation:
    """Count full/partial appearances of every group across records.

    ``max_size`` skips groups larger than the cut-off (the paper plots
    k <= 7, which covers 95 % of atoms).  Only the groups of prefixes
    the records carry are resolved; prefixes outside ``atom_set``
    belong to no group.
    """
    resolver = _GroupResolver(atom_set, max_size)
    atom_of = atom_set.by_prefix.get
    result = UpdateCorrelation()
    for record in records:
        if record.record_type != "update":
            continue
        result.records_seen += 1
        touched: Dict[_GroupKey, int] = {}
        for prefix in record.prefixes():
            atom = atom_of(prefix)
            if atom is None:
                continue
            for key in resolver.keys(atom):
                touched[key] = touched.get(key, 0) + 1
        for key, hit_count in touched.items():
            kind, group_id = key
            table = result.groups[kind]
            counts = table.get(group_id)
            if counts is None:
                counts = GroupCounts(size=resolver.sizes[key])
                table[group_id] = counts
            if hit_count == counts.size:
                counts.n_all += 1
            else:
                counts.n_partial += 1
    return result
