"""Frozen copy of the update correlation before its touched-prefix path.

A test-only oracle: ``tests/core/test_correlation_differential.py``
asserts that :func:`repro.core.update_correlation.update_correlation`
returns exactly what this version returns — the same group kinds, ids,
sizes and counts, in the same dict order.  This version builds the
prefix membership of *every* group and a reverse index over all of
them before it reads a record; it walks each atom's path vector for
its origins itself, so it does not lean on any memo of the library.
Do not optimise this module; its value is that it stays the plain
statement of the analysis.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.bgp.messages import RouteRecord
from repro.core.atoms import AtomSet, PolicyAtom
from repro.core.update_correlation import (
    GROUP_AS,
    GROUP_AS_MULTI_ATOM,
    GROUP_AS_SINGLE_ATOMS,
    GROUP_ATOM,
    GroupCounts,
    UpdateCorrelation,
)
from repro.net.prefix import Prefix


def _origins(atom: PolicyAtom) -> Set[int]:
    found: Set[int] = set()
    for path in atom.paths:
        if path is not None and path.origin is not None:
            found.add(path.origin)
    return found


def _atoms_by_origin(atom_set: AtomSet) -> Dict[int, List[PolicyAtom]]:
    grouped: Dict[int, List[PolicyAtom]] = defaultdict(list)
    for atom in atom_set.atoms:
        for origin in _origins(atom):
            grouped[origin].append(atom)
    return dict(grouped)


def build_groups(atom_set: AtomSet) -> Dict[str, Dict[int, FrozenSet[Prefix]]]:
    """Prefix membership of every analysed group kind."""
    groups: Dict[str, Dict[int, FrozenSet[Prefix]]] = {
        GROUP_ATOM: {},
        GROUP_AS: {},
        GROUP_AS_MULTI_ATOM: {},
        GROUP_AS_SINGLE_ATOMS: {},
    }
    for atom in atom_set:
        groups[GROUP_ATOM][atom.atom_id] = atom.prefixes

    for origin, atoms in _atoms_by_origin(atom_set).items():
        prefixes: Set[Prefix] = set()
        for atom in atoms:
            prefixes |= atom.prefixes
        frozen = frozenset(prefixes)
        groups[GROUP_AS][origin] = frozen
        if any(atom.size > 1 for atom in atoms):
            groups[GROUP_AS_MULTI_ATOM][origin] = frozen
        else:
            groups[GROUP_AS_SINGLE_ATOMS][origin] = frozen
    return groups


def update_correlation(
    atom_set: AtomSet,
    records: Iterable[RouteRecord],
    max_size: Optional[int] = None,
) -> UpdateCorrelation:
    """Count full/partial appearances of every group across records."""
    membership = build_groups(atom_set)

    # prefix -> [(kind, group_id)] reverse index, plus per-group sizes.
    reverse: Dict[Prefix, List[Tuple[str, int]]] = defaultdict(list)
    sizes: Dict[Tuple[str, int], int] = {}
    for kind, by_id in membership.items():
        for group_id, prefixes in by_id.items():
            if max_size is not None and len(prefixes) > max_size:
                continue
            sizes[(kind, group_id)] = len(prefixes)
            for prefix in prefixes:
                reverse[prefix].append((kind, group_id))

    result = UpdateCorrelation()
    for record in records:
        if record.record_type != "update":
            continue
        result.records_seen += 1
        prefixes = record.prefixes()
        touched: Dict[Tuple[str, int], int] = defaultdict(int)
        for prefix in prefixes:
            for key in reverse.get(prefix, ()):
                touched[key] += 1
        for key, hit_count in touched.items():
            kind, group_id = key
            size = sizes[key]
            table = result.groups[kind]
            counts = table.get(group_id)
            if counts is None:
                counts = GroupCounts(size=size)
                table[group_id] = counts
            if hit_count == size:
                counts.n_all += 1
            else:
                counts.n_partial += 1
    return result
