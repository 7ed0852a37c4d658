"""Windowed metrics for the live atom-maintenance pipeline.

The streaming pipeline (:mod:`repro.stream.live`) cuts the update
stream into fixed-width, absolutely aligned time windows: window ``k``
covers ``[k * w, (k + 1) * w)`` seconds since the epoch.  At every
window boundary the pipeline refreshes the atom partition and emits one
:class:`WindowResult` — the streaming analogue of the paper's
per-quarter rows, reusing the same churn notions (atom prefix-set
creation/removal, as in :mod:`repro.core.stability`) and the
atoms-vs-updates correlation of §3.3 (:mod:`repro.core.update_correlation`)
evaluated over just that window's records.

Everything in a :class:`WindowResult` except the wall-clock field is a
deterministic function of the replayed stream, which is what lets CI
gate the ``live.*`` counters exactly; ``wall_seconds`` describes the
run, not the data, and is exported as a span attribute only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bgp.messages import RouteRecord
from repro.core.atoms import AtomSet
from repro.core.update_correlation import (
    GROUP_ATOM,
    UpdateCorrelation,
    update_correlation,
)
from repro.reporting.series import Series
from repro.reporting.tables import render_table


@dataclass
class WindowResult:
    """One closed window of the live pipeline."""

    #: absolute window index (``end // window_seconds - 1`` aligned)
    index: int
    #: inclusive window start (seconds since the epoch)
    start: int
    #: exclusive window end — the boundary the refresh ran at
    end: int
    #: records folded into this window
    records: int
    #: route elements across those records
    elements: int
    announcements: int
    withdrawals: int
    #: records whose timestamp predates the window start (out-of-order
    #: arrivals across dump boundaries; folded in, flagged here)
    late_records: int
    #: unique prefixes the refresh recomputed at the boundary
    dirty: int
    #: prefixes whose interned key actually moved
    key_changes: int
    #: atom count after the boundary refresh
    atoms: int
    #: visible prefixes after the boundary refresh
    prefixes: int
    #: atoms whose prefix set did not exist at the previous boundary
    created: int
    #: previous-boundary atoms whose prefix set disappeared
    removed: int
    #: share of window records containing *all* prefixes of a touched
    #: atom (``Pr_full`` of §3.3 over this window; None when unobserved)
    pr_full: Optional[float]
    #: wall-clock seconds spent in the window (non-deterministic)
    wall_seconds: float = 0.0

    def as_dict(self, deterministic_only: bool = False) -> Dict[str, object]:
        """JSON-safe view; ``deterministic_only`` drops wall-clock noise."""
        payload: Dict[str, object] = {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "records": self.records,
            "elements": self.elements,
            "announcements": self.announcements,
            "withdrawals": self.withdrawals,
            "late_records": self.late_records,
            "dirty": self.dirty,
            "key_changes": self.key_changes,
            "atoms": self.atoms,
            "prefixes": self.prefixes,
            "created": self.created,
            "removed": self.removed,
            "pr_full": self.pr_full,
        }
        if not deterministic_only:
            payload["wall_seconds"] = self.wall_seconds
        return payload


def overall_pr_full(
    correlation: UpdateCorrelation, kind: str = GROUP_ATOM
) -> Optional[float]:
    """Aggregate ``Pr_full`` across all sizes of one group kind.

    The per-size curves feed the paper's Figure 3; a window wants one
    number, so full and partial appearances are pooled over every group
    observed in the window.  None when no group was touched at all.
    """
    n_all = 0
    n_total = 0
    for counts in correlation.groups.get(kind, {}).values():
        n_all += counts.n_all
        n_total += counts.n_all + counts.n_partial
    if n_total == 0:
        return None
    return n_all / n_total


def window_correlation(
    atoms: AtomSet,
    records: Iterable[RouteRecord],
    max_size: Optional[int] = None,
) -> Optional[float]:
    """``Pr_full`` of the window's update records against ``atoms``.

    ``atoms`` is the partition *entering* the window (records update
    prefixes against the structure that existed while they arrived).
    """
    return overall_pr_full(update_correlation(atoms, records, max_size=max_size))


def window_churn(previous: Optional[AtomSet], current: AtomSet) -> "tuple[int, int]":
    """(created, removed) atom prefix-sets between two boundaries.

    The comparison key is the atom's prefix set — the same notion the
    CAM stability metric uses — so renumbered-but-identical atoms do
    not count as churn.
    """
    if previous is None:
        return len(current.atoms), 0
    before = previous.prefix_sets()
    after = current.prefix_sets()
    return len(after - before), len(before - after)


def window_series(results: Sequence[WindowResult]) -> List[Series]:
    """The windows as figure-ready series (x = window end, epoch s)."""
    atoms = Series("live.atoms")
    dirty = Series("live.dirty")
    created = Series("live.churn_created")
    removed = Series("live.churn_removed")
    pr_full = Series("live.pr_full")
    for window in results:
        x = float(window.end)
        atoms.add(x, float(window.atoms))
        dirty.add(x, float(window.dirty))
        created.add(x, float(window.created))
        removed.add(x, float(window.removed))
        pr_full.add(x, window.pr_full)
    return [atoms, dirty, created, removed, pr_full]


def render_window_table(results: Sequence[WindowResult]) -> str:
    """The ``repro live`` summary table."""
    rows = []
    for window in results:
        rows.append(
            [
                window.index,
                window.end,
                f"{window.records:,}",
                f"{window.dirty:,}",
                f"{window.key_changes:,}",
                f"{window.atoms:,}",
                f"+{window.created}/-{window.removed}",
                "-" if window.pr_full is None else f"{window.pr_full:.0%}",
            ]
        )
    headers = [
        "window",
        "end",
        "records",
        "dirty",
        "moved",
        "atoms",
        "churn",
        "Pr_full",
    ]
    return render_table(headers, rows, title="Live window metrics")
