"""Streaming atom maintenance: keep an :class:`AtomIndex` current forever.

The offline pipeline recomputes atoms per snapshot; this module keeps
the partition *continuously* current against a BGPStream-shaped update
feed, the way an operational deployment of the paper's measurement
would run.  :class:`LivePipeline` owns one
:class:`~repro.bgp.rib.RIBSnapshot` and one
:class:`~repro.core.incremental.AtomIndex` over it, and applies each
record's route elements directly in the calling thread.

Time is cut into fixed, absolutely aligned windows (window ``k`` is
``[k*w, (k+1)*w)``).  At each boundary the index recomputes keys only
for the prefixes the window dirtied (:meth:`AtomIndex.refresh_delta`),
so per-window work is proportional to churn, not to table size, and
emits an :class:`~repro.core.atoms.AtomSet` that is value-identical —
atom ids and ordering included — to a cold
:func:`~repro.core.atoms.compute_atoms` over the same RIB;
``parity="window"`` proves exactly that at every boundary against a
copy of the route tables and a fresh intern pool.

Crash safety comes from
:class:`~repro.engine.checkpoint.StreamCheckpoint`: every
``checkpoint_every`` boundaries the pipeline dumps the RIB and the
replay position atomically.  A killed pipeline resumes from the last
saved boundary by *position* (records consumed), not by timestamp —
out-of-order records across dump boundaries make timestamp-based
skipping diverge from an uninterrupted run, position never does.
See ``docs/streaming.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import AdjRIBIn, PeerId, RIBSnapshot
from repro.core.atoms import AtomSet, compute_atoms
from repro.core.incremental import AtomIndex
from repro.engine.checkpoint import StreamCheckpoint
from repro.net.prefix import Prefix
from repro.obs import TracerLike, get_tracer
from repro.store.writer import MANIFEST_NAME, PARTS_DIR, merge_parts, write_part
from repro.stream.windows import (
    WindowResult,
    window_churn,
    window_correlation,
)

__all__ = [
    "LiveConfig",
    "LiveError",
    "LiveParityError",
    "LivePipeline",
    "LiveRun",
]


class LiveError(RuntimeError):
    """The live pipeline cannot continue."""


class LiveParityError(LiveError):
    """The streamed atom partition diverged from the cold recompute."""


@dataclass
class LiveConfig:
    """Tuning knobs of one :class:`LivePipeline` run."""

    #: window width in seconds; windows are absolutely aligned
    window_seconds: int = 900
    #: checkpoint directory (None disables checkpointing)
    checkpoint_dir: Optional[Path] = None
    #: save a checkpoint every N closed windows (and at end of stream)
    checkpoint_every: int = 1
    #: store root for per-window snapshot parts (None disables the sink)
    store_dir: Optional[Path] = None
    #: merge parts into the queryable store every N windows (0: at end)
    store_merge_every: int = 0
    #: "window" proves streamed == cold recompute at every boundary
    parity: str = "window"
    #: compute the per-window update correlation (Pr_full)
    correlation: bool = True
    correlation_max_size: Optional[int] = None
    #: stop after closing this many windows (None: run the stream out)
    max_windows: Optional[int] = None
    #: restrict to one address family (None: both)
    family: Optional[int] = None
    expand_singleton_sets: bool = True
    strip_prepending: bool = False

    def __post_init__(self) -> None:
        if self.window_seconds < 1:
            raise ValueError("window_seconds must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.parity not in ("off", "window"):
            raise ValueError(f"unknown parity mode {self.parity!r}")
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = Path(self.checkpoint_dir)
        if self.store_dir is not None:
            self.store_dir = Path(self.store_dir)

    def payload(self) -> Dict[str, Any]:
        """The result-affecting knobs a resumed run must repeat."""
        return {
            "window_seconds": self.window_seconds,
            "family": self.family,
            "expand_singleton_sets": self.expand_singleton_sets,
            "strip_prepending": self.strip_prepending,
        }


@dataclass
class LiveRun:
    """What one :meth:`LivePipeline.run` produced."""

    windows: List[WindowResult]
    atoms: Optional[AtomSet]
    vantage_points: List[PeerId]
    #: stream records folded into windows (this run only)
    records: int = 0
    #: records that primed the initial RIB (source dump or checkpoint)
    prime_records: int = 0
    #: already-consumed records skipped while resuming
    skipped: int = 0
    resumed: bool = False
    #: window index of the checkpoint the run resumed from
    resumed_from: Optional[int] = None
    parity_checks: int = 0
    checkpoints: int = 0
    store_keys: List[str] = field(default_factory=list)
    #: True when max_windows stopped the run before the stream ended
    stopped_early: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``repro live --json`` payload)."""
        return {
            "windows": [w.as_dict(deterministic_only=True) for w in self.windows],
            "atoms": None if self.atoms is None else len(self.atoms),
            "prefixes": None if self.atoms is None else self.atoms.prefix_count(),
            "vantage_points": [list(vp) for vp in self.vantage_points],
            "records": self.records,
            "prime_records": self.prime_records,
            "skipped": self.skipped,
            "resumed": self.resumed,
            "resumed_from": self.resumed_from,
            "parity_checks": self.parity_checks,
            "checkpoints": self.checkpoints,
            "store_keys": list(self.store_keys),
            "stopped_early": self.stopped_early,
        }


class LivePipeline:
    """The streaming atom-maintenance pipeline.

    ``records`` is any iterable of :class:`RouteRecord` in arrival
    order — a :class:`~repro.stream.bgpstream.BGPStream`, an archive
    reader, a list in tests.  Leading ``rib`` records prime the initial
    table (the BGPStream convention: a dump precedes the update feed);
    pass ``vantage_points`` explicitly to run without a leading dump.
    """

    def __init__(
        self,
        records: Iterable[RouteRecord],
        config: Optional[LiveConfig] = None,
        vantage_points: Optional[Sequence[PeerId]] = None,
    ):
        self.records = records
        self.config = config if config is not None else LiveConfig()
        self._explicit_vps = (
            [tuple(vp) for vp in vantage_points] if vantage_points else None
        )
        self._vps: List[PeerId] = []
        self._projects: Dict[PeerId, str] = {}
        self._consumed = 0

    def _apply(self, snapshot: RIBSnapshot, record: RouteRecord) -> int:
        """Apply one record's elements (of the chosen family) to the RIB."""
        family = self.config.family
        peer_id = record.peer_id
        applied = 0
        for element in record.elements:
            if family is not None and element.prefix.family != family:
                continue
            if element.element_type == ElementType.WITHDRAWAL:
                snapshot.withdraw(peer_id, element.prefix)
            else:
                snapshot.announce(peer_id, element.prefix, element.attributes)
            applied += 1
        return applied

    def _copy_tables(
        self, snapshot: RIBSnapshot
    ) -> Dict[PeerId, Dict[Prefix, PathAttributes]]:
        """Per-vantage-point copies of the route tables.

        Every vantage point appears (empty when it carries no routes),
        so checkpoints preserve VP identity even for dried-up feeds.
        """
        tables: Dict[PeerId, Dict[Prefix, PathAttributes]] = {}
        for vp in self._vps:
            table = snapshot.table(vp)
            tables[vp] = {} if table is None else dict(table._routes)
        return tables

    # -- parity ---------------------------------------------------------

    def _replayed_snapshot(
        self,
        tables: Dict[PeerId, Dict[Prefix, PathAttributes]],
        timestamp: int,
    ) -> RIBSnapshot:
        # Wraps the boundary's table copies as they are: compute_atoms
        # only reads them, and the checkpoint reads the same copies.
        snapshot = RIBSnapshot(timestamp)
        for peer_id, routes in tables.items():
            table = AdjRIBIn(peer_id)
            table._routes = routes
            snapshot._tables[peer_id] = table
        return snapshot

    def _check_parity(
        self,
        streamed: AtomSet,
        tables: Dict[PeerId, Dict[Prefix, PathAttributes]],
        window_end: int,
        tracer: TracerLike,
    ) -> None:
        with tracer.span("live-parity", window_end=window_end) as span:
            replayed = self._replayed_snapshot(tables, window_end)
            cold = compute_atoms(
                replayed,
                vantage_points=self._vps,
                expand_singleton_sets=self.config.expand_singleton_sets,
                strip_prepending=self.config.strip_prepending,
            )
            problems = _diff_atom_sets(streamed, cold)
            if tracer.enabled:
                span.set(atoms=len(cold), mismatches=len(problems))
                tracer.count("live.parity_checks")
            if problems:
                shown = "\n  ".join(problems[:5])
                raise LiveParityError(
                    f"streamed atoms diverged from cold recompute at "
                    f"window end {window_end} "
                    f"({len(problems)} mismatch(es)):\n  {shown}"
                )

    # -- checkpoint / store ---------------------------------------------

    def _boundary_records(
        self,
        tables: Dict[PeerId, Dict[Prefix, PathAttributes]],
        window_end: int,
    ) -> List[RouteRecord]:
        records = []
        for peer_id in sorted(tables):
            collector, peer_asn, peer_address = peer_id
            elements = [
                RouteElement(ElementType.RIB, prefix, attributes)
                for prefix, attributes in sorted(
                    tables[peer_id].items(),
                    key=lambda item: Prefix.key(item[0]),
                )
            ]
            records.append(
                RouteRecord(
                    "rib",
                    self._projects.get(peer_id, "unknown"),
                    collector,
                    peer_asn,
                    peer_address,
                    window_end,
                    elements,
                )
            )
        return records

    def _save_checkpoint(
        self,
        checkpoint: StreamCheckpoint,
        tables: Dict[PeerId, Dict[Prefix, PathAttributes]],
        window_index: int,
        window_end: int,
        tracer: TracerLike,
    ) -> None:
        with tracer.span("live-checkpoint", window_index=window_index):
            checkpoint.save(
                window_index,
                window_end,
                self._boundary_records(tables, window_end),
                self.config.payload(),
                meta={
                    "records_consumed": self._consumed,
                    "vantage_points": [list(vp) for vp in self._vps],
                },
            )
            if tracer.enabled:
                tracer.count("live.checkpoints")

    def _write_store_window(
        self,
        atoms: AtomSet,
        window_index: int,
        window_end: int,
        tracer: TracerLike,
    ) -> str:
        assert self.config.store_dir is not None
        key = f"w{window_index:08d}"
        write_part(
            self.config.store_dir,
            key,
            [
                {
                    "key": key,
                    "atoms": atoms,
                    "label": str(window_end),
                    "role": "window",
                    "family": self.config.family or 0,
                },
            ],
        )
        if tracer.enabled:
            tracer.count("live.store_windows")
        return key

    def _merge_store(self, keys: Sequence[str], tracer: TracerLike) -> None:
        assert self.config.store_dir is not None
        merge_parts(self.config.store_dir, sorted(keys))
        if tracer.enabled:
            tracer.count("live.store_merges")

    def _existing_store_keys(self) -> List[str]:
        if self.config.store_dir is None:
            return []
        parts = Path(self.config.store_dir) / PARTS_DIR
        if not parts.is_dir():
            return []
        return sorted(
            entry.name
            for entry in parts.iterdir()
            if entry.name.startswith("w") and (entry / MANIFEST_NAME).is_file()
        )

    # -- the run --------------------------------------------------------

    def run(
        self,
        on_window: Optional[Callable[[WindowResult], None]] = None,
    ) -> LiveRun:
        """Consume the stream; returns the closed windows and final atoms.

        ``on_window`` is invoked after each window closes (checkpoint
        and store sink included) — raise from it to stop the pipeline
        at a boundary, which is exactly what the soak harness does to
        simulate a kill.
        """
        config = self.config
        tracer = get_tracer()
        checkpoint = (
            StreamCheckpoint(config.checkpoint_dir)
            if config.checkpoint_dir is not None
            else None
        )

        # The span is managed by hand (not ``with``) so the resume and
        # prime phases — which already consume the traced source — sit
        # inside it; lazily opened mrt-decode spans then nest properly.
        run_span = tracer.span("live-run").__enter__()
        try:
            # Resume or prime --------------------------------------------
            iterator = iter(self.records)
            prime: List[RouteRecord] = []
            pending: Optional[RouteRecord] = None
            skip = 0
            resumed = False
            resumed_from: Optional[int] = None
            prime_counts_consumed = False
            loaded = checkpoint.load(config=config.payload()) if checkpoint else None
            if loaded is not None:
                state, prime = loaded
                meta = state.get("meta", {})
                self._vps = [tuple(vp) for vp in meta.get("vantage_points", [])]
                skip = int(meta.get("records_consumed", 0))
                resumed = True
                resumed_from = int(state["window_index"])
                if self._explicit_vps and self._explicit_vps != self._vps:
                    raise LiveError(
                        "explicit vantage points disagree with the "
                        "checkpoint's"
                    )
            else:
                prime_counts_consumed = True
                for record in iterator:
                    if record.record_type != "rib":
                        pending = record
                        break
                    prime.append(record)
                if self._explicit_vps is not None:
                    self._vps = list(self._explicit_vps)
                else:
                    self._vps = sorted({record.peer_id for record in prime})
                if not self._vps:
                    raise LiveError(
                        "stream carries no leading RIB dump and no explicit "
                        "vantage points were given"
                    )
            vp_set = set(self._vps)
            for record in prime:
                if record.peer_id in vp_set:
                    self._projects[record.peer_id] = record.project

            run = LiveRun(
                windows=[],
                atoms=None,
                vantage_points=list(self._vps),
                resumed=resumed,
                resumed_from=resumed_from,
            )
            store_keys = self._existing_store_keys()
            run.store_keys = list(store_keys)
            unmerged = 0

            snapshot = RIBSnapshot()
            atom_index = AtomIndex(
                snapshot,
                vantage_points=self._vps,
                expand_singleton_sets=config.expand_singleton_sets,
                strip_prepending=config.strip_prepending,
            )

            # Prime the RIB and take the initial partition.
            for record in prime:
                if record.peer_id not in vp_set:
                    continue
                self._apply(snapshot, record)
                run.prime_records += 1
                if prime_counts_consumed:
                    self._consumed += 1
            if tracer.enabled and run.prime_records:
                tracer.count("live.prime_records", run.prime_records)
            atom_index.refresh_delta()
            previous_atoms = atom_index.atoms()

            # Window state.
            window_start: Optional[int] = None
            window_end: Optional[int] = None
            stats = _WindowStats()
            stopped = False

            def close_window(boundary_end: int) -> None:
                nonlocal previous_atoms, unmerged
                assert window_start is not None
                index = window_start // config.window_seconds
                with tracer.span("live-window", index=index, end=boundary_end) as span:
                    began = time.perf_counter()
                    dirty = atom_index.dirty_count
                    changed = len(atom_index.refresh_delta())
                    snapshot.timestamp = boundary_end
                    atoms = atom_index.atoms()
                    created, removed = window_churn(previous_atoms, atoms)
                    pr_full = (
                        window_correlation(
                            previous_atoms,
                            stats.update_records,
                            max_size=config.correlation_max_size,
                        )
                        if config.correlation
                        else None
                    )
                    result = WindowResult(
                        index=index,
                        start=window_start,
                        end=boundary_end,
                        records=stats.records,
                        elements=stats.elements,
                        announcements=stats.announcements,
                        withdrawals=stats.withdrawals,
                        late_records=stats.late,
                        dirty=dirty,
                        key_changes=changed,
                        atoms=len(atoms),
                        prefixes=atoms.prefix_count(),
                        created=created,
                        removed=removed,
                        pr_full=pr_full,
                    )
                    tables = None
                    if config.parity == "window" or (
                        checkpoint is not None
                        and (len(run.windows) + 1) % config.checkpoint_every == 0
                    ):
                        tables = self._copy_tables(snapshot)
                    if config.parity == "window":
                        assert tables is not None
                        self._check_parity(atoms, tables, boundary_end, tracer)
                        run.parity_checks += 1
                    run.windows.append(result)
                    if config.store_dir is not None:
                        key = self._write_store_window(
                            atoms, index, boundary_end, tracer
                        )
                        store_keys.append(key)
                        run.store_keys.append(key)
                        unmerged += 1
                        if (
                            config.store_merge_every
                            and unmerged >= config.store_merge_every
                        ):
                            self._merge_store(store_keys, tracer)
                            unmerged = 0
                    if (
                        checkpoint is not None
                        and tables is not None
                        and len(run.windows) % config.checkpoint_every == 0
                    ):
                        self._save_checkpoint(
                            checkpoint, tables, index, boundary_end, tracer
                        )
                        run.checkpoints += 1
                    result.wall_seconds = time.perf_counter() - began
                    if tracer.enabled:
                        span.set(
                            records=stats.records,
                            dirty=dirty,
                            key_changes=changed,
                            atoms=len(atoms),
                            churn_created=created,
                            churn_removed=removed,
                            wall_seconds=result.wall_seconds,
                        )
                        tracer.count("live.windows")
                        tracer.count("live.records", stats.records)
                        tracer.count("live.elements", stats.elements)
                        tracer.count("live.announcements", stats.announcements)
                        tracer.count("live.withdrawals", stats.withdrawals)
                        if stats.late:
                            tracer.count("live.late_records", stats.late)
                        tracer.count("live.dirty", dirty)
                        tracer.count("live.key_changes", changed)
                        tracer.count("live.churn_created", created)
                        tracer.count("live.churn_removed", removed)
                    previous_atoms = atoms
                    run.atoms = atoms
                    stats.reset()
                    if on_window is not None:
                        on_window(result)

            # The stream proper.
            source: Iterator[RouteRecord] = iterator
            if pending is not None:
                source = _chain_one(pending, iterator)
            for record in source:
                if skip > 0:
                    skip -= 1
                    self._consumed += 1
                    run.skipped += 1
                    continue
                if record.peer_id not in vp_set:
                    self._consumed += 1
                    if tracer.enabled:
                        tracer.count("live.foreign_records")
                    continue
                timestamp = record.timestamp
                if window_end is not None and timestamp >= window_end:
                    close_window(window_end)
                    window_start = None
                    window_end = None
                    if (
                        config.max_windows is not None
                        and len(run.windows) >= config.max_windows
                    ):
                        stopped = True
                        break
                if window_end is None:
                    index = timestamp // config.window_seconds
                    window_start = index * config.window_seconds
                    window_end = window_start + config.window_seconds
                self._projects.setdefault(record.peer_id, record.project)
                applied = self._apply(snapshot, record)
                stats.fold(record, applied, window_start or 0)
                run.records += 1
                self._consumed += 1

            if not stopped and window_end is not None:
                close_window(window_end)
            run.stopped_early = stopped

            if run.skipped and tracer.enabled:
                tracer.count("live.replay_skipped", run.skipped)

            # Finalisation: a clean stop checkpoints the last boundary
            # (so resuming a finished stream is a no-op) and merges any
            # store parts not yet folded in.
            if checkpoint is not None and run.windows:
                last = run.windows[-1]
                if len(run.windows) % config.checkpoint_every != 0:
                    self._save_checkpoint(
                        checkpoint,
                        self._copy_tables(snapshot),
                        last.index,
                        last.end,
                        tracer,
                    )
                    run.checkpoints += 1
            if config.store_dir is not None and store_keys and unmerged:
                self._merge_store(store_keys, tracer)
            elif (
                config.store_dir is not None
                and store_keys
                and not config.store_merge_every
            ):
                self._merge_store(store_keys, tracer)
            if tracer.enabled:
                run_span.set(windows=len(run.windows), records=run.records)
        finally:
            run_span.__exit__(None, None, None)
        if run.atoms is None and run.prime_records:
            run.atoms = previous_atoms
        return run


class _WindowStats:
    """Accumulators for the window currently being filled."""

    __slots__ = (
        "records",
        "elements",
        "announcements",
        "withdrawals",
        "late",
        "update_records",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.records = 0
        self.elements = 0
        self.announcements = 0
        self.withdrawals = 0
        self.late = 0
        self.update_records: List[RouteRecord] = []

    def fold(self, record: RouteRecord, applied: int, window_start: int) -> None:
        self.records += 1
        self.elements += applied
        for element in record.elements:
            if element.element_type == ElementType.WITHDRAWAL:
                self.withdrawals += 1
            else:
                self.announcements += 1
        if record.timestamp < window_start:
            self.late += 1
        if record.record_type == "update":
            self.update_records.append(record)


def _chain_one(
    first: RouteRecord, rest: Iterator[RouteRecord]
) -> Iterator[RouteRecord]:
    yield first
    yield from rest


def _diff_atom_sets(streamed: AtomSet, cold: AtomSet) -> List[str]:
    """Human-readable differences between two atom sets (empty: equal).

    Equality here is the strong form the parity gate promises: same
    vantage points, same atom count, and per index the same atom id,
    prefix set and path vector.
    """
    problems: List[str] = []
    if list(streamed.vantage_points) != list(cold.vantage_points):
        problems.append(
            f"vantage points differ: {streamed.vantage_points} "
            f"!= {cold.vantage_points}"
        )
        return problems
    if len(streamed) != len(cold):
        problems.append(
            f"atom count differs: streamed {len(streamed)} != cold {len(cold)}"
        )
    for mine, theirs in zip(streamed.atoms, cold.atoms):
        if mine.atom_id != theirs.atom_id:
            problems.append(
                f"atom id differs at position {theirs.atom_id}: "
                f"{mine.atom_id} != {theirs.atom_id}"
            )
        if mine.prefixes != theirs.prefixes:
            problems.append(
                f"atom {theirs.atom_id} prefixes differ "
                f"({len(mine.prefixes)} vs {len(theirs.prefixes)} members)"
            )
        if tuple(mine.paths) != tuple(theirs.paths):
            problems.append(f"atom {theirs.atom_id} path vector differs")
        if len(problems) >= 20:
            break
    return problems
