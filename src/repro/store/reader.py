"""Memory-mapped reading of columnar atom stores.

:class:`AtomStore` opens a store built by
:class:`~repro.store.writer.StoreWriter`: the JSON manifest is parsed
eagerly (format/version/byte-order checks happen up front), segment
files lazily — each is ``mmap``-ed on first touch and served as
zero-copy :class:`memoryview` slices, with the u32 columns read
through ``memoryview.cast``.  Nothing is decompressed and no rows are
materialised until :meth:`atoms` reconstructs a snapshot, so opening a
two-decade store costs milliseconds regardless of size.

Integrity is checked before trust: every mapped segment's size and
SHA-256 must match the manifest (disable per-open with
``verify=False`` once a store has been checked), headers are validated
by :func:`~repro.store.format.check_segment`, and shard payload
geometry must agree with the manifest row counts.  Every failure mode
raises :class:`~repro.store.format.StoreError` — a corrupt store never
yields silently wrong atoms.

Reconstruction is exact, not approximate: the atom-id column stores
``atom_id + 1`` in sorted-prefix row order, and the kernel assigns
atom ids in first-prefix order of that same universe, so replaying
rows in order rebuilds atoms with identical ids, identical member
sets, and path vectors resolved through the persisted path table
(property-tested against ``compute_atoms`` in ``tests/store/``).
"""

from __future__ import annotations

import hashlib
import json
import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.bgp.rib import PeerId
from repro.core.atoms import AtomSet, PolicyAtom
from repro.core.intern import ID_TYPECODE, KEY_WIDTH, PathInternPool
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs import get_tracer
from repro.store.format import (
    BYTE_ORDER,
    COLUMN_COUNTS,
    FORMAT_NAME,
    FORMAT_VERSION,
    KIND_COLUMNS,
    KIND_PATHS,
    PREFIX_RECORD,
    StoreError,
    check_segment,
    decode_path_table,
    decode_prefix,
    digest,
    peer_id_from_json,
)
from repro.store.writer import MANIFEST_NAME


@dataclass(frozen=True)
class ShardInfo:
    """One column shard: its file and covered prefix range."""

    file: str
    rows: int
    first: Prefix
    last: Prefix

    def covers(self, prefix: Prefix) -> bool:
        """True when ``prefix`` falls inside this shard's sorted range."""
        return self.first <= prefix <= self.last


@dataclass(frozen=True)
class StoreSnapshot:
    """Manifest entry for one persisted snapshot."""

    key: str
    label: str
    role: str
    year: float
    month: int
    family: int
    timestamp: int
    vantage_points: Tuple[PeerId, ...]
    prefixes: int
    atom_count: int
    feed: Optional[Dict[str, Any]]
    report: Optional[Dict[str, Any]]
    shards: Tuple[ShardInfo, ...]


@dataclass(frozen=True)
class QueryResult:
    """A point query's answer: which atom holds the prefix, and how."""

    key: str
    prefix: Prefix
    atom_id: int
    paths: Tuple[Optional[ASPath], ...]
    shard: str
    row: int


def _parse_entry(raw: Dict[str, Any]) -> StoreSnapshot:
    """Parse one manifest snapshot entry; StoreError on malformation."""
    try:
        shards = tuple(
            ShardInfo(
                file=shard["file"],
                rows=int(shard["rows"]),
                first=Prefix.parse(shard["first"]),
                last=Prefix.parse(shard["last"]),
            )
            for shard in raw["shards"]
        )
        return StoreSnapshot(
            key=str(raw["key"]),
            label=str(raw.get("label", "")),
            role=str(raw.get("role", "base")),
            year=float(raw.get("year", 0.0)),
            month=int(raw.get("month", 0)),
            family=int(raw.get("family", 0)),
            timestamp=int(raw.get("timestamp", 0)),
            vantage_points=tuple(
                peer_id_from_json(peer) for peer in raw["vantage_points"]
            ),
            prefixes=int(raw["prefixes"]),
            atom_count=int(raw["atoms"]),
            feed=raw.get("feed"),
            report=raw.get("report"),
            shards=shards,
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as error:
        raise StoreError(f"malformed manifest snapshot entry: {error}") from None


class AtomStore:
    """A read-only, memory-mapped view of one on-disk atom store.

    Opening parses and validates the manifest only; segments map on
    first use.  ``verify=True`` (the default) additionally checks each
    segment's SHA-256 against the manifest the first time it is mapped.
    Use as a context manager — or call :meth:`close` — to release the
    mappings.
    """

    def __init__(self, root: Union[str, Path], verify: bool = True):
        self.root = Path(root)
        self.verify = verify
        tracer = get_tracer()
        with tracer.span("store-open", root=str(self.root)) as span:
            manifest_path = self.root / MANIFEST_NAME
            try:
                raw = json.loads(manifest_path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise StoreError(
                    f"no atom store at {self.root} ({MANIFEST_NAME} missing)"
                ) from None
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
                raise StoreError(f"unreadable manifest: {error}") from None
            if not isinstance(raw, dict):
                raise StoreError(
                    f"manifest is a JSON {type(raw).__name__}, not an object"
                )
            if raw.get("format") != FORMAT_NAME:
                raise StoreError(
                    f"not an atom store manifest (format={raw.get('format')!r})"
                )
            if raw.get("version") != FORMAT_VERSION:
                raise StoreError(
                    f"store format version {raw.get('version')!r} unsupported "
                    f"(expected {FORMAT_VERSION})"
                )
            if raw.get("byte_order") != BYTE_ORDER:
                raise StoreError(
                    f"store written on a {raw.get('byte_order')!r}-endian "
                    f"machine cannot be mapped on {BYTE_ORDER!r}-endian"
                )
            if raw.get("key_width") != KEY_WIDTH:
                raise StoreError(
                    f"store id width {raw.get('key_width')!r} != {KEY_WIDTH}"
                )
            pool = raw.get("pool", {})
            segments = raw.get("segments", {})
            snapshots = raw.get("snapshots", [])
            if not (
                isinstance(pool, dict)
                and isinstance(segments, dict)
                and all(isinstance(meta, dict) for meta in segments.values())
                and isinstance(snapshots, list)
            ):
                raise StoreError(
                    "malformed manifest: pool and segments must be objects, "
                    "snapshots a list"
                )
            self.pool_options: Dict[str, Any] = dict(pool)
            self._segments: Dict[str, Dict[str, Any]] = segments
            entries = [_parse_entry(item) for item in snapshots]
            self._entries = entries
            self._by_key = {entry.key: entry for entry in entries}
            if len(self._by_key) != len(entries):
                raise StoreError("duplicate snapshot keys in manifest")
            #: relpath -> payload memoryview of the mapped segment
            self._views: Dict[str, memoryview] = {}
            #: relpath -> whole-file memoryview (header included)
            self._images: Dict[str, memoryview] = {}
            self._maps: List[Tuple[mmap.mmap, Any]] = []
            self._paths: Optional[List[Optional[ASPath]]] = None
            self._atoms_cache: Dict[str, AtomSet] = {}
            self._manifest_digest: Optional[str] = None
            self._closed = False
            if tracer.enabled:
                span.set(snapshots=len(entries))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release every mapping and file handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        self._images.clear()
        self._paths = None
        self._atoms_cache.clear()
        for mapped, handle in self._maps:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
            handle.close()
        self._maps.clear()

    def __enter__(self) -> "AtomStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Segment access
    # ------------------------------------------------------------------

    def _map_segment(self, relpath: str, kind: int) -> memoryview:
        """Map (once) and validate a segment; returns its payload view."""
        view = self._views.get(relpath)
        if view is not None:
            return view
        if self._closed:
            raise StoreError("store is closed")
        meta = self._segments.get(relpath)
        if meta is None:
            raise StoreError(f"segment {relpath} not listed in manifest")
        path = self.root / relpath
        try:
            handle = open(path, "rb")
        except OSError as error:
            raise StoreError(f"cannot open segment {relpath}: {error}") from None
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as error:
            handle.close()
            raise StoreError(f"cannot map segment {relpath}: {error}") from None
        self._maps.append((mapped, handle))
        data = memoryview(mapped)
        if len(data) != meta.get("bytes"):
            raise StoreError(
                f"segment {relpath} is {len(data)} bytes, manifest says "
                f"{meta.get('bytes')}"
            )
        if self.verify and digest(data) != meta.get("sha256"):
            raise StoreError(f"segment {relpath} fails its sha256 digest")
        view = check_segment(data, kind, relpath)
        self._views[relpath] = view
        self._images[relpath] = data
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("store.segments_opened")
            tracer.count("store.bytes_mapped", len(data))
        return view

    def path_table(self) -> List[Optional[ASPath]]:
        """The id-indexed path table (slot 0 = the absent sentinel)."""
        if self._paths is None:
            payload = self._map_segment("paths.seg", KIND_PATHS)
            decoded = decode_path_table(payload)
            expected = self.pool_options.get("path_count")
            if expected is not None and expected != len(decoded):
                raise StoreError(
                    f"path table has {len(decoded)} entries, manifest says "
                    f"{expected}"
                )
            self._paths = [None] + decoded
        return self._paths

    def intern_pool(self) -> PathInternPool:
        """A :class:`PathInternPool` reloaded from the persisted table.

        Dense ids match the store's columns exactly, so packed keys
        built against this pool are directly comparable with stored
        id vectors — no path is re-normalised or re-hashed.
        """
        return PathInternPool.from_table(
            [path for path in self.path_table()[1:] if path is not None],
            expand_singleton_sets=bool(
                self.pool_options.get("expand_singleton_sets", True)
            ),
            strip_prepending=bool(
                self.pool_options.get("strip_prepending", False)
            ),
        )

    def manifest_digest(self) -> str:
        """Hex digest identifying this store's exact content version.

        Derived from the manifest's per-segment SHA-256 digests plus
        the snapshot key order, so any rebuilt, extended or corrupted
        store gets a new identity.  ``repro serve`` uses it as the
        snapshot-version component of its ETags; it is memoised for
        the store's lifetime (the mapping is read-only).
        """
        if self._manifest_digest is None:
            body = {
                "segments": {
                    relpath: meta.get("sha256")
                    for relpath, meta in self._segments.items()
                },
                "snapshots": [entry.key for entry in self._entries],
            }
            encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
            self._manifest_digest = hashlib.sha256(
                encoded.encode("utf-8")
            ).hexdigest()
        return self._manifest_digest

    # ------------------------------------------------------------------
    # Snapshot index
    # ------------------------------------------------------------------

    def snapshots(self) -> List[StoreSnapshot]:
        """All snapshot entries in sweep (insertion) order."""
        return list(self._entries)

    def snapshot(self, key: str) -> StoreSnapshot:
        """The entry for ``key``; StoreError when absent."""
        entry = self._by_key.get(key)
        if entry is None:
            raise StoreError(f"snapshot {key!r} not in store {self.root}")
        return entry

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def _shard_columns(self, entry: StoreSnapshot, shard: ShardInfo):
        """Map one shard; returns ``(prefix bytes, u32 columns, rows)``.

        ``columns`` is the flat native-endian u32 view covering the
        atom column followed by the per-VP id columns, each ``rows``
        wide.
        """
        payload = self._map_segment(shard.file, KIND_COLUMNS)
        if len(payload) < COLUMN_COUNTS.size:
            raise StoreError(f"{shard.file}: payload shorter than its counts")
        rows, vps = COLUMN_COUNTS.unpack_from(payload, 0)
        if rows != shard.rows:
            raise StoreError(
                f"{shard.file}: {rows} rows on disk, manifest says {shard.rows}"
            )
        if vps != len(entry.vantage_points):
            raise StoreError(
                f"{shard.file}: {vps} id columns, manifest lists "
                f"{len(entry.vantage_points)} vantage points"
            )
        prefix_end = COLUMN_COUNTS.size + rows * PREFIX_RECORD.size
        columns_start = prefix_end + (-prefix_end % 4)
        expected = columns_start + KEY_WIDTH * rows * (1 + vps)
        if len(payload) != expected:
            raise StoreError(
                f"{shard.file}: payload is {len(payload)} bytes, geometry "
                f"requires {expected}"
            )
        prefix_block = payload[COLUMN_COUNTS.size:prefix_end]
        columns = payload[columns_start:].cast(ID_TYPECODE)
        return prefix_block, columns, rows

    def atoms(self, key: str) -> AtomSet:
        """Reconstruct the :class:`AtomSet` for snapshot ``key``.

        Value-identical to the ``compute_atoms`` output the store was
        built from — atom ids, member sets, path vectors, vantage-point
        order and timestamp included.  Results are memoised per store
        instance; repeat hits count as ``store.query_cache_hits``.
        """
        cached = self._atoms_cache.get(key)
        tracer = get_tracer()
        if cached is not None:
            if tracer.enabled:
                tracer.count("store.query_cache_hits")
            return cached
        entry = self.snapshot(key)
        with tracer.span("store-load", key=key) as span:
            table = self.path_table()
            members: List[List[Prefix]] = []
            vectors: List[Tuple[Optional[ASPath], ...]] = []
            vps = len(entry.vantage_points)
            for shard in entry.shards:
                prefix_block, columns, rows = self._shard_columns(entry, shard)
                for row in range(rows):
                    stamped = columns[row]
                    if stamped == 0:
                        continue
                    atom_id = stamped - 1
                    prefix = decode_prefix(
                        prefix_block[
                            row * PREFIX_RECORD.size:
                            (row + 1) * PREFIX_RECORD.size
                        ]
                    )
                    if atom_id == len(members):
                        members.append([prefix])
                        try:
                            vectors.append(tuple(
                                table[columns[(1 + vp) * rows + row]]
                                for vp in range(vps)
                            ))
                        except IndexError:
                            raise StoreError(
                                f"{shard.file}: path id beyond the path table"
                            ) from None
                    elif atom_id < len(members):
                        members[atom_id].append(prefix)
                    else:
                        raise StoreError(
                            f"{shard.file}: atom id {atom_id} appears before "
                            f"{len(members) - 1} was introduced"
                        )
            if len(members) != entry.atom_count:
                raise StoreError(
                    f"snapshot {key!r} rebuilt {len(members)} atoms, manifest "
                    f"says {entry.atom_count}"
                )
            atom_set = AtomSet(
                [
                    PolicyAtom(index, frozenset(group), vectors[index])
                    for index, group in enumerate(members)
                ],
                list(entry.vantage_points),
                entry.timestamp,
            )
            if len(atom_set.by_prefix) != entry.prefixes:
                raise StoreError(
                    f"snapshot {key!r} rebuilt {len(atom_set.by_prefix)} "
                    f"prefixes, manifest says {entry.prefixes}"
                )
            self._atoms_cache[key] = atom_set
            if tracer.enabled:
                span.set(atoms=len(atom_set), prefixes=entry.prefixes)
                tracer.count("store.snapshots_loaded")
        return atom_set

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def query(
        self,
        prefix: Union[str, Prefix],
        key: Optional[str] = None,
        shards: Optional[Sequence[ShardInfo]] = None,
    ) -> Optional[QueryResult]:
        """Locate ``prefix`` in one snapshot without loading the snapshot.

        Routes through the manifest's shard ranges, then binary-searches
        the one covering shard's prefix column bytewise (encoded records
        order exactly like :meth:`Prefix.key`).  ``key`` defaults to the
        store's first snapshot.  Returns None when the prefix is not in
        the snapshot's universe.

        ``shards`` restricts the search to a pre-routed candidate list
        (``repro.serve``'s prefix-trie router); the default considers
        every shard of the snapshot, and both paths return identical
        answers because candidates are still filtered by
        :meth:`ShardInfo.covers`.
        """
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if key is None:
            if not self._entries:
                raise StoreError("store holds no snapshots")
            key = self._entries[0].key
        entry = self.snapshot(key)
        tracer = get_tracer()
        with tracer.span("store-query", key=key, prefix=str(prefix)):
            target = PREFIX_RECORD.pack(
                prefix.family, prefix.network.to_bytes(16, "big"), prefix.length
            )
            for shard in entry.shards if shards is None else shards:
                if not shard.covers(prefix):
                    continue
                prefix_block, columns, rows = self._shard_columns(entry, shard)
                width = PREFIX_RECORD.size
                low, high = 0, rows
                while low < high:
                    mid = (low + high) // 2
                    record = bytes(prefix_block[mid * width:(mid + 1) * width])
                    if record < target:
                        low = mid + 1
                    elif record > target:
                        high = mid
                    else:
                        stamped = columns[mid]
                        if stamped == 0:
                            return None
                        table = self.path_table()
                        vps = len(entry.vantage_points)
                        try:
                            paths = tuple(
                                table[columns[(1 + vp) * rows + mid]]
                                for vp in range(vps)
                            )
                        except IndexError:
                            raise StoreError(
                                f"{shard.file}: path id beyond the path table"
                            ) from None
                        return QueryResult(
                            key=key,
                            prefix=prefix,
                            atom_id=stamped - 1,
                            paths=paths,
                            shard=shard.file,
                            row=mid,
                        )
                return None
        return None

    def verify_segments(self) -> int:
        """Map and digest-check every manifest segment; returns the count.

        Forces a full integrity pass regardless of the instance's
        ``verify`` flag (segments already mapped unverified are
        re-hashed here).
        """
        checked = 0
        for relpath, meta in sorted(self._segments.items()):
            kind = KIND_PATHS if relpath == "paths.seg" else KIND_COLUMNS
            self._map_segment(relpath, kind)
            if not self.verify:
                image = self._images[relpath]
                if digest(image) != meta.get("sha256"):
                    raise StoreError(
                        f"segment {relpath} fails its sha256 digest"
                    )
            checked += 1
        return checked

    def total_bytes(self) -> int:
        """Sum of all segment sizes listed in the manifest."""
        return sum(int(meta.get("bytes", 0)) for meta in self._segments.values())
