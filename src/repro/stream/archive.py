"""On-disk archive of route records.

Layout mirrors real MRT archives so paths are self-describing::

    <root>/<project>/<collector>/<type>/<YYYY>/<MM>/<timestamp>.jsonl.gz

Each file holds the records of one (collector, type, dump-instant).
"""

from __future__ import annotations

import gzip
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bgp.messages import RouteRecord
from repro.stream.serialize import read_records, record_to_json


class RecordArchive:
    """Write and query route-record dumps under one root directory."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _dump_path(self, project: str, collector: str, record_type: str,
                   timestamp: int) -> Path:
        moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
        return (
            self.root
            / project
            / collector
            / record_type
            / f"{moment.year:04d}"
            / f"{moment.month:02d}"
            / f"{timestamp}.jsonl.gz"
        )

    def write_dump(self, records: Iterable[RouteRecord],
                   dump_timestamp: Optional[int] = None) -> List[Path]:
        """Persist records, grouped per (project, collector, type).

        ``dump_timestamp`` names the dump files; by default each group
        is named after its first record's timestamp.
        """
        groups: Dict[Tuple[str, str, str], List[RouteRecord]] = {}
        for record in records:
            key = (record.project, record.collector, record.record_type)
            groups.setdefault(key, []).append(record)
        written: List[Path] = []
        for (project, collector, record_type), group in groups.items():
            stamp = dump_timestamp if dump_timestamp is not None else group[0].timestamp
            path = self._dump_path(project, collector, record_type, stamp)
            path.parent.mkdir(parents=True, exist_ok=True)
            # Write via a temp file + atomic rename: an interrupted run
            # must never leave a truncated dump that a later read (or an
            # engine cache build) would silently ingest.
            tmp = path.parent / f"{path.name}.tmp{os.getpid()}"
            try:
                with gzip.open(tmp, "wt", encoding="utf-8") as handle:
                    for record in group:
                        handle.write(record_to_json(record))
                        handle.write("\n")
                os.replace(tmp, path)
            finally:
                if tmp.exists():
                    try:
                        tmp.unlink()
                    except OSError:  # pragma: no cover - best effort
                        pass
            written.append(path)
        return written

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def read_file(self, path: os.PathLike) -> Iterator[RouteRecord]:
        """Stream the records of one dump file (see :func:`read_records`)."""
        return read_records(path)

    def dumps(
        self,
        project: Optional[str] = None,
        collector: Optional[str] = None,
        record_type: Optional[str] = None,
    ) -> List[Tuple[str, str, str, int, Path]]:
        """Enumerate stored dumps as (project, collector, type, ts, path)."""
        found: List[Tuple[str, str, str, int, Path]] = []
        projects = [project] if project else sorted(
            p.name for p in self.root.iterdir() if p.is_dir()
        )
        for proj in projects:
            proj_dir = self.root / proj
            if not proj_dir.is_dir():
                continue
            collectors = [collector] if collector else sorted(
                c.name for c in proj_dir.iterdir() if c.is_dir()
            )
            for coll in collectors:
                coll_dir = proj_dir / coll
                if not coll_dir.is_dir():
                    continue
                types = [record_type] if record_type else sorted(
                    t.name for t in coll_dir.iterdir() if t.is_dir()
                )
                for rtype in types:
                    type_dir = coll_dir / rtype
                    if not type_dir.is_dir():
                        continue
                    self._sweep_stale_tmp(type_dir)
                    for path in sorted(type_dir.rglob("*.jsonl.gz")):
                        # Dump files are named <timestamp>.jsonl.gz;
                        # anything else (editor droppings, partial
                        # copies) is not a dump — skip, don't raise.
                        head = path.name.split(".")[0]
                        if not head.isdigit():
                            continue
                        found.append((proj, coll, rtype, int(head), path))
        found.sort(key=lambda item: (item[3], item[0], item[1]))
        return found

    @staticmethod
    def _sweep_stale_tmp(type_dir: Path) -> None:
        """Remove orphaned ``*.tmp<pid>`` files from killed writers.

        ``write_dump`` stages each dump as ``<name>.tmp<pid>`` before
        the atomic rename; a writer killed mid-write leaves that file
        behind forever.  A tmp file whose owning pid is no longer alive
        cannot be completed, so enumeration deletes it (a live pid's
        file is left alone — the writer may still rename it).
        """
        for tmp in type_dir.rglob("*.jsonl.gz.tmp*"):
            suffix = tmp.name.rpartition(".tmp")[2]
            if not suffix.isdigit():
                continue
            pid = int(suffix)
            try:
                alive = pid == os.getpid() or (os.kill(pid, 0) is None)
            except ProcessLookupError:
                alive = False
            except PermissionError:  # pragma: no cover - pid exists
                alive = True
            if not alive:
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass

    def records(
        self,
        project: Optional[str] = None,
        collector: Optional[str] = None,
        record_type: Optional[str] = None,
        from_time: Optional[int] = None,
        until_time: Optional[int] = None,
    ) -> Iterator[RouteRecord]:
        """Stream records matching the filters, in dump-time order.

        Dump-level pruning applies only to ``until_time``: a dump's
        name is its *first* record's timestamp, so a dump stamped
        before ``from_time`` can still contain in-range records (an
        update dump spanning the boundary).  ``from_time`` therefore
        filters per record only; a dump stamped *after* ``until_time``
        cannot contain earlier records and is skipped wholesale.
        """
        for _, _, _, stamp, path in self.dumps(project, collector, record_type):
            if until_time is not None and stamp > until_time:
                continue
            for record in self.read_file(path):
                if from_time is not None and record.timestamp < from_time:
                    continue
                if until_time is not None and record.timestamp > until_time:
                    continue
                yield record
