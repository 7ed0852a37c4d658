"""Checkpoint/resume for long sweeps and live streams.

A :class:`CheckpointLog` is an append-only JSONL file: one line per
completed job, ``{"key": <digest>, "label": ..., "result": {...}}``.
The scheduler appends (and flushes) a line the moment a job finishes,
so a killed multi-year sweep loses at most the jobs in flight.  On the
next run the engine loads the log, restores every completed quarter
without recomputation, and continues from the first missing one.

A truncated final line — the signature of a hard kill mid-write — is
silently dropped on load; everything before it is preserved.

:class:`StreamCheckpoint` is the live pipeline's counterpart
(:mod:`repro.stream.live`): instead of appending completed jobs it
replaces one *state* — the window cursor plus the full routing table
at the last window boundary — atomically on every save.  A pipeline
killed at any instant resumes from the last saved boundary: the RIB
file is written (temp + rename) before ``state.json`` is swapped in,
so the state file never references a partial table, and a kill between
the two writes merely leaves the previous state in force.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import pickle
import struct
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bgp.messages import RouteRecord
from repro.engine.jobs import (
    QuarterResult,
    result_from_payload,
    result_to_payload,
)


class CheckpointLog:
    """Append-only completion log keyed by job digest."""

    def __init__(self, path: os.PathLike):
        self.path = Path(path)

    def load(self) -> Dict[str, QuarterResult]:
        """{job digest: result} for every intact line of the log."""
        restored: Dict[str, QuarterResult] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        restored[entry["key"]] = result_from_payload(
                            entry["result"]
                        )
                    except (ValueError, KeyError, TypeError):
                        # Torn write at the kill instant; keep the rest.
                        continue
        except FileNotFoundError:
            pass
        return restored

    def record(self, key: str, result: QuarterResult) -> None:
        """Append one completed job, durably."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "label": result.label,
            "result": result_to_payload(result),
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def clear(self) -> None:
        """Forget all completed jobs (e.g. after a finished sweep)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Streaming checkpoints
# ----------------------------------------------------------------------

#: Schema version of the stream-checkpoint state file.
STREAM_CHECKPOINT_VERSION = 1

#: Name of the state file inside a stream-checkpoint directory.
STATE_NAME = "state.json"


class StreamCheckpointError(RuntimeError):
    """A checkpoint directory holds state this code cannot resume."""


class StreamCheckpoint:
    """Atomically replaced window-boundary state for a live pipeline.

    Layout under ``directory``::

        state.json          # cursor: window index/end, counters, config
        rib-<index>.jsonl.gz  # full RIB at that boundary, one record/peer

    :meth:`save` writes the RIB file first, then swaps ``state.json``
    in via temp file + ``os.replace`` and finally deletes the previous
    boundary's RIB file — so at every instant the on-disk state file
    references a complete table, and a kill anywhere loses at most the
    window in flight.  :meth:`load` returns None when no checkpoint
    exists and raises :class:`StreamCheckpointError` when the saved
    ``config`` digest disagrees with the resuming pipeline's (resuming
    under a different window size or address family would silently
    change results).
    """

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)

    # -- paths ----------------------------------------------------------

    def _state_path(self) -> Path:
        return self.directory / STATE_NAME

    def _rib_path(self, window_index: int) -> Path:
        return self.directory / f"rib-{window_index:08d}.jsonl.gz"

    # -- save -----------------------------------------------------------

    def save(
        self,
        window_index: int,
        window_end: int,
        records: List[RouteRecord],
        config: Dict[str, Any],
        counters: Optional[Dict[str, int]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist one window boundary; returns the state-file path.

        ``records`` must reconstruct the boundary RIB when replayed in
        order (one synthetic ``rib`` record per peer is the convention).
        ``config`` is stored verbatim and checked on resume; ``meta``
        carries resume bookkeeping the pipeline owns (replay position,
        vantage points) and is returned untouched.
        """
        # Local import: repro.stream's package init pulls in the live
        # pipeline, which imports this module back — a top-level import
        # here would close that cycle during interpreter start-up.
        from repro.stream.serialize import record_to_json

        self.directory.mkdir(parents=True, exist_ok=True)
        rib_path = self._rib_path(window_index)
        tmp = rib_path.parent / f"{rib_path.name}.tmp{os.getpid()}"
        try:
            with gzip.open(tmp, "wt", encoding="utf-8") as handle:
                for record in records:
                    handle.write(record_to_json(record))
                    handle.write("\n")
            os.replace(tmp, rib_path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass
        state = {
            "version": STREAM_CHECKPOINT_VERSION,
            "window_index": window_index,
            "window_end": window_end,
            "rib_file": rib_path.name,
            "config": config,
            "counters": dict(counters or {}),
            "meta": dict(meta or {}),
        }
        state_path = self._state_path()
        state_tmp = state_path.parent / f"{state_path.name}.tmp{os.getpid()}"
        try:
            state_tmp.write_text(
                json.dumps(state, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(state_tmp, state_path)
        finally:
            if state_tmp.exists():
                try:
                    state_tmp.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass
        self._sweep_stale_ribs(keep=rib_path.name)
        return state_path

    def _sweep_stale_ribs(self, keep: str) -> None:
        """Delete boundary RIB files other than the referenced one."""
        for path in self.directory.glob("rib-*.jsonl.gz"):
            if path.name != keep:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass

    # -- load -----------------------------------------------------------

    def load(
        self, config: Optional[Dict[str, Any]] = None
    ) -> Optional[Tuple[Dict[str, Any], List[RouteRecord]]]:
        """The saved ``(state, boundary records)``, or None when absent.

        When ``config`` is given it must equal the saved one — a
        resumed pipeline must window and filter exactly like the run
        that wrote the checkpoint.
        """
        state_path = self._state_path()
        try:
            raw = state_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            state: Dict[str, Any] = json.loads(raw)
        except ValueError as error:
            raise StreamCheckpointError(
                f"corrupt checkpoint state {state_path}: {error}"
            ) from error
        version = state.get("version")
        if version != STREAM_CHECKPOINT_VERSION:
            raise StreamCheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads v{STREAM_CHECKPOINT_VERSION})"
            )
        if config is not None and state.get("config") != config:
            raise StreamCheckpointError(
                "checkpoint was written under a different live "
                "configuration; resume with the original settings or "
                "start from a fresh --checkpoint-dir"
            )
        from repro.stream.serialize import read_records  # see save()

        rib_path = self.directory / str(state.get("rib_file", ""))
        try:
            records = list(read_records(rib_path))
        except (OSError, EOFError, ValueError) as error:
            raise StreamCheckpointError(
                f"cannot read checkpoint RIB {rib_path}: {error}"
            ) from error
        return state, records

    def clear(self) -> None:
        """Forget the saved state (state file and boundary RIBs)."""
        try:
            self._state_path().unlink()
        except FileNotFoundError:
            pass
        self._sweep_stale_ribs(keep="")


# ----------------------------------------------------------------------
# World-lineage checkpoints
# ----------------------------------------------------------------------

#: Magic bytes opening every world-checkpoint file.
WORLD_MAGIC = b"RPWC"

#: World-checkpoint format version; bump on layout or pickle changes.
WORLD_CHECKPOINT_VERSION = 1

#: File header: magic + version, followed by a raw 32-byte SHA-256 of
#: the gzip blob and the blob itself.
WORLD_HEADER = struct.Struct(">4sH")

#: Default save cadence: every N applied ``advance_to`` instants (one
#: quarter's stability suite is four instants).
DEFAULT_WORLD_STRIDE = 4


class WorldCheckpoint:
    """Persisted world states, keyed by (params, birth, cadence) lineage.

    A simulated world's state is a pure function of its
    :class:`~repro.topology.evolution.WorldParams`, its birth instant
    and the exact ``advance_to`` cadence applied since — the invariant
    the engine's per-process world cache already relies on.  This class
    makes that lineage durable: :meth:`save` snapshots a world at its
    applied cadence (atomic tmp+replace, digest-stamped like
    :class:`StreamCheckpoint`), and :meth:`restore` hands a freshly
    forked worker the *nearest* saved prefix of a job's warmup so the
    cold start replays only the gap instead of the whole history.

    File names are fully content-addressed —
    ``world-<lineage16>-<length>-<cadence digest12>.ckpt`` — so lookup
    is an existence probe per candidate prefix length, longest first,
    and concurrent writers of the same lineage are idempotent.  Any
    damage (bad magic, version skew, digest or cadence mismatch,
    unpicklable blob) is treated as a miss: the file is dropped and the
    worker falls back to the next shorter prefix or a from-birth replay.
    """

    def __init__(
        self, directory: os.PathLike, stride: int = DEFAULT_WORLD_STRIDE
    ):
        self.directory = Path(directory)
        self.stride = max(1, int(stride))

    # -- naming ---------------------------------------------------------

    @staticmethod
    def _lineage(params: Any, start: int) -> str:
        from repro.engine.cache import content_digest

        return content_digest(
            {"world": asdict(params), "start": int(start)},
            salt="repro-world-v1",
        )[:16]

    @staticmethod
    def _cadence_digest(cadence: Sequence[int]) -> str:
        packed = b"".join(int(when).to_bytes(8, "big") for when in cadence)
        return hashlib.sha256(packed).hexdigest()[:12]

    def path_for(
        self, params: Any, start: int, cadence: Sequence[int]
    ) -> Path:
        """The content-addressed file for one exact world state."""
        return self.directory / (
            f"world-{self._lineage(params, start)}-{len(cadence):06d}-"
            f"{self._cadence_digest(cadence)}.ckpt"
        )

    # -- save -----------------------------------------------------------

    def save(self, internet: Any, applied: Sequence[int]) -> Optional[Path]:
        """Snapshot a world at its applied cadence; None if it exists.

        The state is deterministic in the lineage, so an existing file
        is necessarily identical — skipping the write makes concurrent
        workers racing on the same boundary cheap and idempotent.
        """
        cadence = tuple(int(when) for when in applied)
        path = self.path_for(internet.params, internet.start, cadence)
        if path.exists():
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = gzip.compress(
            pickle.dumps(
                (cadence, internet), protocol=pickle.HIGHEST_PROTOCOL
            ),
            compresslevel=1,
            mtime=0,
        )
        image = (
            WORLD_HEADER.pack(WORLD_MAGIC, WORLD_CHECKPOINT_VERSION)
            + hashlib.sha256(blob).digest()
            + blob
        )
        # Unique per call: parallel workers may save the same boundary.
        tmp = path.parent / f"{path.name}.tmp{os.getpid()}-{uuid.uuid4().hex}"
        try:
            tmp.write_bytes(image)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass
        return path

    # -- restore --------------------------------------------------------

    def restore(
        self, params: Any, start: int, cadence: Sequence[int]
    ) -> Optional[Tuple[Any, List[int]]]:
        """The saved world at the longest prefix of ``cadence``, or None.

        Returns ``(internet, applied)`` where ``applied`` is the list
        of instants the restored world has already walked — the same
        shape the engine's per-process world cache tracks.
        """
        instants = [int(when) for when in cadence]
        for length in range(len(instants), 0, -1):
            prefix = instants[:length]
            path = self.path_for(params, start, prefix)
            if not path.is_file():
                continue
            internet = self._load(path, tuple(prefix))
            if internet is not None:
                return internet, list(prefix)
        return None

    def _load(self, path: Path, expected_cadence: Tuple[int, ...]) -> Any:
        """Verify + unpickle one file; any damage is a silent miss."""
        try:
            data = path.read_bytes()
            magic, version = WORLD_HEADER.unpack_from(data, 0)
            if magic != WORLD_MAGIC:
                raise ValueError(f"bad world magic {magic!r}")
            if version != WORLD_CHECKPOINT_VERSION:
                raise ValueError(f"unsupported world version {version}")
            offset = WORLD_HEADER.size
            stamp = data[offset:offset + 32]
            blob = data[offset + 32:]
            if hashlib.sha256(blob).digest() != stamp:
                raise ValueError("world checkpoint digest mismatch")
            stored_cadence, internet = pickle.loads(gzip.decompress(blob))
            if tuple(stored_cadence) != expected_cadence:
                raise ValueError("world checkpoint cadence mismatch")
            return internet
        except Exception:
            # A corrupt checkpoint must never fail a sweep — the world
            # is always recomputable.  Drop the file so the next run
            # rewrites it cleanly.
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
            return None
