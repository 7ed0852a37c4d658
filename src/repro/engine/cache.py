"""Content-addressed result cache.

Every :class:`~repro.engine.jobs.SnapshotJob` has a stable digest over
its full content — world params, birth instant, warmup cadence,
snapshot instants, family, sanitization config and the analysis flags —
salted with a code-version string.  Two jobs with the same digest are
guaranteed to compute the same :class:`QuarterResult` (the simulator is
deterministic in exactly those inputs), so repeated sweeps can skip
recomputation entirely.

Entries are one JSON file each under ``<root>/<aa>/<digest>.json``,
written atomically (temp file + ``os.replace``).  A corrupted or
version-skewed entry is treated as a miss, deleted, and recomputed —
never crashed on.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Optional

from repro.engine.jobs import (
    QuarterResult,
    SnapshotJob,
    result_from_payload,
    result_to_payload,
)

#: Bump whenever atom computation, sanitization, or the simulator
#: change semantics: old cache entries silently become unreachable.
#: v2: job spec gained the ``incremental`` component and results carry
#: incremental-maintenance counters.
#: v3: the canonical form tags node and dict-key types, so ``{1: x}``
#: vs ``{"1": x}`` and dicts vs literal pair lists no longer collide.
#: (Dropping ``incremental`` from the spec again changed every digest
#: by itself, so it needed no bump.)
CACHE_SALT = "repro-engine-v3"


def _canonical(value: Any) -> Any:
    """Normalize nested containers so json.dumps is digest-stable.

    The encoding must be *injective* over distinct job specs, not just
    stable: every container is tagged with its node type ("map"/"seq")
    and every dict key with its Python type, so a canonicalized dict
    can never collide with a literal list of pairs and ``{1: x}`` /
    ``{"1": x}`` produce different digests.  Keys sort by their
    ``[type name, str(key)]`` form, which keeps mixed-type key sets
    (e.g. the per-family ``max_prefix_length`` ints) orderable.
    """
    if isinstance(value, dict):
        return [
            "map",
            sorted(
                ([type(k).__name__, str(k)], _canonical(v))
                for k, v in value.items()
            ),
        ]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canonical(v) for v in value]]
    return value


def content_digest(payload: Any, salt: str = CACHE_SALT) -> str:
    """Stable hex digest of any JSON-able payload under ``salt``.

    The content-addressing primitive behind :func:`job_digest` and the
    ``repro.serve`` response cache: equal payloads (up to dict ordering
    and tuple/list spelling) digest identically, distinct payloads
    never collide (see :func:`_canonical`).
    """
    body = {"salt": salt, "body": _canonical(payload)}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def job_digest(job: SnapshotJob, salt: str = CACHE_SALT) -> str:
    """Stable hex digest identifying a job's full computation content."""
    return content_digest({"spec": job.spec()}, salt=salt)


class ResultCache:
    """Persist job results on disk, keyed by :func:`job_digest`."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[QuarterResult]:
        """The cached result, or None on miss *or* corruption."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("key") != key:
                raise ValueError("cache entry key mismatch")
            return result_from_payload(payload["result"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Truncated write, stale format, bit rot: discard and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result: QuarterResult) -> Path:
        """Atomically persist one result."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "result": result_to_payload(result)}
        # The suffix must be unique per *call*, not per process: two
        # threads (or a re-entrant batch) writing the same key would
        # otherwise share a tmp path, and one writer could truncate the
        # file out from under the other's os.replace, persisting a
        # corrupt entry.
        tmp = path.parent / f"{path.name}.tmp{os.getpid()}-{uuid.uuid4().hex}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
