"""Engine instrumentation.

The scheduler emits structured events to a list of hooks — plain
callables ``hook(event: str, payload: dict)``.  Events:

* ``sweep_start``  — ``{"jobs": n, "workers": k}``
* ``job_start``    — ``{"index", "label", "key"}`` (computed jobs only)
* ``job_done``     — ``{"index", "label", "key", "source", "seconds",
  "records", "worker"}`` where ``source`` is one of ``computed``,
  ``cache``, ``checkpoint``
* ``sweep_done``   — ``{"seconds": wall}``

:class:`EngineMetrics` is the standard hook: it aggregates per-job wall
time, cache hit/miss counts, record counts and worker utilization into
a structured dict (:meth:`summary`) consumable by the CLI and the
benchmarks.  :func:`progress_hook` builds a second hook that narrates
the same events as human-readable lines.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TextIO

Hook = Callable[[str, Dict[str, Any]], None]

SOURCE_COMPUTED = "computed"
SOURCE_CACHE = "cache"
SOURCE_CHECKPOINT = "checkpoint"


@dataclass
class JobMetric:
    """Per-job instrumentation record."""

    index: int
    label: str
    key: str
    source: str
    seconds: float = 0.0
    records: int = 0
    worker: Optional[int] = None


@dataclass
class EngineMetrics:
    """Aggregating hook: collects every event of one or more sweeps."""

    jobs: List[JobMetric] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    _sweep_started: Optional[float] = None

    # -- hook protocol --------------------------------------------------

    def __call__(self, event: str, payload: Dict[str, Any]) -> None:
        if event == "sweep_start":
            self.workers = int(payload.get("workers", 1))
            self._sweep_started = time.perf_counter()
        elif event == "job_done":
            self.jobs.append(
                JobMetric(
                    index=int(payload["index"]),
                    label=str(payload["label"]),
                    key=str(payload["key"]),
                    source=str(payload["source"]),
                    seconds=float(payload.get("seconds", 0.0)),
                    records=int(payload.get("records", 0)),
                    worker=payload.get("worker"),
                )
            )
        elif event == "sweep_done":
            if self._sweep_started is not None:
                self.wall_seconds += time.perf_counter() - self._sweep_started
                self._sweep_started = None

    # -- aggregates -----------------------------------------------------

    def count(self, source: str) -> int:
        """Number of recorded jobs answered from ``source``."""
        return sum(1 for job in self.jobs if job.source == source)

    @property
    def cache_hits(self) -> int:
        return self.count(SOURCE_CACHE)

    @property
    def cache_misses(self) -> int:
        return self.count(SOURCE_COMPUTED)

    @property
    def hit_rate(self) -> float:
        """Share of jobs answered without recomputation."""
        if not self.jobs:
            return 0.0
        return 1.0 - self.count(SOURCE_COMPUTED) / len(self.jobs)

    def worker_summary(self) -> Dict[int, Dict[str, float]]:
        """Per-worker job counts and busy seconds, computed jobs only.

        Cache and checkpoint hits never occupy a worker — they are
        answered at submission — so counting their zero-second entries
        would deflate every per-worker average.
        """
        workers: Dict[int, Dict[str, float]] = {}
        for job in self.jobs:
            if job.source != SOURCE_COMPUTED or job.worker is None:
                continue
            entry = workers.setdefault(
                int(job.worker), {"jobs": 0, "seconds": 0.0}
            )
            entry["jobs"] += 1
            entry["seconds"] += job.seconds
        for entry in workers.values():
            entry["mean_seconds"] = (
                entry["seconds"] / entry["jobs"] if entry["jobs"] else 0.0
            )
        return workers

    def summary(self) -> Dict[str, Any]:
        """The structured rollup (CLI ``--progress`` epilogue, benches).

        Utilization and per-job averages cover *computed* jobs only:
        cache/checkpoint hits carry ``seconds == 0`` and would otherwise
        drag the averages toward zero without representing any worker
        time (the sweep never scheduled them).
        """
        computed_jobs = [
            job for job in self.jobs if job.source == SOURCE_COMPUTED
        ]
        busy = sum(job.seconds for job in computed_jobs)
        utilization = (
            busy / (self.wall_seconds * self.workers)
            if self.wall_seconds > 0 and self.workers > 0
            else 0.0
        )
        return {
            "jobs": len(self.jobs),
            "computed": self.count(SOURCE_COMPUTED),
            "cache_hits": self.cache_hits,
            "checkpoint_hits": self.count(SOURCE_CHECKPOINT),
            "hit_rate": self.hit_rate,
            "records": sum(job.records for job in self.jobs),
            "busy_seconds": busy,
            "mean_job_seconds": (
                busy / len(computed_jobs) if computed_jobs else 0.0
            ),
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "worker_utilization": min(1.0, utilization),
            "per_worker": self.worker_summary(),
        }

    def render(self) -> str:
        """One-line human rendering of :meth:`summary`."""
        s = self.summary()
        return (
            f"{s['jobs']} jobs: {s['computed']} computed, "
            f"{s['cache_hits']} cache hits, "
            f"{s['checkpoint_hits']} resumed "
            f"({s['hit_rate']:.0%} reuse) | "
            f"{s['records']:,} records | "
            f"wall {s['wall_seconds']:.2f}s, busy {s['busy_seconds']:.2f}s, "
            f"{s['workers']} worker(s) at {s['worker_utilization']:.0%}"
        )


def progress_hook(stream: Optional[TextIO] = None) -> Hook:
    """A hook that narrates engine events as lines on ``stream``."""
    out = stream if stream is not None else sys.stderr

    def hook(event: str, payload: Dict[str, Any]) -> None:
        if event == "sweep_start":
            print(
                f"[engine] {payload['jobs']} job(s) on "
                f"{payload['workers']} worker(s)",
                file=out,
            )
        elif event == "job_done":
            seconds = payload.get("seconds") or 0.0
            print(
                f"[engine] {payload['label']}: {payload['source']} "
                f"({seconds:.2f}s, {payload.get('records', 0):,} records)",
                file=out,
            )
        elif event == "sweep_done":
            print(f"[engine] sweep done in {payload['seconds']:.2f}s", file=out)

    return hook
