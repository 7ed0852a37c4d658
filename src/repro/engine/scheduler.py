"""The execution engine: fan snapshot jobs out, deterministically.

:class:`ExecutionEngine` is the single entry point the CLI, the
longitudinal study and the benchmarks submit work to.  ``run`` takes an
ordered sequence of :class:`SnapshotJob` and returns their
:class:`QuarterResult` in exactly that order, regardless of worker
count:

* ``jobs=1`` (the default) executes inline in the current process —
  consecutive jobs share the worker-side world cache, so a serial
  sweep keeps the chronological-walk economy of the old code path;
* ``jobs=N`` fans the uncached jobs out over a
  ``ProcessPoolExecutor``; each worker process keeps its own world
  lineage cache, and because jobs are submitted in chronological order
  every worker advances its world monotonically instead of replaying
  from scratch per job.

Results are identical between the two modes because world evolution is
deterministic in (seed, advance cadence) and record rendering never
mutates the world — each job carries its full cadence, so any process
can reproduce the exact world state the serial walk would have had.

Layered on top: the content-addressed :class:`ResultCache` (skip
recomputation across runs), the :class:`CheckpointLog` (resume a killed
sweep), instrumentation hooks (:mod:`repro.engine.metrics`), and
world-lineage checkpoints (``world_checkpoint_dir`` lets freshly forked
workers resume world evolution from the nearest saved prefix instead of
replaying from birth — :class:`repro.engine.checkpoint.WorldCheckpoint`).
Worker results cross the process boundary as their
:func:`~repro.engine.jobs.result_to_payload` dicts, the same JSON codec
the cache persists.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.cache import ResultCache, job_digest
from repro.engine.checkpoint import CheckpointLog
from repro.engine.jobs import (
    QuarterResult,
    SnapshotJob,
    execute_snapshot_batch,
    execute_snapshot_job,
    result_from_payload,
)
from repro.engine.metrics import (
    SOURCE_CACHE,
    SOURCE_CHECKPOINT,
    SOURCE_COMPUTED,
    EngineMetrics,
    Hook,
)
from repro.obs import get_tracer
from repro.store.writer import part_complete


class EngineError(RuntimeError):
    """A sweep failed to produce a result for every submitted job."""


class ExecutionEngine:
    """Parallel, cached, resumable executor for snapshot jobs."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        checkpoint: Optional[CheckpointLog] = None,
        hooks: Sequence[Hook] = (),
        metrics: Optional[EngineMetrics] = None,
        batch: int = 1,
        world_checkpoint_dir: Optional[os.PathLike] = None,
        world_checkpoint_stride: int = 4,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.jobs = jobs
        #: jobs per pool task on the parallel path; >1 amortizes task
        #: pickling/IPC over chronological chunks (serial runs ignore it)
        self.batch = batch
        #: world-lineage checkpoint directory stamped onto every job
        #: that does not already carry one (repro.engine.checkpoint)
        self.world_checkpoint_dir = world_checkpoint_dir
        self.world_checkpoint_stride = world_checkpoint_stride
        self.cache = cache
        self.checkpoint = checkpoint
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._hooks: List[Hook] = [self.metrics, *hooks]

    # ------------------------------------------------------------------

    def _emit(self, event: str, payload: Dict[str, Any]) -> None:
        for hook in self._hooks:
            hook(event, payload)

    def _finish(
        self,
        index: int,
        job: SnapshotJob,
        key: str,
        result: QuarterResult,
        source: str,
        seconds: float = 0.0,
        worker: Optional[int] = None,
    ) -> None:
        if source == SOURCE_COMPUTED:
            if self.cache is not None:
                self.cache.put(key, result)
            if self.checkpoint is not None:
                self.checkpoint.record(key, result)
        elif source == SOURCE_CACHE and self.checkpoint is not None:
            # Mirror cache hits into the checkpoint so a resume works
            # even if the cache is cleared between runs.
            self.checkpoint.record(key, result)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count(f"engine.jobs.{source}")
            tracer.count("engine.records", result.record_count)
        self._emit(
            "job_done",
            {
                "index": index,
                "label": job.label,
                "key": key,
                "source": source,
                "seconds": seconds,
                "records": result.record_count,
                "worker": worker,
            },
        )

    # ------------------------------------------------------------------

    def run(self, snapshot_jobs: Sequence[SnapshotJob]) -> List[QuarterResult]:
        """Execute all jobs; results come back in submission order."""
        snapshot_jobs = list(snapshot_jobs)
        if self.world_checkpoint_dir is not None:
            # Stamp the engine-level checkpoint directory onto jobs that
            # do not already carry one.  Cache keys are unaffected — the
            # field is excluded from SnapshotJob.spec() by design.
            snapshot_jobs = [
                job
                if job.world_checkpoint_dir is not None
                else replace(
                    job,
                    world_checkpoint_dir=str(self.world_checkpoint_dir),
                    world_checkpoint_stride=self.world_checkpoint_stride,
                )
                for job in snapshot_jobs
            ]
        keys = [job_digest(job) for job in snapshot_jobs]
        started = time.perf_counter()
        tracer = get_tracer()
        with tracer.span(
            "engine-sweep", jobs=len(snapshot_jobs), workers=self.jobs
        ):
            self._emit(
                "sweep_start",
                {
                    "jobs": len(snapshot_jobs),
                    "workers": self.jobs,
                    "batch": self.batch,
                },
            )

            results: List[Optional[QuarterResult]] = [None] * len(snapshot_jobs)
            restored = (
                self.checkpoint.load() if self.checkpoint is not None else {}
            )

            pending: List[int] = []
            for index, (job, key) in enumerate(zip(snapshot_jobs, keys)):
                if job.store_dir is not None and not part_complete(
                    job.store_dir, key
                ):
                    # A summary hit cannot substitute for the missing
                    # store part — the columns only exist if the job
                    # actually runs.  Recompute; the summary result is
                    # value-identical either way.
                    pending.append(index)
                    continue
                if key in restored:
                    results[index] = restored[key]
                    tracer.record_span(
                        "engine-job", 0.0, label=job.label,
                        source=SOURCE_CHECKPOINT,
                    )
                    self._finish(
                        index, job, key, restored[key], SOURCE_CHECKPOINT
                    )
                    continue
                if self.cache is not None:
                    hit = self.cache.get(key)
                    if hit is not None:
                        results[index] = hit
                        tracer.record_span(
                            "engine-job", 0.0, label=job.label,
                            source=SOURCE_CACHE,
                        )
                        self._finish(index, job, key, hit, SOURCE_CACHE)
                        continue
                pending.append(index)

            if pending:
                if self.jobs == 1:
                    self._run_serial(snapshot_jobs, keys, results, pending)
                else:
                    self._run_parallel(snapshot_jobs, keys, results, pending)

            missing = [
                snapshot_jobs[index].label or f"job #{index}"
                for index, result in enumerate(results)
                if result is None
            ]
            if missing:
                # Never hand back fewer results than jobs: a silent gap
                # (incomplete checkpoint restore, a worker that produced
                # nothing) would skew every downstream trend series.
                raise EngineError(
                    f"sweep produced no result for {len(missing)} of "
                    f"{len(snapshot_jobs)} job(s): {', '.join(missing)}"
                )
            self._emit("sweep_done", {"seconds": time.perf_counter() - started})
        return [result for result in results if result is not None]

    def _run_serial(self, jobs, keys, results, pending) -> None:
        tracer = get_tracer()
        for index in pending:
            self._emit(
                "job_start",
                {"index": index, "label": jobs[index].label, "key": keys[index]},
            )
            job_started = time.perf_counter()
            # A real (not record_span) span, so the per-stage spans of
            # the in-process computation nest beneath the job.
            with tracer.span(
                "engine-job", label=jobs[index].label, source=SOURCE_COMPUTED
            ) as span:
                result = execute_snapshot_job(jobs[index])
                span.set(records=result.record_count)
            results[index] = result
            self._finish(
                index,
                jobs[index],
                keys[index],
                result,
                SOURCE_COMPUTED,
                seconds=time.perf_counter() - job_started,
                worker=os.getpid(),
            )

    def _run_parallel(self, jobs, keys, results, pending) -> None:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Chronological submission order matters: it lets each
            # worker's cached world advance monotonically through the
            # sweep instead of rebuilding per job.  Batching preserves
            # it — chunks are consecutive runs of the pending list, so
            # a chunk's jobs share one worker's world back to back.
            futures: Dict[Any, List[int]] = {}
            for chunk_start in range(0, len(pending), self.batch):
                chunk = pending[chunk_start:chunk_start + self.batch]
                for index in chunk:
                    self._emit(
                        "job_start",
                        {
                            "index": index,
                            "label": jobs[index].label,
                            "key": keys[index],
                        },
                    )
                future = pool.submit(
                    execute_snapshot_batch, [jobs[index] for index in chunk]
                )
                futures[future] = chunk
            outstanding = set(futures)
            tracer = get_tracer()
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    chunk = futures[future]
                    payload = future.result()
                    worker = payload["worker"]
                    for index, item in zip(chunk, payload["items"]):
                        result = result_from_payload(item["payload"])
                        results[index] = result
                        # Worker-side stage spans stay in the worker;
                        # the job's wall time crosses the pool boundary
                        # as a plain duration, recorded ending now.
                        tracer.record_span(
                            "engine-job",
                            item["seconds"],
                            label=jobs[index].label,
                            source=SOURCE_COMPUTED,
                            worker=worker,
                        )
                        self._finish(
                            index,
                            jobs[index],
                            keys[index],
                            result,
                            SOURCE_COMPUTED,
                            seconds=item["seconds"],
                            worker=worker,
                        )
