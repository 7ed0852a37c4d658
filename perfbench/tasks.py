"""One unit of benchmark work, run in a fresh interpreter.

Usage: ``python3 perfbench/tasks.py TASK SPEC.json OUT.json``

Every timed repetition runs here, in its own process, so no
process-wide state of the program (the engine's world cache, the
propagation cache, store memoisation) carries over between
repetitions.  The task reads its inputs from ``SPEC.json`` and writes
its measurements and outputs to ``OUT.json``; :mod:`run` drives it.

Imports of the program happen inside :func:`main`, so a task can time
them (the ``setup_s`` of the trend workload).  The timed unit is
bracketed by the reference workload of :mod:`calibrate`, whose time is
reported as ``reference_s``.  With ``"trace": true``
the task wraps the layer map's bindings before it starts and reports
per-layer totals; otherwise nothing of the program is wrapped.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import resource
import sys
import time
from argparse import Namespace
from dataclasses import asdict
from typing import Any, Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

#: The reference sweep: ``repro trend --first-year 2004 --last-year 2012
#: --step 2`` at the CLI's default world.
FIRST_YEAR, LAST_YEAR, STEP = 2004, 2012, 2
LIVE_START = "2012-01-15 08:00"


def peak_rss_mb() -> float:
    """Peak RSS of this process or any pool worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def world_params(seed: int):
    """The CLI's default world (scale 1/200, peer scale 0.04)."""
    from repro.cli import _world_params

    return _world_params(Namespace(scale=200, seed=seed, peer_scale=0.04))


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def trend_rows(results) -> List[Dict[str, Any]]:
    """Trend rows as JSON-safe dicts (int keys become strings)."""
    return json.loads(
        canonical(
            [
                {
                    "year": row.year,
                    "stats": asdict(row.stats),
                    "formation_shares": sorted(row.formation_shares.items()),
                    "formation_shares_no_single": sorted(
                        row.formation_shares_no_single.items()
                    ),
                    "stability": {k: list(v) for k, v in row.stability.items()},
                    "feed": row.feed,
                }
                for row in results
            ]
        )
    )


# ----------------------------------------------------------------------
# Tasks: each returns its measurements; ``timed`` marks the region the
# tracer's root span covers.
# ----------------------------------------------------------------------

def task_sweep(spec: Dict[str, Any], timed: Callable) -> Dict[str, Any]:
    """A ``repro trend`` sweep through the execution engine."""
    from repro.analysis import longitudinal
    from repro.engine.scheduler import ExecutionEngine
    from repro.simulation.scenario import SimulatedInternet

    job_seconds: List[float] = []

    def hook(event: str, payload: Dict[str, Any]) -> None:
        if event == "job_done" and payload["source"] == "computed":
            job_seconds.append(payload["seconds"])

    years = list(range(FIRST_YEAR, LAST_YEAR + 1, STEP))

    def sweep():
        internet = SimulatedInternet(
            world_params(spec["seed"]), start=f"{years[0]}-01-01"
        )
        engine = ExecutionEngine(jobs=spec["jobs"], hooks=(hook,))
        study = longitudinal.LongitudinalStudy(
            internet, engine=engine, store_dir=spec.get("store_dir")
        )
        return study.run_years(years)

    results, wall = timed(sweep)
    return {
        "wall_s": wall,
        "rows": trend_rows(results),
        "job_seconds": job_seconds,
        "snapshots": 4 * len(years),
        "workers": spec["jobs"],
    }


def task_render_archive(spec: Dict[str, Any], timed: Callable) -> Dict[str, Any]:
    """Render the live workload's archive: a RIB dump plus updates."""
    from repro.simulation.scenario import SimulatedInternet
    from repro.stream.archive import RecordArchive
    from repro.util.dates import parse_utc

    def render():
        stamp = parse_utc(LIVE_START)
        internet = SimulatedInternet(world_params(spec["seed"]), start=stamp)
        archive = RecordArchive(spec["archive"])
        archive.write_dump(internet.rib_records(stamp), dump_timestamp=stamp)
        archive.write_dump(
            internet.update_records(stamp, hours=spec["hours"]),
            dump_timestamp=stamp,
        )

    _, wall = timed(render)
    digest = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk(spec["archive"])):
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, spec["archive"]).encode())
            with open(path, "rb") as handle:
                # gzip headers carry an mtime; hash the payload instead
                digest.update(gzip.decompress(handle.read()))
    return {"wall_s": wall, "digest": digest.hexdigest()}


def task_replay(spec: Dict[str, Any], timed: Callable) -> Dict[str, Any]:
    """Replay the archive through :class:`LivePipeline` (closed loop)."""
    from itertools import chain

    from repro.stream.archive import RecordArchive
    from repro.stream.bgpstream import BGPStream
    from repro.stream.live import LiveConfig, LivePipeline

    clock = time.perf_counter
    handover = [0.0, -1]
    latencies: List[float] = []

    def handed(records):
        # The hand-over instant and timestamp of the latest record the
        # pipeline pulled: the record that closes a window is the one
        # pulled last when ``on_window`` fires.
        for record in records:
            handover[0] = clock()
            handover[1] = record.timestamp
            yield record

    def on_window(result) -> None:
        if handover[1] >= result.end:
            latencies.append((clock() - handover[0]) * 1000.0)

    def replay():
        archive = RecordArchive(spec["archive"])
        records = chain(
            BGPStream(archive, record_type="rib").records(),
            BGPStream(archive, record_type="update").records(),
        )
        config = LiveConfig(
            window_seconds=spec["window_seconds"], max_windows=spec["max_windows"]
        )
        return LivePipeline(handed(records), config).run(on_window=on_window)

    run, wall = timed(replay)
    outputs = canonical(run.as_dict())
    return {
        "wall_s": wall,
        "windows": len(run.windows),
        "parity_checks": run.parity_checks,
        "latencies_ms": latencies,
        "digest": hashlib.sha256(outputs.encode()).hexdigest(),
    }


def task_reopen(spec: Dict[str, Any], timed: Callable) -> Dict[str, Any]:
    """Cold store reopen plus the trend recompute from its columns."""
    from repro.analysis import longitudinal
    from repro.store import reader

    def reopen():
        with reader.AtomStore(spec["store_dir"], verify=False) as store:
            return longitudinal.trend_results_from_store(store)

    results, wall = timed(reopen)
    return {"wall_s": wall, "rows": trend_rows(results)}


def task_reference_atoms(spec: Dict[str, Any], timed: Callable) -> Dict[str, Any]:
    """Oracle: one sampled base snapshot's atoms vs the executable spec.

    The world walks the sampled quarter's warmup cadence, exactly as
    the engine job would, so the snapshot is the one the sweep used.
    """
    from repro.core.kernel import compute_atoms_reference
    from repro.core.pipeline import compute_policy_atoms
    from repro.core.statistics import general_stats
    from repro.engine.jobs import build_jobs
    from repro.simulation.scenario import SimulatedInternet

    years = list(range(FIRST_YEAR, LAST_YEAR + 1, STEP))
    internet = SimulatedInternet(world_params(spec["seed"]), start=f"{years[0]}-01-01")
    jobs = build_jobs(
        internet.params, internet.start, [(y, 1, float(y)) for y in years]
    )
    job = jobs[spec["quarter"]]
    for when in job.warmup:
        internet.advance_to(when)
    computed = compute_policy_atoms(internet.rib_records(job.times[0]))
    dataset = computed.dataset
    reference = compute_atoms_reference(
        dataset.snapshot,
        vantage_points=dataset.vantage_points,
        prefixes=dataset.prefixes,
    )

    def shape(atom_set):
        return [
            (atom.atom_id, sorted(str(p) for p in atom.prefixes),
             [None if path is None else str(path) for path in atom.paths])
            for atom in atom_set.atoms
        ]

    return {
        "equal": shape(computed.atoms) == shape(reference)
        and computed.atoms.vantage_points == reference.vantage_points,
        "stats": json.loads(canonical(asdict(general_stats(computed.atoms)))),
    }


TASKS = {
    "sweep": task_sweep,
    "render-archive": task_render_archive,
    "replay": task_replay,
    "reopen": task_reopen,
    "reference-atoms": task_reference_atoms,
}


def main(argv: List[str]) -> int:
    task, spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    started = time.perf_counter()
    import repro.analysis.longitudinal  # noqa: F401  (the import cost)
    import repro.cli  # noqa: F401
    import_s = time.perf_counter() - started

    sys.path.insert(0, HERE)
    import calibrate

    recorder = installed = None
    if spec.get("trace"):
        import spans

        recorder = spans.Recorder()
        recorder.ship_dir = spec["ship_dir"]
        installed = spans.install(recorder, spans.load_layers(spec["layers"]))

    measured: Dict[str, float] = {}

    def timed(work):
        # The host's speed, right before and right after the unit.
        before = calibrate.reference_seconds()
        begin = time.perf_counter()
        if recorder is None:
            value = work()
        else:
            with recorder.span("root"):
                value = work()
        wall = time.perf_counter() - begin
        measured["reference_s"] = (before + calibrate.reference_seconds()) / 2
        return value, wall

    out = TASKS[task](spec, timed)
    out.update(measured)
    out["import_s"] = import_s
    out["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        out["trace"] = recorder.snapshot()
        out["restored"] = installed.restore()
    with open(out_path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    os.replace(out_path + ".tmp", out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
