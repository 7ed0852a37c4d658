#!/usr/bin/env python
"""Standalone pipeline benchmark: ops/sec per stage + kernel parity gate.

Runs the hot stages of the atom pipeline over ``SNAPSHOT_WORLD`` (or a
smaller world in smoke mode), times each with a min-over-rounds policy,
and writes ``benchmarks/output/BENCH_atoms.json``:

* ``mrt_decode`` — MRT record decoding (writer-generated bytes);
* ``sanitize`` — record sanitization;
* ``atoms_reference`` — the legacy tuple-of-objects ``compute_atoms``;
* ``atoms_kernel_cold`` — the columnar kernel with a fresh intern pool
  (first snapshot of a sweep: every path still to be normalised);
* ``atoms_kernel_warm`` — the kernel with a primed shared pool (every
  later snapshot of a sweep: ``LongitudinalStudy`` feeds all snapshots
  through one pool);
* ``stability`` — atom matching between two snapshots.

A second stage exercises the on-disk atom store end to end and writes
``benchmarks/output/BENCH_store.json``: build throughput for a yearly
sweep with the store sink attached, cold-open latency for recomputing
every series from the reopened store versus re-running the pipeline,
and bytes per snapshot next to a ``jsonl.gz`` record dump.

A third stage exercises the world-lineage checkpoints
(``benchmarks/output/BENCH_worldckpt.json``): after a serial prep sweep
populates the checkpoint directory, the sweep's *extension* jobs — the
ones with the longest warmups — run through fresh 4-worker pools
three times: once with from-birth warmup replay (the cold path without
checkpoints), and twice with checkpoint restores (jobs=4, and jobs=4
batch=2).  The parity gate requires every result (atom counts, shares,
stability, ordering) byte-identical to the serial reference across all
three parallel runs.

The **parity gates** recompute atoms through both kernel
implementations, and all trend series through the reopened store, and
fail the run (exit 1) unless each is identical to its in-memory
counterpart.  CI gates on parity and counts only, never on timings.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--smoke] [--rounds N]

Smoke mode (also via ``REPRO_BENCH_SMOKE=1``) shrinks the world and the
round count so the whole run fits in a CI smoke job.
"""

from __future__ import annotations

import argparse
import http.client
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import OUTPUT_DIR, SNAPSHOT_WORLD
from repro.analysis.longitudinal import (
    LongitudinalStudy,
    trend_results_from_store,
)
from repro.core.intern import PathInternPool
from repro.core.kernel import columnar_atoms, compute_atoms_reference
from repro.core.sanitize import sanitize
from repro.core.stability import maximized_prefix_match
from repro.engine.jobs import build_jobs, clear_worker_state, result_to_payload
from repro.engine.scheduler import ExecutionEngine
from repro.serve import encode_body, serve_in_thread
from repro.simulation.scenario import SimulatedInternet
from repro.store import AtomStore
from repro.stream.archive import RecordArchive
from repro.stream.mrt import MRTWriter, read_mrt
from repro.topology.evolution import WorldParams
from repro.util.dates import utc_timestamp

SMOKE_WORLD = WorldParams(
    seed=42,
    as_scale=1 / 400.0,
    prefix_scale=1 / 400.0,
    peer_scale=0.03,
    collector_scale=0.3,
    min_fullfeed_peers=6,
)

STORE_WORLD = WorldParams(
    seed=20250808,
    as_scale=1 / 400.0,
    prefix_scale=1 / 400.0,
    peer_scale=0.03,
    collector_scale=0.3,
    min_fullfeed_peers=8,
)


def timed(function, rounds):
    """(best seconds, last result) for ``function`` over ``rounds`` runs."""
    best = None
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def build_mrt_bytes(records, limit):
    """Serialize simulated announcements into real MRT bytes."""
    buffer = io.BytesIO()
    writer = MRTWriter(buffer)
    written = 0
    for record in records:
        for element in record.elements:
            if element.attributes is None:
                continue
            writer.write_update(
                record.peer_asn,
                record.peer_address,
                [(element.prefix, element.attributes)],
                timestamp=record.timestamp,
            )
            written += 1
            if written >= limit:
                return buffer.getvalue(), written
    return buffer.getvalue(), written


def _trend_rows_equal(expected, actual):
    """True when two trend result lists agree series for series."""
    return len(expected) == len(actual) and all(
        left.stats == right.stats
        and left.formation_shares == right.formation_shares
        and left.formation_shares_no_single == right.formation_shares_no_single
        and left.stability == right.stability
        and left.feed == right.feed
        for left, right in zip(expected, actual)
    )


def store_benchmark(smoke):
    """Build a sharded store from a sweep, then time its cold open.

    8 snapshots in smoke mode (2 years x 4 stability instants), the
    acceptance criterion's 40 snapshots (10 years) otherwise.  Returns
    the ``BENCH_store.json`` report; ``parity.identical`` is the only
    field CI may gate on.
    """
    years = list(range(2004, 2006 if smoke else 2014))

    def sweep(store_dir=None):
        clear_worker_state()
        study = LongitudinalStudy(
            SimulatedInternet(STORE_WORLD, start=f"{years[0]}-01-01"),
            engine=ExecutionEngine(),
            store_dir=store_dir,
        )
        started = time.perf_counter()
        results = study.run_years(years)
        return results, time.perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "store")
        _, build_seconds = sweep(store_dir)
        recomputed, recompute_seconds = sweep()

        started = time.perf_counter()
        with AtomStore(store_dir) as store:
            from_store = trend_results_from_store(store)
            snapshot_count = len(store.snapshots())
            store_bytes = store.total_bytes()
        open_seconds = time.perf_counter() - started
        parity = _trend_rows_equal(recomputed, from_store)

        # Size yardstick: one base snapshot's records as jsonl.gz.
        archive_dir = Path(tmp) / "archive"
        archive = RecordArchive(archive_dir)
        internet = SimulatedInternet(STORE_WORLD, start=f"{years[0]}-01-01")
        archive.write_dump(internet.rib_records(f"{years[0]}-01-15 08:00"))
        jsonl_bytes = sum(
            path.stat().st_size for path in archive_dir.rglob("*.jsonl.gz")
        )

    return {
        "smoke": smoke,
        "world": {"seed": STORE_WORLD.seed, "as_scale": STORE_WORLD.as_scale},
        "years": len(years),
        "snapshots": snapshot_count,
        "build": {
            "seconds": build_seconds,
            "snapshots_per_sec": (
                snapshot_count / build_seconds if build_seconds else None
            ),
        },
        "recompute_seconds": recompute_seconds,
        "cold_open_seconds": open_seconds,
        "cold_open_speedup": (
            recompute_seconds / open_seconds if open_seconds else None
        ),
        "bytes": {
            "store_total": store_bytes,
            "store_per_snapshot": store_bytes / snapshot_count,
            "jsonl_gz_one_snapshot": jsonl_bytes,
        },
        "parity": {
            "rows": len(from_store),
            "expected_snapshots": len(years) * 4,
            "identical": parity and snapshot_count == len(years) * 4,
        },
    }


def serve_benchmark(smoke):
    """Serve smoke stage: live HTTP answers vs direct store reads.

    Builds a small store, serves it on a loopback socket, and replays
    canned queries twice.  Gated quantities are **parity** (the wire
    bytes must equal ``encode_body`` of the transport-free service
    answer, and served atom ids must equal direct
    :meth:`AtomStore.query` results) and the response-cache **counters**
    (the second pass must hit the cache for every repeated query) —
    never timings.
    """
    years = list(range(2004, 2006 if smoke else 2008))

    def fetch(conn, target):
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "store")
        clear_worker_state()
        LongitudinalStudy(
            SimulatedInternet(STORE_WORLD, start=f"{years[0]}-01-01"),
            engine=ExecutionEngine(),
            store_dir=store_dir,
        ).run_years(years)

        identical = True
        checked = 0
        with serve_in_thread(store_dir) as handle, \
                AtomStore(store_dir) as store:
            entry = store.snapshots()[0]
            prefixes = sorted(
                store.atoms(entry.key).by_prefix, key=lambda p: p.key()
            )[:32]
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            for _pass in range(2):
                for prefix in prefixes:
                    status, body = fetch(conn, f"/v1/prefix/{prefix}")
                    direct = store.query(prefix, key=entry.key)
                    identical = (
                        identical
                        and status == 200
                        and body == encode_body(
                            handle.service.prefix_query(str(prefix))
                        )
                        and json.loads(body)["atom"]["id"] == direct.atom_id
                    )
                    checked += 1
                status, body = fetch(conn, "/v1/atom/0")
                identical = identical and status == 200 and body == (
                    encode_body(handle.service.atom_query(0))
                )
                status, body = fetch(conn, "/v1/stats")
                identical = identical and status == 200 and body == (
                    encode_body(handle.service.stats())
                )
                checked += 2
            conn.close()
            cache = handle.service.cache.stats()

    # Every second-pass query repeats a first-pass one, so the cache
    # must have at least that many hits — an exact-workload counter.
    repeated = len(prefixes) + 2
    cache_ok = cache["hits"] >= repeated and cache["misses"] <= repeated
    return {
        "smoke": smoke,
        "years": len(years),
        "queries": checked,
        "cache": cache,
        "parity": {
            "queries": checked,
            "identical": identical,
            "cache_counters_ok": cache_ok,
        },
    }


def world_checkpoint_benchmark(smoke):
    """Cold parallel extension sweep: from-birth replay vs checkpoints.

    The realistic cold case world checkpoints target is *extending* an
    existing sweep: the new quarters carry the longest warmups, and
    without checkpoints every freshly forked worker replays that entire
    history from the world's birth.  The IPv6 trend sweep is where the
    replay tax bites hardest — world evolution advances both families,
    but an IPv6 job only renders the (much smaller) IPv6 table, so a
    cold worker spends most of its wall time replaying history it
    never renders.  A prep pass advances one world through the full
    cadence, saving world-lineage checkpoints at stride boundaries
    (snapshot computation is *not* repeated — the checkpoints capture
    evolution state only); the extension jobs then run through fresh
    4-worker pools with and without restores.  The parity gate
    requires byte-identical ``result_to_payload`` JSON for every job
    across serial / jobs=4 replay / jobs=4 checkpoints / jobs=4 batch=2
    checkpoints.  CI gates on parity only, never on timings.
    """
    from repro.engine.checkpoint import WorldCheckpoint
    from repro.net.prefix import AF_INET6

    years = list(range(2004, 2019 if smoke else 2025))
    extension = 2 if smoke else 4
    stride = 2
    quarters = [(year, 1, float(year)) for year in years]
    start = utc_timestamp(years[0])
    jobs = build_jobs(
        STORE_WORLD, start, quarters, family=AF_INET6, with_stability=False
    )
    tail = jobs[-extension:]

    def payload_bytes(result):
        return json.dumps(result_to_payload(result)).encode("utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = os.path.join(tmp, "world-checkpoints")
        # Prep: advance one world over the extension's full warmup,
        # checkpointing every stride boundary — exactly the state a
        # completed earlier sweep (run with --world-checkpoint-dir)
        # would have left behind.
        started = time.perf_counter()
        checkpoint = WorldCheckpoint(checkpoint_dir, stride=stride)
        internet = SimulatedInternet(STORE_WORLD, start=start)
        applied = []
        for when in tail[-1].warmup:
            internet.advance_to(when)
            applied.append(when)
            if len(applied) % stride == 0:
                checkpoint.save(internet, applied)
        prep_seconds = time.perf_counter() - started
        checkpoints = len(list(Path(checkpoint_dir).glob("world-*.ckpt")))

        # Serial reference: replays the warmup once in-process.
        clear_worker_state()
        started = time.perf_counter()
        serial = ExecutionEngine(jobs=1).run(list(tail))
        serial_seconds = time.perf_counter() - started
        reference = [payload_bytes(result) for result in serial]

        def cold_parallel(**kwargs):
            clear_worker_state()
            engine = ExecutionEngine(jobs=4, **kwargs)
            started = time.perf_counter()
            results = engine.run(list(tail))
            return time.perf_counter() - started, results

        replay_seconds, replay_results = cold_parallel()
        restore_seconds, restore_results = cold_parallel(
            world_checkpoint_dir=checkpoint_dir
        )
        batch_seconds, batch_results = cold_parallel(
            batch=2, world_checkpoint_dir=checkpoint_dir
        )

    parity = all(
        [payload_bytes(r) for r in results] == reference
        for results in (replay_results, restore_results, batch_results)
    )
    speedup = replay_seconds / restore_seconds if restore_seconds else None
    return {
        "smoke": smoke,
        "world": {"seed": STORE_WORLD.seed, "as_scale": STORE_WORLD.as_scale},
        "family": "v6",
        "years": len(years),
        "extension_jobs": extension,
        "warmup_instants": [len(job.warmup) for job in tail],
        "world_checkpoints": checkpoints,
        "phases": {
            "prep_checkpoint_seconds": prep_seconds,
            "serial_reference_seconds": serial_seconds,
            "cold_replay_jobs4_seconds": replay_seconds,
            "cold_checkpoint_jobs4_seconds": restore_seconds,
            "cold_checkpoint_batch2_seconds": batch_seconds,
        },
        "speedup": {
            "cold_parallel_sweep": speedup,
            "target": 1.5,
            "meets_target": speedup is not None and speedup >= 1.5,
        },
        "parity": {"jobs": extension * 3, "identical": parity},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        default=bool(os.environ.get("REPRO_BENCH_SMOKE")),
        help="small world + 1 round (CI smoke job); also REPRO_BENCH_SMOKE=1",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="timing rounds per stage (default: 5, smoke: 1)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_DIR / "BENCH_atoms.json",
    )
    parser.add_argument(
        "--store-output", type=Path, default=OUTPUT_DIR / "BENCH_store.json",
    )
    parser.add_argument(
        "--worldckpt-output", type=Path,
        default=OUTPUT_DIR / "BENCH_worldckpt.json",
    )
    args = parser.parse_args(argv)

    world = SMOKE_WORLD if args.smoke else SNAPSHOT_WORLD
    rounds = args.rounds if args.rounds is not None else (1 if args.smoke else 5)
    decode_limit = 500 if args.smoke else 5000

    print(f"world: as_scale=1/{1 / world.as_scale:.0f}  rounds={rounds}"
          f"  smoke={args.smoke}")

    simulator = SimulatedInternet(world, start="2016-01-15 08:00")
    records = list(simulator.rib_records("2016-01-15 08:00"))
    stages = {}

    mrt_bytes, mrt_records = build_mrt_bytes(records, decode_limit)
    seconds, decoded = timed(
        lambda: sum(1 for _ in read_mrt(io.BytesIO(mrt_bytes))), rounds
    )
    stages["mrt_decode"] = {
        "seconds": seconds, "count": decoded, "unit": "records",
        "ops_per_sec": decoded / seconds if seconds else None,
    }

    seconds, dataset = timed(lambda: sanitize(records), rounds)
    stages["sanitize"] = {
        "seconds": seconds, "count": len(records), "unit": "records",
        "ops_per_sec": len(records) / seconds if seconds else None,
    }

    kwargs = {
        "vantage_points": dataset.vantage_points,
        "prefixes": dataset.prefixes,
    }
    prefix_count = len(dataset.prefixes)

    seconds, reference = timed(
        lambda: compute_atoms_reference(dataset.snapshot, **kwargs), rounds
    )
    stages["atoms_reference"] = {
        "seconds": seconds, "count": prefix_count, "unit": "prefixes",
        "ops_per_sec": prefix_count / seconds if seconds else None,
    }

    seconds, _ = timed(
        lambda: columnar_atoms(dataset.snapshot, **kwargs), rounds
    )
    stages["atoms_kernel_cold"] = {
        "seconds": seconds, "count": prefix_count, "unit": "prefixes",
        "ops_per_sec": prefix_count / seconds if seconds else None,
    }

    pool = PathInternPool()
    columnar_atoms(dataset.snapshot, pool=pool, **kwargs)  # prime
    seconds, kernel = timed(
        lambda: columnar_atoms(dataset.snapshot, pool=pool, **kwargs), rounds
    )
    stages["atoms_kernel_warm"] = {
        "seconds": seconds, "count": prefix_count, "unit": "prefixes",
        "ops_per_sec": prefix_count / seconds if seconds else None,
    }

    seconds, score = timed(
        lambda: maximized_prefix_match(kernel, kernel), rounds
    )
    stages["stability"] = {
        "seconds": seconds, "count": len(kernel), "unit": "atoms",
        "ops_per_sec": len(kernel) / seconds if seconds else None,
    }
    assert score == 1.0

    # ------------------------------------------------------------------
    # Parity gate: the kernel must equal the reference, atom for atom.
    # ------------------------------------------------------------------
    parity = len(kernel) == len(reference) and all(
        ours.atom_id == theirs.atom_id
        and ours.prefixes == theirs.prefixes
        and ours.paths == theirs.paths
        for ours, theirs in zip(kernel, reference)
    )

    report = {
        "world": {
            "seed": world.seed,
            "as_scale": world.as_scale,
            "prefix_scale": world.prefix_scale,
            "peer_scale": world.peer_scale,
        },
        "smoke": args.smoke,
        "rounds": rounds,
        "counts": {
            "records": len(records),
            "mrt_records": mrt_records,
            "vantage_points": len(dataset.vantage_points),
            "prefixes": prefix_count,
            "atoms": len(kernel),
        },
        "stages": stages,
        "speedup": {
            "kernel_cold_vs_reference": (
                stages["atoms_reference"]["seconds"]
                / stages["atoms_kernel_cold"]["seconds"]
            ),
            "kernel_warm_vs_reference": (
                stages["atoms_reference"]["seconds"]
                / stages["atoms_kernel_warm"]["seconds"]
            ),
        },
        "parity": {"atoms": len(kernel), "identical": parity},
    }

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")

    for name, stage in stages.items():
        print(f"{name:>18}: {stage['seconds'] * 1e3:8.1f} ms"
              f"  ({stage['ops_per_sec']:,.0f} {stage['unit']}/s)")
    print(f"speedup cold {report['speedup']['kernel_cold_vs_reference']:.2f}x"
          f"  warm {report['speedup']['kernel_warm_vs_reference']:.2f}x")
    print(f"wrote {args.output}")

    store = store_benchmark(args.smoke)
    args.store_output.parent.mkdir(parents=True, exist_ok=True)
    args.store_output.write_text(json.dumps(store, indent=2) + "\n",
                                 encoding="utf-8")
    print(f"store: {store['snapshots']} snapshots"
          f"  build {store['build']['seconds']:.2f} s"
          f"  cold open {store['cold_open_seconds'] * 1e3:.1f} ms"
          f"  ({store['cold_open_speedup']:.1f}x vs recompute)"
          f"  {store['bytes']['store_per_snapshot']:,.0f} B/snapshot")
    print(f"wrote {args.store_output}")

    serve = serve_benchmark(args.smoke)
    print(f"serve: {serve['queries']} live queries"
          f"  cache {serve['cache']['hits']} hits"
          f" / {serve['cache']['misses']} misses")

    worldckpt = world_checkpoint_benchmark(args.smoke)
    args.worldckpt_output.parent.mkdir(parents=True, exist_ok=True)
    args.worldckpt_output.write_text(json.dumps(worldckpt, indent=2) + "\n",
                                     encoding="utf-8")
    phases = worldckpt["phases"]
    print(f"world checkpoints: {worldckpt['extension_jobs']} extension job(s)"
          f"  cold replay {phases['cold_replay_jobs4_seconds']:.2f} s"
          f"  cold + checkpoints"
          f" {phases['cold_checkpoint_jobs4_seconds']:.2f} s"
          f"  ({worldckpt['speedup']['cold_parallel_sweep']:.1f}x)")
    print(f"wrote {args.worldckpt_output}")

    failed = False
    if not parity:
        print("PARITY FAILURE: kernel atoms differ from reference",
              file=sys.stderr)
        failed = True
    else:
        print(f"parity OK: {len(kernel)} atoms identical to reference")
    if not store["parity"]["identical"]:
        print("PARITY FAILURE: store-derived series differ from in-memory"
              " pipeline", file=sys.stderr)
        failed = True
    else:
        print(f"store parity OK: {store['parity']['rows']} trend rows"
              " identical after reopen")
    if not serve["parity"]["identical"]:
        print("PARITY FAILURE: served responses differ from direct store"
              " reads", file=sys.stderr)
        failed = True
    elif not serve["parity"]["cache_counters_ok"]:
        print("COUNTER FAILURE: serve response cache did not hit on"
              " repeated queries", file=sys.stderr)
        failed = True
    else:
        print(f"serve parity OK: {serve['parity']['queries']} live queries"
              " identical to direct store reads")
    if not worldckpt["parity"]["identical"]:
        print("PARITY FAILURE: parallel world-checkpoint results differ"
              " from the serial path", file=sys.stderr)
        failed = True
    else:
        print(f"world-checkpoint parity OK: {worldckpt['parity']['jobs']}"
              " parallel results byte-identical to the serial path")
    if not worldckpt["speedup"]["meets_target"]:
        # Timings stay advisory in CI, but the miss should be loud.
        print("world-checkpoint speedup below the 1.5x target: "
              f"{worldckpt['speedup']['cold_parallel_sweep']:.2f}x",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
