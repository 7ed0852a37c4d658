"""Command-line interface.

Four subcommands mirror the measurement workflow:

* ``repro simulate`` — render a simulated snapshot (and optionally the
  following update stream) into an on-disk archive;
* ``repro atoms``    — compute policy atoms from an archive or directly
  from a fresh simulation, printing the statistics and the
  sanitization report;
* ``repro trend``    — run a quick longitudinal sweep and print the
  per-year atom trends (``--store-dir`` persists the sweep as a
  memory-mapped columnar atom store);
* ``repro store``    — ``build`` / ``info`` / ``query`` on-disk atom
  stores (see ``docs/data-format.md``);
* ``repro serve``    — long-running HTTP/JSON atom query service over
  an on-disk store (see ``docs/serving.md``);
* ``repro live``     — streaming atom maintenance over an archived
  update feed: one incremental atom index, windowed churn metrics,
  checkpoint/resume and an optional growing-store sink (see
  ``docs/streaming.md``);
* ``repro converge`` — run the discrete-event convergence engine over a
  named scenario (flap storms, route leaks, multihoming failover) with
  mid-convergence snapshots and a quiescence-parity check against the
  equilibrium renderer (see ``docs/simulation.md``);
* ``repro profile``  — render the per-stage wall-time/counter rollup of
  a trace written by ``--trace`` (see ``docs/observability.md``).

Commands that open a store (``store info/query``, ``serve``) exit with
code 2 and a one-line ``store error:`` message when the store is
missing or corrupt — never a traceback.

``repro atoms`` and ``repro trend`` accept ``--trace FILE.jsonl`` to
record a structured trace of the run; output is byte-identical with or
without it.  Run ``python -m repro <command> --help`` for the options.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path
from typing import List, Optional

from repro.analysis.longitudinal import (
    LongitudinalStudy,
    trend_results_from_store,
)
from repro.core.formation import formation_distances
from repro.core.pipeline import compute_policy_atoms
from repro.core.statistics import general_stats
from repro.engine.cache import ResultCache
from repro.engine.checkpoint import CheckpointLog
from repro.engine.jobs import SnapshotJob
from repro.engine.metrics import progress_hook
from repro.engine.scheduler import ExecutionEngine
from repro.net.prefix import AF_INET, AF_INET6
from repro.obs import (
    Tracer,
    counter_rows,
    load_trace,
    profile_rows,
    use_tracer,
    validate_spans,
)
from repro.reporting.tables import render_table
from repro.serve.app import ServeApp
from repro.serve.cache import DEFAULT_MAX_ENTRIES
from repro.simulation.events import ConvergenceError, quiescence_parity
from repro.simulation.scenario import SCENARIOS, SimulatedInternet
from repro.store import AtomStore, StoreError
from repro.store import FORMAT_VERSION as STORE_FORMAT_VERSION
from repro.stream.archive import RecordArchive
from repro.stream.bgpstream import BGPStream
from repro.stream.live import LiveConfig, LiveError, LivePipeline
from repro.stream.windows import render_window_table
from repro.topology.evolution import WorldParams
from repro.util.dates import parse_utc


def _world_params(args: argparse.Namespace) -> WorldParams:
    scale = 1.0 / args.scale
    return WorldParams(
        seed=args.seed,
        as_scale=scale,
        prefix_scale=scale,
        peer_scale=args.peer_scale,
        collector_scale=0.3,
        min_fullfeed_peers=8,
    )


def _add_world_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=int, default=200,
                        help="world scale divisor (default: 1/200 of the Internet)")
    parser.add_argument("--seed", type=int, default=20250701)
    parser.add_argument("--peer-scale", type=float, default=0.04, dest="peer_scale")
    parser.add_argument("--family", type=int, choices=(4, 6), default=4)


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be at least 1."""
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def _add_engine_options(parser: argparse.ArgumentParser,
                        with_checkpoint: bool = False) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--batch", type=_positive_int, default=1,
                        help="jobs per pool task on parallel runs "
                             "(default: 1); batching amortizes per-task "
                             "pickling without changing results")
    parser.add_argument("--progress", action="store_true",
                        help="narrate per-job progress and a metrics "
                             "summary on stderr")
    parser.add_argument("--cache-dir", type=Path, default=None, dest="cache_dir",
                        help="content-addressed result cache directory "
                             "(repeat runs skip recomputation)")
    parser.add_argument("--trace", type=Path, default=None,
                        help="write a JSONL span/counter trace of the run "
                             "to this file (see docs/observability.md); "
                             "output is unchanged")
    parser.add_argument("--world-checkpoint-dir", type=Path, default=None,
                        dest="world_checkpoint_dir",
                        help="persist world-lineage checkpoints here; "
                             "freshly forked workers resume from the "
                             "nearest checkpoint instead of replaying "
                             "the world from birth")
    if with_checkpoint:
        parser.add_argument("--checkpoint", type=Path, default=None,
                            help="completion log; a killed sweep resumes "
                                 "from the last finished quarter")


def _add_trend_range_options(parser: argparse.ArgumentParser) -> None:
    """Year-range options shared by ``trend`` and ``store build``."""
    parser.add_argument("--first-year", type=int, default=2004, dest="first_year")
    parser.add_argument("--last-year", type=int, default=2024, dest="last_year")
    parser.add_argument("--step", type=int, default=4)
    parser.add_argument("--no-stability", action="store_true", dest="no_stability")


def _build_engine(args: argparse.Namespace) -> ExecutionEngine:
    """An :class:`ExecutionEngine` configured from the CLI flags."""
    return ExecutionEngine(
        jobs=args.jobs,
        batch=args.batch,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        checkpoint=(
            CheckpointLog(args.checkpoint)
            if getattr(args, "checkpoint", None)
            else None
        ),
        hooks=(progress_hook(sys.stderr),) if args.progress else (),
        world_checkpoint_dir=args.world_checkpoint_dir,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    """Handle ``repro simulate``."""
    params = _world_params(args)
    stamp = parse_utc(args.start)
    family = AF_INET if args.family == 4 else AF_INET6
    internet = SimulatedInternet(params, start=stamp)
    archive = RecordArchive(args.archive)
    rib_files = archive.write_dump(
        internet.rib_records(stamp, family=family), dump_timestamp=stamp
    )
    print(f"wrote {len(rib_files)} RIB dump files to {args.archive}")
    if args.update_hours > 0:
        update_files = archive.write_dump(
            internet.update_records(stamp, hours=args.update_hours, family=family),
            dump_timestamp=stamp,
        )
        print(f"wrote {len(update_files)} update dump files "
              f"({args.update_hours:g} h window)")
    return 0


def _print_atom_report(source: str, report: dict, stats_rows,
                       formation_shares) -> None:
    """Shared rendering of the ``repro atoms`` output."""
    print(f"source: {source}")
    print(f"vantage points: {report['fullfeed_peers']} full-feed "
          f"({report['partial_peers']} partial excluded)")
    if report["removed_peers"]:
        removals = ", ".join(
            f"AS{asn} ({reason})"
            for asn, reason in sorted(report["removed_peers"].items())
        )
        print(f"abnormal peers removed: {removals}")
    print(f"prefixes: {report['prefixes_kept']:,} kept / "
          f"{report['prefixes_total']:,} seen")
    print()
    print(render_table(["metric", "value"], stats_rows,
                       title="Policy atom statistics"))
    if formation_shares is not None:
        print()
        print(render_table(
            ["distance", "share of atoms"],
            [(d, f"{s:.1%}") for d, s in sorted(formation_shares.items())],
            title="Formation distance",
        ))


def cmd_atoms(args: argparse.Namespace) -> int:
    """Handle ``repro atoms``."""
    family = AF_INET if args.family == 4 else AF_INET6
    if args.archive:
        # Archive-sourced snapshots stream straight through the
        # pipeline; the engine only covers simulated worlds.
        stream = BGPStream(RecordArchive(args.archive), record_type="rib")
        result = compute_policy_atoms(stream.records())
        report = result.report
        shares = (
            formation_distances(result.atoms).distance_shares()
            if args.formation
            else None
        )
        _print_atom_report(
            str(args.archive),
            {
                "fullfeed_peers": report.fullfeed_peers,
                "partial_peers": report.partial_peers,
                "removed_peers": report.removed_peers,
                "prefixes_kept": report.prefixes_kept,
                "prefixes_total": report.prefixes_total,
            },
            general_stats(result.atoms).rows(),
            shares,
        )
        return 0

    params = _world_params(args)
    stamp = parse_utc(args.start)
    engine = _build_engine(args)
    job = SnapshotJob(
        params=params,
        start=stamp,
        warmup=(),
        times=(stamp,),
        family=family,
        label=f"atoms@{args.start}",
    )
    quarter = engine.run([job])[0]
    _print_atom_report(
        f"simulation @ {args.start}",
        quarter.report,
        quarter.stats.rows(),
        quarter.formation_shares if args.formation else None,
    )
    if args.progress:
        print(engine.metrics.render(), file=sys.stderr)
    return 0


def _render_trend_table(results) -> str:
    """The ``repro trend`` table for a list of ``YearResult`` rows."""
    rows = []
    for result in results:
        stats = result.stats
        year = int(result.year) if float(result.year).is_integer() else result.year
        row: List[object] = [
            year,
            f"{stats.n_prefixes:,}",
            f"{stats.n_atoms:,}",
            f"{stats.mean_atom_size:.2f}",
            f"{result.formation_shares.get(1, 0):.0%}",
            f"{result.formation_shares.get(3, 0):.0%}",
        ]
        if result.stability:
            row.append(f"{result.stability['8h'][0]:.1%}")
        rows.append(row)
    headers = ["year", "prefixes", "atoms", "mean size", "formed@1", "formed@3"]
    if results and results[0].stability:
        headers.append("CAM 8h")
    return render_table(headers, rows, title="Longitudinal atom trend")


def _run_trend_sweep(args: argparse.Namespace):
    """The shared sweep behind ``repro trend`` and ``repro store build``."""
    params = _world_params(args)
    family = AF_INET if args.family == 4 else AF_INET6
    years = list(range(args.first_year, args.last_year + 1, args.step))
    internet = SimulatedInternet(params, start=f"{years[0]}-01-01")
    engine = _build_engine(args)
    study = LongitudinalStudy(
        internet,
        family=family,
        engine=engine,
        store_dir=getattr(args, "store_dir", None),
    )
    results = study.run_years(years, with_stability=not args.no_stability)
    return results, engine


def cmd_trend(args: argparse.Namespace) -> int:
    """Handle ``repro trend``."""
    results, engine = _run_trend_sweep(args)
    print(_render_trend_table(results))
    if args.store_dir:
        with AtomStore(args.store_dir, verify=False) as store:
            print(f"store: {args.store_dir} ({len(store.snapshots())} "
                  f"snapshots, {store.total_bytes():,} segment bytes)")
    if args.progress:
        print(engine.metrics.render(), file=sys.stderr)
    return 0


def cmd_store_build(args: argparse.Namespace) -> int:
    """Handle ``repro store build``: run a sweep, persist the store."""
    results, engine = _run_trend_sweep(args)
    with AtomStore(args.store_dir, verify=False) as store:
        entries = store.snapshots()
        print(f"built atom store at {args.store_dir}")
        print(f"  snapshots: {len(entries)} across {len(results)} quarter(s)")
        print(f"  segment bytes: {store.total_bytes():,}")
        print(f"  interned paths: {store.pool_options.get('path_count', 0):,}")
    if args.progress:
        print(engine.metrics.render(), file=sys.stderr)
    return 0


def cmd_store_info(args: argparse.Namespace) -> int:
    """Handle ``repro store info``: summarize a store's manifest."""
    try:
        with AtomStore(args.store_dir, verify=args.check) as store:
            if args.check:
                checked = store.verify_segments()
                print(f"integrity: {checked} segment(s) verified")
            entries = store.snapshots()
            print(f"store: {args.store_dir}")
            print(f"  format: repro-atom-store v{STORE_FORMAT_VERSION}")
            print(f"  segment bytes: {store.total_bytes():,}")
            print(f"  interned paths: {store.pool_options.get('path_count', 0):,}")
            rows = [
                (
                    entry.key,
                    entry.role,
                    f"{entry.prefixes:,}",
                    f"{entry.atom_count:,}",
                    len(entry.vantage_points),
                    len(entry.shards),
                )
                for entry in entries
            ]
            print()
            print(render_table(
                ["snapshot", "role", "prefixes", "atoms", "VPs", "shards"],
                rows,
                title="Snapshots",
            ))
            if args.trend:
                # Recompute the trend table purely from the store —
                # byte-identical to what the sweep printed.
                print()
                print(_render_trend_table(trend_results_from_store(store)))
    except StoreError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_store_query(args: argparse.Namespace) -> int:
    """Handle ``repro store query``: locate one prefix's atom."""
    try:
        with AtomStore(args.store_dir, verify=False) as store:
            found = store.query(args.prefix, key=args.snapshot)
            if found is None:
                print(f"{args.prefix}: not in snapshot universe")
                return 1
            print(f"prefix: {found.prefix}")
            print(f"snapshot: {found.key}")
            print(f"atom id: {found.atom_id}")
            print(f"shard: {found.shard} (row {found.row})")
            entry = store.snapshot(found.key)
            for peer, path in zip(entry.vantage_points, found.paths):
                collector, asn, address = peer
                seen = "(not seen)" if path is None else str(path)
                print(f"  {collector} AS{asn} {address}: {seen}")
    except StoreError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Handle ``repro serve``: run the atom query service."""
    try:
        # Opening the store validates the manifest up front, so a
        # missing or corrupt store fails here — one line, no socket.
        app = ServeApp(
            str(args.store_dir),
            host=args.host,
            port=args.port,
            cache_entries=args.cache_entries,
            verify=args.check,
        )
    except StoreError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 2
    return app.run(announce=print)


def cmd_live(args: argparse.Namespace) -> int:
    """Handle ``repro live``: stream an archive through the pipeline."""
    archive = RecordArchive(args.archive)
    records = chain(
        BGPStream(archive, record_type="rib").records(),
        BGPStream(archive, record_type="update").records(),
    )
    family = None
    if args.family is not None:
        family = AF_INET if args.family == 4 else AF_INET6
    config = LiveConfig(
        window_seconds=args.window,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        store_dir=args.store_dir,
        store_merge_every=args.store_merge_every,
        parity=args.parity,
        max_windows=args.max_windows,
        family=family,
    )

    def narrate(window) -> None:
        print(
            f"window {window.index} closed @ {window.end}: "
            f"{window.records} records, {window.dirty} dirty, "
            f"{window.atoms} atoms "
            f"(+{window.created}/-{window.removed})",
            file=sys.stderr,
        )

    pipeline = LivePipeline(records, config)
    try:
        run = pipeline.run(on_window=narrate if args.progress else None)
    except LiveError as error:
        print(f"live error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(run.as_dict(), indent=1, sort_keys=True))
        return 0
    if run.resumed:
        print(f"resumed from checkpoint at window {run.resumed_from} "
              f"({run.skipped:,} records already consumed)")
    print(f"primed with {run.prime_records} RIB record(s), "
          f"{len(run.vantage_points)} vantage points")
    if run.windows:
        print()
        print(render_window_table(run.windows))
    else:
        print("no windows closed (stream exhausted before a boundary)")
    summary = [f"{run.records:,} records in {len(run.windows)} window(s)"]
    if run.parity_checks:
        summary.append(f"parity verified at {run.parity_checks} boundaries")
    if run.checkpoints:
        summary.append(f"{run.checkpoints} checkpoint(s)")
    if run.store_keys:
        summary.append(f"store has {len(run.store_keys)} window snapshot(s)")
    print()
    print("; ".join(summary))
    if run.stopped_early:
        print(f"stopped after --max-windows {config.max_windows}; "
              "resume from the checkpoint to continue")
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    """Handle ``repro converge``: run the discrete-event engine."""
    params = _world_params(args)
    family = AF_INET if args.family == 4 else AF_INET6
    sim = SimulatedInternet(params, start=args.start)
    record_updates = args.archive is not None
    try:
        run = sim.converge(
            args.start,
            scenario=args.scenario,
            family=family,
            mrai=args.mrai,
            record_updates=record_updates,
        )
    except (ValueError, ConvergenceError) as error:
        print(f"converge error: {error}", file=sys.stderr)
        return 2
    for line in run.narration:
        print(line)
    baseline = list(run.rib_records()) if record_updates else None

    try:
        for offset in sorted(set(args.snapshot_at or [])):
            run.run_until(run.scenario_start + offset)
            records = list(run.rib_records())
            computation = compute_policy_atoms(records)
            print(
                f"snapshot at t+{offset:.0f}s: {len(records)} records, "
                f"{len(computation.atoms)} atoms"
            )
        if args.max_events is not None:
            final = run.run_to_quiescence(max_events=args.max_events)
        else:
            final = run.run_to_quiescence()
    except ConvergenceError as error:
        print(f"converge error: {error}", file=sys.stderr)
        return 2
    print(f"quiescent at sim t={final:.1f}s "
          f"({final - run.scenario_start:.1f}s after the scenario began)")

    if args.parity:
        problems = quiescence_parity(run, sim.engine)
        if problems:
            print("quiescence parity FAILED:", file=sys.stderr)
            for problem in problems[:10]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        final_records = list(run.rib_records())
        print(f"quiescence parity ok: {len(final_records)} records "
              "value-identical to the equilibrium renderer")

    if args.archive is not None:
        archive = RecordArchive(args.archive)
        written = archive.write_dump(baseline or [])
        updates = run.update_records()
        written += archive.write_dump(updates)
        print(f"archived {len(baseline or [])} RIB record(s) and "
              f"{len(updates)} update record(s) in {len(written)} dump(s) "
              f"under {args.archive} (replay with `repro live`)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Handle ``repro profile``: roll up a ``--trace`` JSONL file."""
    try:
        trace = load_trace(args.trace_file)
    except (OSError, ValueError) as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    problems = validate_spans(trace.spans)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    meta = trace.meta
    print(
        f"trace: {len(trace.spans)} span(s), {len(trace.counters)} "
        f"counter(s), schema v{meta.get('version', '?')}"
    )
    print()
    print(render_table(
        ["stage", "spans", "total s", "self s"],
        profile_rows(trace),
        title="Per-stage wall time",
    ))
    rows = counter_rows(trace)
    if rows:
        print()
        print(render_table(["counter", "value"], rows, title="Counters"))
    if problems and args.check:
        return 1
    return 0


def run_handler(args: argparse.Namespace) -> int:
    """Dispatch to the subcommand, tracing it when ``--trace`` was given."""
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.handler(args)
    tracer = Tracer()
    with use_tracer(tracer):
        code = args.handler(args)
    tracer.export(trace_path)
    return code


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Policy-atom replication toolkit (IMC 2025)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="render a simulated snapshot into an archive"
    )
    _add_world_options(simulate)
    simulate.add_argument("--start", default="2024-10-15 08:00")
    simulate.add_argument("--archive", type=Path, required=True)
    simulate.add_argument("--update-hours", type=float, default=0.0,
                          dest="update_hours")
    simulate.set_defaults(handler=cmd_simulate)

    atoms = commands.add_parser(
        "atoms", help="compute policy atoms and print statistics"
    )
    _add_world_options(atoms)
    _add_engine_options(atoms)
    atoms.add_argument("--archive", type=Path, default=None,
                       help="read records from this archive instead of simulating")
    atoms.add_argument("--start", default="2024-10-15 08:00")
    atoms.add_argument("--formation", action="store_true",
                       help="also print the formation-distance distribution")
    atoms.set_defaults(handler=cmd_atoms)

    trend = commands.add_parser(
        "trend", help="run a quick longitudinal sweep"
    )
    _add_world_options(trend)
    _add_engine_options(trend, with_checkpoint=True)
    _add_trend_range_options(trend)
    trend.add_argument("--store-dir", type=Path, default=None, dest="store_dir",
                       help="persist the sweep as a memory-mapped columnar "
                            "atom store at this directory (reopen with "
                            "`repro store info/query`)")
    trend.set_defaults(handler=cmd_trend)

    store = commands.add_parser(
        "store", help="build / inspect / query on-disk atom stores"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    build = store_commands.add_parser(
        "build", help="run a sweep and persist it as an atom store"
    )
    build.add_argument("store_dir", type=Path,
                       help="directory the store is written to")
    _add_world_options(build)
    _add_engine_options(build, with_checkpoint=True)
    _add_trend_range_options(build)
    build.set_defaults(handler=cmd_store_build)

    info = store_commands.add_parser(
        "info", help="summarize a store's manifest and snapshots"
    )
    info.add_argument("store_dir", type=Path)
    info.add_argument("--check", action="store_true",
                      help="verify every segment's SHA-256 digest")
    info.add_argument("--trend", action="store_true",
                      help="also recompute and print the trend table "
                           "from the stored columns")
    info.set_defaults(handler=cmd_store_info)

    query = store_commands.add_parser(
        "query", help="locate one prefix's atom inside a store"
    )
    query.add_argument("store_dir", type=Path)
    query.add_argument("prefix", help="prefix to look up, e.g. 10.1.0.0/16")
    query.add_argument("--snapshot", default=None,
                       help="snapshot key (default: the first snapshot)")
    query.set_defaults(handler=cmd_store_query)

    serve = commands.add_parser(
        "serve", help="serve atom queries over HTTP from an on-disk store"
    )
    serve.add_argument("store_dir", type=Path,
                       help="atom store directory (see `repro store build`)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--cache-entries", type=_positive_int,
                       default=DEFAULT_MAX_ENTRIES, dest="cache_entries",
                       help="response-cache capacity (LRU entries)")
    serve.add_argument("--check", action="store_true",
                       help="verify every segment's SHA-256 on first map")
    serve.set_defaults(handler=cmd_serve)

    live = commands.add_parser(
        "live", help="stream an archived update feed through the live "
                     "atom-maintenance pipeline"
    )
    live.add_argument("--archive", type=Path, required=True,
                      help="record archive holding the RIB dump and the "
                           "update feed (see `repro simulate`)")
    live.add_argument("--window", type=_positive_int, default=900,
                      help="window width in seconds (default: 900)")
    live.add_argument("--checkpoint-dir", type=Path, default=None,
                      dest="checkpoint_dir",
                      help="save window-boundary checkpoints here; a killed "
                           "run resumes from the last boundary")
    live.add_argument("--checkpoint-every", type=_positive_int, default=1,
                      dest="checkpoint_every",
                      help="checkpoint every N closed windows (default: 1)")
    live.add_argument("--store-dir", type=Path, default=None, dest="store_dir",
                      help="append per-window atom snapshots to this store "
                           "(queryable with `repro serve` while growing)")
    live.add_argument("--store-merge-every", type=int, default=0,
                      dest="store_merge_every",
                      help="fold window parts into the queryable store every "
                           "N windows (default: only at end of stream)")
    live.add_argument("--parity", choices=("off", "window"), default="window",
                      help="verify the streamed partition against a cold "
                           "recompute at every window boundary (default)")
    live.add_argument("--max-windows", type=_positive_int, default=None,
                      dest="max_windows",
                      help="stop after closing this many windows")
    live.add_argument("--family", type=int, choices=(4, 6), default=None,
                      help="restrict to one address family (default: both)")
    live.add_argument("--trace", type=Path, default=None,
                      help="write a JSONL span/counter trace of the run "
                           "(live.* counters; see docs/observability.md)")
    live.add_argument("--progress", action="store_true",
                      help="narrate each closed window on stderr")
    live.add_argument("--json", action="store_true",
                      help="print the run summary as JSON")
    live.set_defaults(handler=cmd_live)

    converge = commands.add_parser(
        "converge", help="run the discrete-event convergence engine over "
                         "one scenario"
    )
    _add_world_options(converge)
    converge.add_argument("--start", default="2004-01-15 00:00")
    converge.add_argument("--scenario", choices=sorted(SCENARIOS),
                          default="quiet",
                          help="perturbation schedule to apply after the "
                               "initial convergence (see docs/simulation.md)")
    converge.add_argument("--mrai", type=float, default=30.0,
                          help="per-neighbor MRAI hold time in sim seconds "
                               "(default: 30)")
    converge.add_argument("--snapshot-at", type=float, action="append",
                          dest="snapshot_at", metavar="SECONDS",
                          help="render a mid-convergence RIB snapshot this "
                               "many sim seconds after the scenario starts "
                               "(repeatable)")
    converge.add_argument("--archive", type=Path, default=None,
                          help="write the converged RIB baseline plus the "
                               "recorded update stream to this archive "
                               "(replay with `repro live`)")
    converge.add_argument("--parity", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="compare the quiescent tables against the "
                               "equilibrium renderer (default: on)")
    converge.add_argument("--max-events", type=int, default=None,
                          dest="max_events",
                          help="abort if quiescence needs more than this "
                               "many events")
    converge.add_argument("--trace", type=Path, default=None,
                          help="write a JSONL span/counter trace of the run "
                               "(sim.* counters; see docs/observability.md)")
    converge.set_defaults(handler=cmd_converge)

    profile = commands.add_parser(
        "profile", help="render the per-stage rollup of a --trace file"
    )
    profile.add_argument("trace_file", type=Path,
                         help="JSONL trace written by --trace")
    profile.add_argument("--check", action="store_true",
                         help="exit non-zero if the trace has structural "
                              "problems (unclosed or escaping spans)")
    profile.set_defaults(handler=cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
