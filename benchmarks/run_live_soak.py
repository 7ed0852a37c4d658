"""Live-pipeline soak: replay, kill, resume, and gate the counters.

Builds a deterministic, hand-crafted churny update archive (the
simulator's update streams never move a prefix between atoms, so the
fixture is authored here: path flaps, withdrawals, re-announcements,
prefix births, a foreign peer and a withdraw-before-announce), then
drives the ``repro live`` CLI through three phases:

1. **reference** — an uninterrupted traced run; its ``live.*`` and
   ``incremental.*`` (the pipeline's :class:`~repro.core.incremental.AtomIndex`)
   counters are compared against the ``live-soak`` key of
   ``trace_expectations.json`` (counters only, never timings — the
   same policy as ``check_trace_counters.py``);
2. **kill** — the same stream stopped after ``--max-windows 2`` with a
   checkpoint directory and a store sink, simulating a crash at a
   window boundary;
3. **resume** — the same invocation without the window cap; it must
   pick up from the checkpoint and finish the stream.

The gate then requires the killed+resumed window sequence to equal the
reference run's windows field-for-field, the final atom partition to
match, and the store to hold one queryable snapshot per window.  Every
window boundary of every phase additionally self-verifies streamed ==
cold-recompute parity (``--parity window`` is the default; divergence
exits non-zero on its own).

Usage::

    python benchmarks/run_live_soak.py            # gate, exit 1 on drift
    python benchmarks/run_live_soak.py --update   # rewrite the live-soak key

CI runs the gate in the bench-smoke job and uploads ``BENCH_live.json``
plus the reference trace as artifacts.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.cli import main as repro_main
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs import load_trace
from repro.store import AtomStore
from repro.stream.archive import RecordArchive

HERE = Path(__file__).parent
EXPECTATIONS = HERE / "trace_expectations.json"

#: Expectations key owned by this harness.
SCENARIO = "live-soak"

#: Window width of the soak stream (seconds).
WINDOW = 100

#: Counter families the gate compares exactly.
GATED_PREFIXES = ("live.", "incremental.")

#: Windows the kill phase is allowed to close before "crashing".
KILL_AFTER = 2

PEERS = [
    ("rrc00", 1, "10.9.1.1"),
    ("rrc00", 2, "10.9.2.1"),
    ("rrc01", 3, "10.9.3.1"),
    ("rrc01", 4, "10.9.4.1"),
]

#: In the update feed but not in the leading dump: every record from it
#: must be skipped and counted as ``live.foreign_records``.
FOREIGN_PEER = ("rrc01", 99, "10.9.99.1")


def _rib(peer, entries, timestamp):
    collector, peer_asn, peer_address = peer
    elements = [
        RouteElement(
            ElementType.RIB, Prefix.parse(text),
            PathAttributes(ASPath.parse(path)),
        )
        for text, path in entries
    ]
    return RouteRecord(
        "rib", "ris", collector, peer_asn, peer_address, timestamp, elements
    )


def _update(peer, timestamp, announced=(), withdrawn=()):
    collector, peer_asn, peer_address = peer
    elements = [
        RouteElement(
            ElementType.ANNOUNCEMENT, Prefix.parse(text),
            PathAttributes(ASPath.parse(path)),
        )
        for text, path in announced
    ]
    elements += [
        RouteElement(ElementType.WITHDRAWAL, Prefix.parse(text))
        for text in withdrawn
    ]
    return RouteRecord(
        "update", "ris", collector, peer_asn, peer_address, timestamp, elements
    )


def fixture_records():
    """The soak stream: a RIB dump plus six windows of genuine churn."""
    prefixes = [f"10.0.{i}.0/24" for i in range(1, 25)]
    ribs = []
    for peer in PEERS:
        asn = peer[1]
        entries = [
            (text, f"{asn} 5 9" if i % 2 == 0 else f"{asn} 6 8")
            for i, text in enumerate(prefixes)
        ]
        ribs.append(_rib(peer, entries, timestamp=50))

    updates: List[RouteRecord] = []
    for w in range(1, 7):
        base = w * WINDOW
        flap = prefixes[(3 * w) % len(prefixes)]
        # a path flap at two peers: moves the prefix between atoms
        updates.append(_update(
            PEERS[0], base + 10, announced=[(flap, f"1 {70 + w} 9")]
        ))
        updates.append(_update(
            PEERS[2], base + 35, announced=[(flap, f"3 {70 + w} 9")]
        ))
        # a no-op re-announcement: dirties without moving the key
        updates.append(_update(
            PEERS[1], base + 50,
            announced=[(prefixes[w], f"2 {'5 9' if w % 2 == 0 else '6 8'}")]
        ))
        if w in (2, 4):
            updates.append(_update(
                PEERS[1], base + 60, withdrawn=[prefixes[w + 6]]
            ))
        if w in (3, 5):
            updates.append(_update(
                PEERS[1], base + 20,
                announced=[(prefixes[w + 5], f"2 {70 + w} 8")]
            ))
        if w == 3:
            for offset, peer in enumerate(PEERS):
                updates.append(_update(
                    peer, base + 70 + offset,
                    announced=[("10.1.3.0/24", f"{peer[1]} 44 7")]
                ))
        if w in (1, 4):
            updates.append(_update(
                FOREIGN_PEER, base + 80,
                announced=[(prefixes[0], "99 5 9")]
            ))
    # withdraw-before-announce: the collector never saw this prefix
    updates.insert(1, _update(PEERS[3], 115, withdrawn=["192.0.2.0/24"]))
    return ribs, updates


def build_fixture(archive_dir: Path) -> None:
    """Write the soak archive (idempotent: wiped and rebuilt)."""
    shutil.rmtree(archive_dir, ignore_errors=True)
    archive = RecordArchive(archive_dir)
    ribs, updates = fixture_records()
    archive.write_dump(ribs)
    # One update dump per (collector): replay order is dump-file order,
    # so the second collector's records arrive after the first's later
    # windows — out-of-order across dump boundaries, like real feeds.
    archive.write_dump(updates)


def run_live(archive_dir: Path, extra: List[str],
             trace: Optional[Path] = None) -> Dict:
    """One ``repro live --json`` invocation; returns the parsed summary."""
    argv = [
        "live",
        "--archive", str(archive_dir),
        "--window", str(WINDOW),
        "--json",
    ] + extra
    if trace is not None:
        argv += ["--trace", str(trace)]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = repro_main(argv)
    if code != 0:
        raise SystemExit(
            f"repro live exited with {code} (argv: {' '.join(argv)})"
        )
    return json.loads(buffer.getvalue())


def soak(output_dir: Path) -> Dict:
    """Run all three phases; returns the BENCH_live payload."""
    archive_dir = output_dir / "live_fixture"
    build_fixture(archive_dir)

    trace_path = output_dir / "trace_live_soak.jsonl"
    reference = run_live(archive_dir, [], trace=trace_path)
    counters = {
        name: value
        for name, value in sorted(load_trace(trace_path).counters.items())
        if name.startswith(GATED_PREFIXES)
    }

    ckpt = output_dir / "live_ckpt"
    store = output_dir / "live_store"
    shutil.rmtree(ckpt, ignore_errors=True)
    shutil.rmtree(store, ignore_errors=True)
    durable = ["--checkpoint-dir", str(ckpt), "--store-dir", str(store)]
    killed = run_live(archive_dir, durable + ["--max-windows", str(KILL_AFTER)])
    resumed = run_live(archive_dir, durable)

    problems: List[str] = []
    if not killed["stopped_early"]:
        problems.append("kill phase ran the stream out instead of stopping")
    if not resumed["resumed"]:
        problems.append("resume phase did not load the checkpoint")
    combined = killed["windows"] + resumed["windows"]
    if combined != reference["windows"]:
        problems.append(
            "killed+resumed windows diverge from the uninterrupted run: "
            f"{json.dumps(combined)} != {json.dumps(reference['windows'])}"
        )
    for field in ("atoms", "prefixes", "vantage_points"):
        if resumed[field] != reference[field]:
            problems.append(
                f"final {field} diverge: resumed {resumed[field]!r} "
                f"!= reference {reference[field]!r}"
            )
    expected_keys = [f"w{w['index']:08d}" for w in reference["windows"]]
    if resumed["store_keys"] != expected_keys:
        problems.append(
            f"store keys {resumed['store_keys']} != {expected_keys}"
        )
    with AtomStore(store) as reader:
        snapshot_keys = [entry.key for entry in reader.snapshots()]
        if snapshot_keys != expected_keys:
            problems.append(
                f"merged store snapshots {snapshot_keys} != {expected_keys}"
            )
        last = reader.atoms(expected_keys[-1])
        if len(last) != reference["atoms"]:
            problems.append(
                f"stored final partition has {len(last)} atoms, "
                f"reference {reference['atoms']}"
            )
    if not counters.get("live.windows"):
        problems.append("reference trace carries no live.windows counter")
    if not counters.get("live.foreign_records"):
        problems.append("fixture exercised no foreign records")
    if not counters.get("live.late_records"):
        problems.append("fixture exercised no out-of-order records")
    if not counters.get("live.withdrawals"):
        problems.append("fixture exercised no withdrawals")
    if not counters.get("live.key_changes"):
        problems.append("fixture moved no prefix between atoms")

    return {
        "scenario": SCENARIO,
        "counters": counters,
        "reference": {
            "windows": reference["windows"],
            "atoms": reference["atoms"],
            "prefixes": reference["prefixes"],
            "parity_checks": reference["parity_checks"],
        },
        "kill_resume": {
            "killed_windows": len(killed["windows"]),
            "resumed_windows": len(resumed["windows"]),
            "resumed_from": resumed["resumed_from"],
            "skipped": resumed["skipped"],
            "checkpoints": killed["checkpoints"] + resumed["checkpoints"],
            "store_snapshots": snapshot_keys,
        },
        "problems": problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the live-soak expectations key")
    parser.add_argument("--output-dir", type=Path, default=HERE / "output",
                        help="where the fixture, trace and BENCH_live.json land")
    args = parser.parse_args(argv)

    args.output_dir.mkdir(parents=True, exist_ok=True)
    payload = soak(args.output_dir)
    summary_path = args.output_dir / "BENCH_live.json"
    summary_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {summary_path}")

    if payload["problems"]:
        print("live soak failed:", file=sys.stderr)
        for problem in payload["problems"]:
            print(f"  {problem}", file=sys.stderr)
        return 1

    expectations = (
        json.loads(EXPECTATIONS.read_text()) if EXPECTATIONS.exists() else {}
    )
    if args.update:
        expectations[SCENARIO] = payload["counters"]
        EXPECTATIONS.write_text(json.dumps(expectations, indent=2) + "\n")
        print(f"wrote {EXPECTATIONS} ({SCENARIO})")
        return 0

    want = expectations.get(SCENARIO)
    if want is None:
        print(f"no {SCENARIO!r} key in {EXPECTATIONS}; run with --update",
              file=sys.stderr)
        return 2
    drift = [
        f"{name}: expected {want.get(name)}, got "
        f"{payload['counters'].get(name)}"
        for name in sorted(set(want) | set(payload["counters"]))
        if want.get(name) != payload["counters"].get(name)
    ]
    if drift:
        print("live counter drift detected:", file=sys.stderr)
        for line in drift:
            print(f"  {line}", file=sys.stderr)
        print("(if intentional, regenerate with --update)", file=sys.stderr)
        return 1
    windows = payload["reference"]["windows"]
    print(
        f"{len(payload['counters'])} live counters match expectations; "
        f"{len(windows)} windows, parity verified at "
        f"{payload['reference']['parity_checks']} boundaries, "
        "kill/resume equivalent to the uninterrupted run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
