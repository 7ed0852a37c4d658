"""Counter-based bench regression gate.

Runs small, fully deterministic ``repro trend`` and ``repro converge``
scenarios with ``--trace``, rolls the traces' *counters* up into
``BENCH_smoke.json`` and compares them against the committed
expectations in ``trace_expectations.json``.

Counters — records decoded, prefixes sanitized, normalise-cache hits,
engine job sources, world-checkpoint saves — are exact functions of the
(seeded) simulated world, so any drift means the pipeline's work
changed: a decoder regression, a sanitizer behavior change, a cache
that stopped hitting.  Timings are deliberately never compared; shared
CI runners make them noise.

Usage::

    python benchmarks/check_trace_counters.py            # compare, exit 1 on drift
    python benchmarks/check_trace_counters.py --update   # rewrite expectations

CI runs the compare mode in the bench-smoke job and uploads the trace
JSONL files plus ``BENCH_smoke.json`` as artifacts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List

from repro.cli import main as repro_main
from repro.obs import load_trace

HERE = Path(__file__).parent
EXPECTATIONS = HERE / "trace_expectations.json"

#: The smoke sweep: tiny world, a few years, deterministic seed.
BASE_ARGS = [
    "trend",
    "--scale", "400",
    "--peer-scale", "0.03",
    "--seed", "20250701",
    "--first-year", "2004",
    "--step", "1",
]

#: Placeholder substituted with a per-run directory under
#: ``--output-dir`` (and wiped beforehand, so part reuse can't make the
#: engine/store counters drift between runs).
STORE_DIR_TOKEN = "{STORE_DIR}"

#: Same, for ``--world-checkpoint-dir``: wiped each run so the save
#: counter (idempotent writes skip existing files) stays exact.
WORLD_DIR_TOKEN = "{WORLD_DIR}"

#: The convergence smoke: the same tiny world run through the
#: discrete-event engine, once per gated scenario class.  Event,
#: message, and update-record counts are exact functions of the seed,
#: so any drift means the engine's behavior changed.
CONVERGE_ARGS = [
    "converge",
    "--scale", "400",
    "--peer-scale", "0.03",
    "--seed", "20250701",
    "--start", "2004-01-15",
]

SCENARIOS: Dict[str, List[str]] = {
    "trend": BASE_ARGS + ["--last-year", "2006", "--no-stability"],
    "trend-store": BASE_ARGS + ["--last-year", "2005",
                                "--store-dir", STORE_DIR_TOKEN],
    # World-lineage checkpoints on the serial path: the stability
    # cadence is dense enough that stride-4 saves land, and the save
    # count is an exact function of the sweep's instant schedule.
    # (Restores only fire in freshly forked workers, whose tracers
    # never reach the parent trace — the unit tests gate those.)
    "trend-worldckpt": BASE_ARGS + ["--last-year", "2005",
                                    "--world-checkpoint-dir",
                                    WORLD_DIR_TOKEN],
    "converge-flap": CONVERGE_ARGS + ["--scenario", "flap-storm",
                                      "--snapshot-at", "120"],
    "converge-leak": CONVERGE_ARGS + ["--scenario", "leak"],
    "converge-failover": CONVERGE_ARGS + ["--scenario", "failover"],
}

#: Only counters are gated; every one is an exact count, never a timing.
TRACKED_PREFIXES = (
    "decode.",
    "sanitize.",
    "atoms.",
    "engine.",
    "store.",
    "live.",
    "sim.",
)


def run_scenarios(output_dir: Path) -> Dict[str, Dict[str, int]]:
    """Run every scenario traced; return its tracked counters."""
    output_dir.mkdir(parents=True, exist_ok=True)
    collected: Dict[str, Dict[str, int]] = {}
    for name, cli_args in SCENARIOS.items():
        trace_path = output_dir / f"trace_{name}.jsonl"
        for token, prefix in ((STORE_DIR_TOKEN, "store"),
                              (WORLD_DIR_TOKEN, "world")):
            if token in cli_args:
                target = output_dir / f"{prefix}_{name}"
                shutil.rmtree(target, ignore_errors=True)
                cli_args = [
                    str(target) if arg == token else arg
                    for arg in cli_args
                ]
        code = repro_main(cli_args + ["--trace", str(trace_path)])
        if code != 0:
            raise SystemExit(f"scenario {name!r} exited with {code}")
        trace = load_trace(trace_path)
        collected[name] = {
            counter: value
            for counter, value in sorted(trace.counters.items())
            if counter.startswith(TRACKED_PREFIXES)
        }
    return collected


def diff(expected: Dict[str, Dict[str, int]],
         actual: Dict[str, Dict[str, int]]) -> List[str]:
    """Human-readable drift lines; empty means the gate passes."""
    problems: List[str] = []
    for scenario in sorted(set(expected) | set(actual)):
        want = expected.get(scenario)
        got = actual.get(scenario)
        if want is None:
            problems.append(f"{scenario}: scenario not in expectations "
                            "(run with --update)")
            continue
        if got is None:
            problems.append(f"{scenario}: scenario did not run")
            continue
        for counter in sorted(set(want) | set(got)):
            if want.get(counter) != got.get(counter):
                problems.append(
                    f"{scenario}: {counter} expected "
                    f"{want.get(counter)}, got {got.get(counter)}"
                )
    return problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite trace_expectations.json from this run")
    parser.add_argument("--output-dir", type=Path,
                        default=HERE / "output",
                        help="where traces and BENCH_smoke.json land")
    args = parser.parse_args(argv)

    actual = run_scenarios(args.output_dir)
    summary_path = args.output_dir / "BENCH_smoke.json"
    summary_path.write_text(json.dumps(actual, indent=2) + "\n")
    print(f"wrote {summary_path}")

    if args.update:
        merged = (
            json.loads(EXPECTATIONS.read_text())
            if EXPECTATIONS.exists() else {}
        )
        merged.update(actual)
        EXPECTATIONS.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"wrote {EXPECTATIONS}")
        return 0

    if not EXPECTATIONS.exists():
        print(f"missing {EXPECTATIONS}; run with --update", file=sys.stderr)
        return 2
    # The expectations file is shared with other harnesses (the live
    # soak owns its own key); only this script's scenarios are diffed.
    expected = {
        name: counters
        for name, counters in json.loads(EXPECTATIONS.read_text()).items()
        if name in SCENARIOS
    }
    problems = diff(expected, actual)
    if problems:
        print("stage counter drift detected:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print("(if intentional, regenerate with --update)", file=sys.stderr)
        return 1
    counters = sum(len(v) for v in actual.values())
    print(f"{counters} counters across {len(actual)} scenario(s) match "
          "expectations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
