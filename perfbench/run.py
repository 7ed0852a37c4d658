#!/usr/bin/env python3
"""The repository benchmark: three named workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trend-sweep --seed 20250701 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs one untraced and one traced repetition and reports
the per-layer metrics of ``perfbench/layers.json`` plus the tracing
overhead.  Every repetition runs in a fresh interpreter
(``perfbench/tasks.py``).  The correctness oracles run outside the
timed region; a failed oracle or task prints ``"correct": false`` and
exits 1.  The last stdout line is the result object; the line before
it is the full labelled report (seed, source digest, sample counts,
checks).  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = os.path.join(HERE, "layers.json")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("trend-sweep", "live-replay", "store-serve")
#: worker processes of the parallel sweep (the container has 2 cores)
PARALLEL_JOBS = 2
#: layers whose per-layer metrics come from the traced parallel sweep;
#: every other layer is measured on the serial one
POOL_LAYERS = ("engine.decode", "engine.worker")
#: Every run must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
MIN_REPS = 3
#: live-replay stream: 12 h of updates in 900 s windows, of which every
#: replay closes the first 30 (empty windows are skipped, and how many
#: there are depends on the seed; the cap keeps the work per replay
#: the same)
LIVE_HOURS, LIVE_WINDOW_S, LIVE_WINDOWS = 12.0, 900, 30
#: store-serve schedule (requests/s and seconds)
WARMUP_RATE, WARMUP_S = 600.0, 1.5
#: latency is measured in blocks of 1000 requests at the reference rate
#: (p99 then has 10 samples beyond it); the metrics are block medians
REFERENCE_RATE, BLOCK_S, REFERENCE_BLOCKS = 400.0, 2.5, 4
#: closed-loop blocks that measure the saturation throughput (one after
#: each reference block), with this many pipelined requests per connection
SATURATION_S, PIPELINE_DEPTH = 2.0, 8
#: seconds of cold reopens per run (each in a fresh interpreter)
REOPEN_S = 10.0
#: p99 limit each reference block is judged against (reported, not gated)
LATENCY_LIMIT_MS = 10.0
#: wire bodies of the first reference block checked against the service
SERVE_BODY_SAMPLES = 64
#: |self-time sum - span wall| allowed per thread, and traced wall vs
#: the root span's duration
SUM_TOLERANCE_S = 0.001
WALL_TOLERANCE = 0.01

clock = time.perf_counter


class BenchError(RuntimeError):
    """A task crashed or timed out."""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


class Bench:
    """One benchmark run: task launcher, checks, samples, metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = clock()
        self.work = os.path.join(HERE, ".work", str(os.getpid()))
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        self.checks: List[Dict[str, Any]] = []
        self.samples: Dict[str, int] = {}
        self.details: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        #: traced processes' totals: "main" feeds the per-layer metrics,
        #: "parallel" (the pool sweep) only the POOL_LAYERS
        self.traces: Dict[str, List[Dict[str, Any]]] = {"main": [], "parallel": []}
        self._task_seq = 0

    # -- plumbing ------------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (clock() - self.started)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def task(self, name: str, scope: str = "main", **spec: Any) -> Dict[str, Any]:
        """Run one task in a fresh interpreter; its output dict.  Traced
        totals are kept under ``scope``."""
        self._task_seq += 1
        stem = self.path(f"task{self._task_seq}-{name}")
        spec.setdefault("seed", self.seed)
        if spec.get("trace"):
            spec["layers"] = LAYERS
            spec["ship_dir"] = self.path(f"ship{self._task_seq}")
            os.makedirs(spec["ship_dir"])
        with open(stem + ".spec.json", "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError(f"out of time before task {name}")
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "tasks.py"), name,
                 stem + ".spec.json", stem + ".out.json"],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"task {name} timed out") from None
        if done.returncode != 0:
            raise BenchError(
                f"task {name} exited {done.returncode}: {done.stderr[-2000:]}"
            )
        with open(stem + ".out.json", encoding="utf-8") as handle:
            out = json.load(handle)
        if spec.get("trace"):
            self.check(f"{name}: bindings restored", out["restored"])
            self.add_trace(out["trace"], f"{name} process", scope,
                           wall_s=out["wall_s"])
            for shipped in sorted(glob.glob(os.path.join(spec["ship_dir"], "*.json"))):
                with open(shipped, encoding="utf-8") as handle:
                    worker = json.load(handle)
                self.add_trace(worker, "pool worker", scope, wall_s=worker["wall_s"])
        return out

    def add_trace(self, snapshot: Dict[str, Any], where: str, scope: str = "main",
                  wall_s: Optional[float] = None) -> None:
        """Keep one process's layer totals; check they add up, and that
        its main thread's root span covers ``wall_s``, timed outside it."""
        problems = spans.check_sum(snapshot, SUM_TOLERANCE_S)
        if wall_s is not None:
            top = sum(thread["top_s"] for thread in snapshot["threads"]
                      if thread["thread"] == "MainThread")
            if abs(top - wall_s) > WALL_TOLERANCE * wall_s + SUM_TOLERANCE_S:
                problems.append(f"spans cover {top:.6f}s of {wall_s:.6f}s")
        self.check(f"{where}: self times add up", not problems, "; ".join(problems))
        self.traces[scope].append(snapshot)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def latencies(self, samples_ms: List[float], tail: float) -> None:
        """Median and ``tail`` percentile of ``samples_ms``, reported
        with the figures too host-sensitive to gate (README)."""
        self.details.setdefault("unbounded", {}).update(
            latency_p50_ms={
                "value": loadgen.percentile(samples_ms, 0.5),
                "unit": "ms",
                "samples": len(samples_ms),
            },
            latency_tail_ms={
                "value": loadgen.percentile(samples_ms, tail),
                "unit": "ms",
                "percentile": tail,
                "samples": len(samples_ms),
            },
        )

    def host_free(self, walls: List[float], wall_refs: List[float],
                  rates: List[float], rate_refs: List[float]) -> Dict[str, float]:
        """The gated ``wall_ref`` and ``throughput_ref``: each wall time
        (rate) divided (multiplied) by the reference workload's time
        measured around it in the same process, so host-speed drift
        cancels (README).  The raw medians are reported beside them."""
        self.details.setdefault("unbounded", {}).update(
            wall_s={"value": median(walls), "unit": "s"},
            throughput_per_s={"value": median(rates), "unit": "1/s"},
            reference_s={"value": median(wall_refs + rate_refs), "unit": "s"},
        )
        return {
            "wall_ref": median([w / r for w, r in zip(walls, wall_refs)]),
            "throughput_ref": median([t * r for t, r in zip(rates, rate_refs)]),
        }

    def repeat(self, once: Callable[[], Dict[str, Any]],
               seconds: Optional[float] = None) -> List[Dict[str, Any]]:
        """Repetitions until ``seconds`` (default: the run's) have passed,
        at least MIN_REPS."""
        seconds = self.seconds if seconds is None else seconds
        results: List[Dict[str, Any]] = []
        begin = clock()
        while len(results) < MIN_REPS or clock() - begin < seconds:
            results.append(once())
        return results

    @property
    def correct(self) -> bool:
        return all(check["ok"] for check in self.checks)

    # -- shared measurements ------------------------------------------------

    def traced_pair(self, name: str, **spec: Any) -> Tuple[Dict, Dict]:
        """One untraced and one traced repetition of a task."""
        plain = self.task(name, **spec)
        traced = self.task(name, trace=True, **spec)
        self.details["trace"] = {
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "selfsum_s": sum(
                thread["self_sum_s"] for thread in traced["trace"]["threads"]
                if thread["thread"] == "MainThread"
            ),
        }
        return plain, traced

    # -- workloads ----------------------------------------------------------

    def trend(self) -> Dict[str, float]:
        if self.trace:
            plain, traced = self.traced_pair("sweep", jobs=1)
            self.check("traced rows equal untraced rows",
                       plain["rows"] == traced["rows"])
            reps = [plain]
        else:
            reps = self.repeat(lambda: self.task("sweep", jobs=1))
        rows = reps[0]["rows"]
        self.check("every repetition gives the same rows",
                   all(rep["rows"] == rows for rep in reps))
        self.attempted += sum(len(rep["job_seconds"]) for rep in reps)
        # The same sweep through the engine's process pool, outside the
        # timed repetitions: an oracle, and (traced) the pool's layers.
        parallel = self.task("sweep", scope="parallel", jobs=PARALLEL_JOBS,
                             trace=self.trace)
        self.check("parallel rows equal serial rows", parallel["rows"] == rows)
        quarter = self.seed % len(rows)
        oracle = self.task("reference-atoms", quarter=quarter)
        self.check(
            f"quarter {quarter} atoms equal compute_atoms_reference",
            oracle["equal"] and oracle["stats"] == rows[quarter]["stats"],
        )
        latencies = [s * 1000.0 for rep in reps for s in rep["job_seconds"]]
        self.latencies(latencies, 0.9)
        self.samples.update(repetitions=len(reps), jobs=len(latencies))
        self.details["repetition_wall_s"] = [rep["wall_s"] for rep in reps]
        busy = sum(parallel["job_seconds"])
        self.details["parallel"] = {
            "jobs": PARALLEL_JOBS,
            "wall_s": parallel["wall_s"],
            "peak_rss_mb": parallel["peak_rss_mb"],
            "worker_busy_s": busy,
            "utilization": busy / (PARALLEL_JOBS * parallel["wall_s"]),
        }
        refs = [rep["reference_s"] for rep in reps]
        return {
            "setup_s": median([rep["import_s"] for rep in reps]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
            **self.host_free(
                [rep["wall_s"] for rep in reps], refs,
                [rep["snapshots"] / rep["wall_s"] for rep in reps], refs,
            ),
        }

    def live(self) -> Dict[str, float]:
        archives = []
        for index in range(1 if self.trace else MIN_REPS):
            archive = self.path(f"archive{index}")
            archives.append(self.task("render-archive", archive=archive,
                                      hours=LIVE_HOURS, trace=self.trace))
        self.check("archive renders are identical",
                   len({a["digest"] for a in archives}) == 1)
        spec = {"archive": self.path("archive0"), "window_seconds": LIVE_WINDOW_S,
                "max_windows": LIVE_WINDOWS}
        if self.trace:
            plain, traced = self.traced_pair("replay", **spec)
            self.check("traced windows equal untraced windows",
                       plain["digest"] == traced["digest"])
            reps = [plain]
        else:
            reps = self.repeat(lambda: self.task("replay", **spec))
        self.check("every replay gives the same windows",
                   len({rep["digest"] for rep in reps}) == 1)
        for rep in reps:
            self.attempted += rep["windows"]
            self.failed += rep["windows"] - rep["parity_checks"]
        self.check("parity verified at every closed window",
                   all(rep["windows"] and rep["parity_checks"] == rep["windows"]
                       for rep in reps))
        self.check(f"every replay closed {LIVE_WINDOWS} windows",
                   all(rep["windows"] == LIVE_WINDOWS for rep in reps))
        latencies = [ms for rep in reps for ms in rep["latencies_ms"]]
        self.latencies(latencies, 0.9)
        self.details["repetition_wall_s"] = [rep["wall_s"] for rep in reps]
        self.samples.update(repetitions=len(reps), setups=len(archives),
                            windows=sum(rep["windows"] for rep in reps),
                            window_close_samples=len(latencies))
        refs = [rep["reference_s"] for rep in reps]
        return {
            "setup_s": median([a["wall_s"] for a in archives]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
            **self.host_free(
                [rep["wall_s"] for rep in reps], refs,
                [rep["windows"] / rep["wall_s"] for rep in reps], refs,
            ),
        }

    def store_serve(self) -> Dict[str, float]:
        builds = []
        for index in range(1 if self.trace else 2):
            store = self.path(f"store{index}")
            builds.append(self.task("sweep", jobs=1, store_dir=store,
                                    trace=self.trace))
        rows = builds[0]["rows"]
        self.check("store builds give the same rows",
                   all(build["rows"] == rows for build in builds))
        store = self.path("store0")
        if self.trace:
            plain, traced = self.traced_pair("reopen", store_dir=store)
            self.check("traced reopen rows equal untraced",
                       plain["rows"] == traced["rows"])
            reopens = [plain]
        else:
            reopens = self.repeat(lambda: self.task("reopen", store_dir=store),
                                  REOPEN_S)
        self.attempted += len(reopens)
        self.check("reopened rows equal the sweep's rows",
                   all(reopen["rows"] == rows for reopen in reopens))
        peak_rss_mb, rates, rate_refs = self.serve(store)
        self.samples.update(setups=len(builds), reopens=len(reopens))
        self.details["repetition_wall_s"] = [reopen["wall_s"] for reopen in reopens]
        return {
            "setup_s": median([build["wall_s"] for build in builds]),
            "peak_rss_mb": peak_rss_mb,
            **self.host_free(
                [reopen["wall_s"] for reopen in reopens],
                [reopen["reference_s"] for reopen in reopens],
                rates, rate_refs,
            ),
        }

    def serve(self, store: str) -> Tuple[float, List[float], List[float]]:
        """Start ``repro serve`` and drive it; the server's peak RSS, the
        closed-loop throughputs and the reference times around them."""
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from repro.net.prefix import Prefix
        from repro.serve.http import encode_body
        from repro.serve.service import AtomQueryService
        from repro.store.reader import AtomStore

        with AtomStore(store, verify=False) as opened:
            pairs = [
                (str(prefix), entry.key)
                for entry in opened.snapshots()
                for prefix in sorted(opened.atoms(entry.key).prefixes(), key=Prefix.key)
            ]
        targets = loadgen.ZipfTargets(pairs, seed=self.seed)
        trace_out = self.path("serve-trace.json")
        if self.trace:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       LAYERS, trace_out]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        cpus = sorted(os.sched_getaffinity(0))
        server = subprocess.Popen(
            command + [store, "--port", "0"], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            announce = server.stdout.readline()
            if "http://" not in announce:
                raise BenchError(f"repro serve did not start: {server.stderr.read()[-2000:]}")
            host, port = announce.split("http://")[1].split()[0].rsplit(":", 1)
            port = int(port)
            # The server gets a CPU of its own and the reference workload
            # runs on that CPU between blocks, so it measures the speed
            # the server got; the generator keeps to the other CPUs.
            server_cpu = {cpus[-1]} if len(cpus) > 1 else set(cpus)
            generator_cpus = set(cpus) - server_cpu or server_cpu
            os.sched_setaffinity(server.pid, server_cpu)
            os.sched_setaffinity(0, generator_cpus)

            def server_cpu_reference() -> float:
                os.sched_setaffinity(0, server_cpu)
                try:
                    return calibrate.reference_seconds()
                finally:
                    os.sched_setaffinity(0, generator_cpus)

            loadgen.run_rung(host, port, targets, WARMUP_RATE, WARMUP_S)
            # Open-loop reference blocks alternate with closed-loop
            # saturation blocks, so both medians span the whole stretch.
            blocks, saturation, rate_refs = [], [], []
            for index in range(1 if self.trace else REFERENCE_BLOCKS):
                blocks.append(loadgen.run_rung(
                    host, port, targets, REFERENCE_RATE, BLOCK_S,
                    keep_bodies=0 if index else SERVE_BODY_SAMPLES,
                ))
                before = server_cpu_reference()
                saturation.append(loadgen.run_rung(
                    host, port, targets, None, SATURATION_S, depth=PIPELINE_DEPTH,
                ))
                rate_refs.append((before + server_cpu_reference()) / 2)
            status, health = loadgen.fetch(host, port, "/healthz")
            with open(f"/proc/{server.pid}/status", encoding="utf-8") as handle:
                hwm = next(line for line in handle if line.startswith("VmHWM"))
            peak_rss_mb = int(hwm.split()[1]) / 1024.0
        finally:
            os.sched_setaffinity(0, cpus)
            if server.poll() is None:
                server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
            server.stderr.close()
        self.check("repro serve shut down cleanly", server.returncode == 0)
        self.check("/healthz answered", status == 200)
        cache = json.loads(health)["cache"]
        self.details["serve_cache"] = cache
        if self.trace:
            with open(trace_out, encoding="utf-8") as handle:
                self.add_trace(json.load(handle), "serve process")
        rungs = blocks + saturation
        for rung in rungs:
            self.attempted += rung.sent
            self.failed += rung.failed
        with AtomStore(store, verify=False) as opened:
            service = AtomQueryService(opened)
            mismatched = [
                index for index, (target, body) in sorted(blocks[0].bodies.items())
                if body != encode_body(service.prefix_query(*targets.pairs[target]))
            ]
        self.check(
            "sampled wire bodies equal encode_body of the service answer",
            len(blocks[0].bodies) == SERVE_BODY_SAMPLES and not mismatched,
            f"{len(mismatched)} of {len(blocks[0].bodies)} differ",
        )
        self.details["rungs"] = [
            {
                "rate": rung.rate,
                "seconds": rung.seconds,
                "sent": rung.sent,
                "failed": rung.failed,
                "throughput": rung.throughput,
                "p50_ms": loadgen.percentile(rung.latencies_ms, 0.5),
                "p99_ms": loadgen.percentile(rung.latencies_ms, 0.99),
                "generator_late_p99_ms": (
                    loadgen.percentile(rung.lateness_ms, 0.99)
                    if rung.lateness_ms else None
                ),
                "generator_late": rung.generator_late,
                "backlog_end": rung.backlog_end,
                "sustained": rung.rate is not None
                and rung.sustained(LATENCY_LIMIT_MS),
            }
            for rung in rungs
        ]
        # A block whose generator fell behind is invalid: its latencies
        # measure the generator.  Medians over the valid blocks.
        valid = [block for block in blocks if not block.generator_late] or blocks
        self.samples.update(
            reference_blocks=len(blocks),
            valid_reference_blocks=sum(not b.generator_late for b in blocks),
            requests_per_block=min(len(b.latencies_ms) for b in blocks),
            saturation_requests=sum(rung.ok for rung in saturation),
        )
        self.details.setdefault("unbounded", {}).update(
            latency_p50_ms={
                "value": median([loadgen.percentile(b.latencies_ms, 0.5) for b in valid]),
                "unit": "ms", "rate": REFERENCE_RATE, "blocks": len(valid),
                "samples": sum(len(b.latencies_ms) for b in valid),
            },
            latency_tail_ms={
                "value": median([loadgen.percentile(b.latencies_ms, 0.99) for b in valid]),
                "unit": "ms", "rate": REFERENCE_RATE, "blocks": len(valid),
                "percentile": 0.99,
            },
            generator_late_p99_ms={
                "value": median([loadgen.percentile(b.lateness_ms, 0.99) for b in blocks]),
                "unit": "ms",
            },
        )
        return peak_rss_mb, [rung.throughput for rung in saturation], rate_refs

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer values from every traced process, by metric name."""
        main = merge_totals(self.traces["main"])
        pool = merge_totals(self.traces["parallel"])
        if self.traces["parallel"]:
            self.details["parallel"]["self_s"] = pool["self_s"]
        for key in ("self_s", "calls"):
            for name, value in pool[key].items():
                if name.startswith(POOL_LAYERS):
                    main[key][name] = value
        self_s, calls, counts = main["self_s"], main["calls"], main["counts"]
        entries = spans.load_layers(LAYERS)
        values: Dict[str, float] = {}
        idle: List[str] = []
        for entry in entries:
            layer = entry["layer"]
            values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            name = f"{layer}.{entry.get('calls', 'calls')}"
            values[name] = calls.get(name, 0)
            for count in entry.get("counts", {}):
                values[f"{layer}.{count}"] = counts.get(f"{layer}.{count}", 0)
            made = sum(
                calls.get(f"{layer}.{other.get('calls', 'calls')}", 0)
                for other in entries if other["layer"] == layer
            )
            if self.workload in entry["workloads"] and not made and layer not in idle:
                idle.append(layer)
        self.check("every layer this workload exercises recorded calls",
                   not idle, ", ".join(idle))
        lookups = values["simulation.propagate.lookups"]
        values["simulation.propagate.hit_ratio"] = (
            1.0 - values["simulation.propagate.calls"] / lookups if lookups else 0.0
        )
        parallel = self.details.get("parallel", {})
        values["engine.worker_busy_s"] = parallel.get("worker_busy_s", 0.0)
        values["engine.utilization"] = parallel.get("utilization", 0.0)
        cache = self.details.get("serve_cache", {})
        asked = cache.get("hits", 0) + cache.get("misses", 0)
        values["serve.cache.hit_ratio"] = cache.get("hits", 0) / asked if asked else 0.0
        trace = self.details["trace"]
        values["trace.root.self_s"] = self_s.get("root", 0.0)
        values["trace.untraced_wall_s"] = trace["untraced_wall_s"]
        values["trace.traced_wall_s"] = trace["traced_wall_s"]
        values["trace.selfsum_s"] = trace["selfsum_s"]
        values["trace.overhead_ratio"] = (
            trace["traced_wall_s"] / trace["untraced_wall_s"] - 1.0
        )
        return values

    # -- entry ---------------------------------------------------------------

    def measure(self) -> Dict[str, float]:
        os.makedirs(self.work)
        if self.workload == "trend-sweep":
            return self.trend()
        if self.workload == "live-replay":
            return self.live()
        return self.store_serve()


def merge_totals(snapshots: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Sum the self times, calls and counts of traced processes."""
    merged: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}, "counts": {}}
    for snapshot in snapshots:
        for key, target in merged.items():
            for name, value in snapshot[key].items():
                target[name] = target.get(name, 0) + value
    return merged


def load_metric_specs() -> Dict[str, List[Dict[str, Any]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=20250701)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so running tasks and the server are
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    specs = load_metric_specs()
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        end_to_end = bench.measure()
        values = bench.layer_metrics() if bench.trace else end_to_end
    except BenchError as error:
        bench.check("tasks ran", False, str(error))
        values = {}
    except Exception:  # report any harness failure as an incorrect run
        bench.check("run completed", False, traceback.format_exc())
        values = {}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass  # another run is using it, or it is already gone
    wanted = specs["per_layer" if bench.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and missing:
        bench.check("every metric measured", False, ", ".join(missing))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "elapsed_s": clock() - bench.started,
        "samples": bench.samples,
        "checks": bench.checks,
        "details": bench.details,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": bench.correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    sys.exit(main())
