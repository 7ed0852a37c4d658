"""Outside-in layer tracing: wrap public bindings, keep spans in memory.

The benchmark measures the program's layers without touching its
source.  :func:`install` replaces each binding named in ``layers.json``
(the dotted name *at the call site*, because ``from x import f`` copies
the binding) with a wrapper that opens a span on a per-thread stack,
and :meth:`Installed.restore` puts every original object back.

Self time is exact by construction: when a span closes, its duration
minus the time its wrapped children covered is charged to its layer,
and its duration is added to its parent's child time.  Summing every
layer's self time over one thread therefore telescopes to the duration
of that thread's top-level spans, which :func:`check_sum`
compares against an independently measured wall time.

Iterator-returning layers are timed *producer-only*: each ``next()``
is its own span, so work the consumer does between items is charged
to the consumer, not to the generator that fed it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Item/result counters a layer entry may name in ``"counts"``.
COUNTERS: Dict[str, Callable[[Any], float]] = {
    "one": lambda value: 1,
    "len": len,
    "elements": lambda record: len(record.elements),
    "prefix_count": lambda atom_set: atom_set.prefix_count(),
    "windows": lambda run: len(run.windows),
}


class BindingError(RuntimeError):
    """A layer target no longer resolves to a callable binding."""


class _ThreadTotals:
    """One thread's accumulators (written only by that thread)."""

    __slots__ = ("name", "stack", "self_s", "calls", "counts", "top_s")

    def __init__(self, name: str):
        self.name = name
        #: open frames: [layer, start, child seconds]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: summed duration of spans opened with an empty stack
        self.top_s = 0.0


class Recorder:
    """Per-thread span stacks plus per-layer self-time totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: the process that created the recorder (forked workers differ)
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadTotals] = []
        #: directory forked pool workers ship their totals to (see
        #: :func:`wrap_worker_task`)
        self.ship_dir: Optional[str] = None

    # -- per-thread state ------------------------------------------------

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _ThreadTotals(threading.current_thread().name)
            self._local.totals = totals
            with self._lock:
                self._threads.append(totals)
        return totals

    def reset(self) -> None:
        """Forget every thread's totals (a forked worker's inherited ones)."""
        self._local = threading.local()
        with self._lock:
            self._threads = []

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str) -> list:
        frame = [layer, 0.0, 0.0]
        self._totals().stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        totals = self._totals()
        stack = totals.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        duration = end - frame[1]
        layer = frame[0]
        totals.self_s[layer] = totals.self_s.get(layer, 0.0) + duration - frame[2]
        if stack:
            stack[-1][2] += duration
        else:
            totals.top_s += duration

    def span(self, layer: str) -> "_SpanContext":
        """A ``with`` block timed as one span of ``layer``."""
        return _SpanContext(self, layer)

    def call(self, name: str) -> None:
        totals = self._totals()
        totals.calls[name] = totals.calls.get(name, 0) + 1

    def count(self, name: str, amount: float) -> None:
        totals = self._totals()
        totals.counts[name] = totals.counts.get(name, 0) + amount

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe totals: merged per layer, plus per-thread sums."""
        with self._lock:
            threads = list(self._threads)
        merged: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}, "counts": {}}
        per_thread = []
        for totals in threads:
            if totals.stack:
                raise RuntimeError(
                    f"thread {totals.name} left spans open: "
                    f"{[frame[0] for frame in totals.stack]}"
                )
            for key in ("self_s", "calls", "counts"):
                target = merged[key]
                for name, value in getattr(totals, key).items():
                    target[name] = target.get(name, 0) + value
            per_thread.append(
                {
                    "thread": totals.name,
                    "self_sum_s": sum(totals.self_s.values()),
                    "top_s": totals.top_s,
                }
            )
        merged["threads"] = per_thread
        return merged

    def ship(self, extra: Dict[str, Any]) -> None:
        """Write this process's totals into :attr:`ship_dir`."""
        if self.ship_dir is None:
            return
        payload = dict(self.snapshot(), **extra)
        name = f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        path = os.path.join(self.ship_dir, name)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


class _SpanContext:
    __slots__ = ("recorder", "layer", "frame")

    def __init__(self, recorder: Recorder, layer: str):
        self.recorder = recorder
        self.layer = layer

    def __enter__(self) -> "_SpanContext":
        self.frame = self.recorder.enter(self.layer)
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.exit(self.frame)


def check_sum(snapshot: Dict[str, Any], tolerance_s: float) -> List[str]:
    """Problems where a thread's self times do not add up to its spans."""
    problems = []
    for thread in snapshot["threads"]:
        gap = abs(thread["self_sum_s"] - thread["top_s"])
        if gap > tolerance_s:
            problems.append(
                f"thread {thread['thread']}: self times sum to "
                f"{thread['self_sum_s']:.6f}s, spans cover {thread['top_s']:.6f}s"
            )
    return problems


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _apply_counts(recorder: Recorder, layer: str, counts: Dict[str, str], value) -> None:
    for name, counter in counts.items():
        recorder.count(f"{layer}.{name}", COUNTERS[counter](value))


def wrap_call(recorder: Recorder, layer: str, fn: Callable, calls: str = "calls",
              counts: Optional[Dict[str, str]] = None) -> Callable:
    """``fn`` timed as one span per call; ``counts`` read its result."""
    counts = counts or {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.call(f"{layer}.{calls}")
        frame = recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if counts:
            _apply_counts(recorder, layer, counts, result)
        return result

    return wrapper


def wrap_iter(recorder: Recorder, layer: str, fn: Callable, calls: str = "calls",
              counts: Optional[Dict[str, str]] = None) -> Callable:
    """``fn`` returns an iterator; time only the producer's ``next()``."""
    counts = counts or {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.call(f"{layer}.{calls}")
        frame = recorder.enter(layer)
        try:
            iterator = iter(fn(*args, **kwargs))
        finally:
            recorder.exit(frame)
        return _producer_timed(recorder, layer, iterator, counts)

    return wrapper


def _producer_timed(recorder: Recorder, layer: str, iterator: Iterator,
                    counts: Dict[str, str]) -> Iterator:
    while True:
        frame = recorder.enter(layer)
        try:
            item = next(iterator)
        except StopIteration:
            recorder.exit(frame)
            return
        except BaseException:
            recorder.exit(frame)
            raise
        recorder.exit(frame)
        if counts:
            _apply_counts(recorder, layer, counts, item)
        yield item


def wrap_worker_task(recorder: Recorder, layer: str, fn: Callable, calls: str = "calls",
                     counts: Optional[Dict[str, str]] = None) -> Callable:
    """A process-pool task: in a forked worker, time it as that process's
    root span and ship the worker's totals home when it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() == recorder.pid:
            return fn(*args, **kwargs)
        recorder.reset()
        recorder.call(f"{layer}.{calls}")
        started = recorder.clock()
        with recorder.span(layer):
            result = fn(*args, **kwargs)
        recorder.ship({"wall_s": recorder.clock() - started})
        return result

    return wrapper


WRAPPERS = {"call": wrap_call, "iter": wrap_iter, "worker_task": wrap_worker_task}


# ----------------------------------------------------------------------
# Binding resolution and install/restore
# ----------------------------------------------------------------------

def _raw(owner: Any, name: str) -> Any:
    """The binding itself: a class's ``__dict__`` entry, so classmethods
    can be re-wrapped and restored intact."""
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of a dotted binding.

    The longest importable prefix is the module; the rest is walked
    with ``getattr``.
    """
    parts = target.split(".")
    module = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    if module is None:
        raise BindingError(f"{target}: no importable module prefix")
    owner: Any = module
    try:
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        raw = _raw(owner, parts[-1])
    except (AttributeError, KeyError):
        raise BindingError(f"{target}: binding does not resolve") from None
    function = raw.__func__ if isinstance(raw, classmethod) else raw
    if not callable(function):
        raise BindingError(f"{target}: not callable")
    return owner, parts[-1], raw


class Installed:
    """The wrapped bindings of one :func:`install`; restores them."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def restore(self) -> bool:
        """Put every original binding back (reverse install order);
        True when each binding is its original object again."""
        restored = list(self.saved)
        while self.saved:
            owner, name, raw = self.saved.pop()
            setattr(owner, name, raw)
        return all(_raw(owner, name) is raw for owner, name, raw in restored)


def install(recorder: Recorder, entries: List[Dict[str, Any]]) -> Installed:
    """Wrap every entry's targets; all targets of one entry must name
    the same function and share one wrapper (pickling by name needs it)."""
    installed = Installed()
    try:
        for entry in entries:
            resolved = [resolve(target) for target in entry["targets"]]
            raw = resolved[0][2]
            if any(other[2] is not raw for other in resolved[1:]):
                raise BindingError(
                    f"{entry['layer']}: targets {entry['targets']} differ"
                )
            is_classmethod = isinstance(raw, classmethod)
            function = raw.__func__ if is_classmethod else raw
            wrapper = WRAPPERS[entry.get("kind", "call")](
                recorder,
                entry["layer"],
                function,
                calls=entry.get("calls", "calls"),
                counts=entry.get("counts"),
            )
            replacement = classmethod(wrapper) if is_classmethod else wrapper
            for owner, name, original in resolved:
                installed.saved.append((owner, name, original))
                setattr(owner, name, replacement)
    except BaseException:
        installed.restore()
        raise
    return installed


def load_layers(path: str) -> List[Dict[str, Any]]:
    """The layer map (``layers.json``)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["layers"]
