"""Timing math of the benchmark's layer tracer and load generator.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import loadgen  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake():
    return FakeClock()


def test_nested_self_time_excludes_wrapped_children(fake):
    recorder = spans.Recorder(clock=fake)

    def inner():
        fake.spend(2.0)

    wrapped_inner = spans.wrap_call(recorder, "inner", inner)

    def outer():
        fake.spend(1.0)
        wrapped_inner()
        fake.spend(0.5)
        wrapped_inner()

    spans.wrap_call(recorder, "outer", outer)()
    totals = recorder.snapshot()
    assert totals["self_s"] == {"outer": 1.5, "inner": 4.0}
    assert totals["calls"] == {"outer.calls": 1, "inner.calls": 2}
    assert totals["threads"] == [
        {"thread": "MainThread", "self_sum_s": 5.5, "top_s": 5.5}
    ]
    assert spans.check_sum(totals, 1e-9) == []


def test_same_layer_nested_in_itself_is_not_double_counted(fake):
    recorder = spans.Recorder(clock=fake)

    def recurse(depth):
        fake.spend(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = spans.wrap_call(recorder, "layer", recurse)
    wrapped(2)
    assert recorder.snapshot()["self_s"] == {"layer": 3.0}


def test_iterator_layer_is_charged_only_for_its_own_next(fake):
    recorder = spans.Recorder(clock=fake)

    def produce():
        for item in range(3):
            fake.spend(2.0)  # the producer's work for one item
            yield item

    def consume(items):
        seen = []
        for item in items:
            fake.spend(5.0)  # the consumer's work per item
            seen.append(item)
        return seen

    producer = spans.wrap_iter(
        recorder, "producer", produce, counts={"records": "one"}
    )
    consumer = spans.wrap_call(recorder, "consumer", consume)
    assert consumer(producer()) == [0, 1, 2]
    totals = recorder.snapshot()
    assert totals["self_s"] == {"producer": 6.0, "consumer": 15.0}
    assert totals["counts"] == {"producer.records": 3}
    assert spans.check_sum(totals, 1e-9) == []


def test_iterator_children_nest_under_the_producer(fake):
    recorder = spans.Recorder(clock=fake)
    helper = spans.wrap_call(recorder, "helper", lambda: fake.spend(1.0))

    def produce():
        for item in range(2):
            helper()
            fake.spend(0.25)
            yield item

    with recorder.span("root"):
        list(spans.wrap_iter(recorder, "producer", produce)())
    assert recorder.snapshot()["self_s"] == {
        "producer": 0.5, "helper": 2.0, "root": 0.0
    }


def test_iterator_closes_its_span_when_the_producer_raises(fake):
    recorder = spans.Recorder(clock=fake)

    def produce():
        yield 1
        fake.spend(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        list(spans.wrap_iter(recorder, "producer", produce)())
    assert recorder.snapshot()["self_s"] == {"producer": 1.0}


def test_out_of_order_close_is_an_error(fake):
    recorder = spans.Recorder(clock=fake)
    first = recorder.enter("a")
    recorder.enter("b")
    with pytest.raises(RuntimeError):
        recorder.exit(first)


def test_each_thread_keeps_its_own_stack():
    recorder = spans.Recorder()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=10)  # both threads have spans open here

    wrapped_inner = spans.wrap_call(recorder, "inner", inner)
    outer = spans.wrap_call(recorder, "outer", wrapped_inner)
    threads = [threading.Thread(target=outer, name=f"t{i}") for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    totals = recorder.snapshot()
    assert sorted(t["thread"] for t in totals["threads"]) == ["t0", "t1"]
    assert totals["calls"] == {"outer.calls": 2, "inner.calls": 2}
    assert spans.check_sum(totals, 1e-6) == []


def test_check_sum_reports_a_gap():
    snapshot = {"threads": [{"thread": "x", "self_sum_s": 1.0, "top_s": 1.5}]}
    assert spans.check_sum(snapshot, 0.1)


def test_snapshot_refuses_open_spans(fake):
    recorder = spans.Recorder(clock=fake)
    recorder.enter("open")
    with pytest.raises(RuntimeError):
        recorder.snapshot()


def test_worker_task_passes_through_in_the_creating_process(fake):
    recorder = spans.Recorder(clock=fake)
    task = spans.wrap_worker_task(recorder, "worker", lambda value: value + 1)
    assert task(1) == 2
    assert recorder.snapshot()["calls"] == {}


# ----------------------------------------------------------------------
# Binding install / restore
# ----------------------------------------------------------------------

@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_target")

    def function(value):
        return value * 2

    class Thing:
        def method(self, value):
            return value + 1

        @classmethod
        def build(cls, value):
            return cls, value

    module.function = function
    module.alias = function
    module.Thing = Thing
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_install_wraps_and_restore_puts_originals_back(fake_module):
    function = fake_module.function
    method = fake_module.Thing.__dict__["method"]
    build = fake_module.Thing.__dict__["build"]
    recorder = spans.Recorder()
    entries = [
        {"layer": "f", "targets": ["perfbench_fake_target.function",
                                   "perfbench_fake_target.alias"]},
        {"layer": "m", "targets": ["perfbench_fake_target.Thing.method"]},
        {"layer": "b", "targets": ["perfbench_fake_target.Thing.build"]},
    ]
    installed = spans.install(recorder, entries)
    try:
        assert fake_module.function is fake_module.alias
        assert fake_module.function is not function
        assert fake_module.function(3) == 6
        assert fake_module.Thing().method(1) == 2
        assert fake_module.Thing.build(5) == (fake_module.Thing, 5)
        assert isinstance(fake_module.Thing.__dict__["build"], classmethod)
    finally:
        assert installed.restore()
    assert fake_module.function is function and fake_module.alias is function
    assert fake_module.Thing.__dict__["method"] is method
    assert fake_module.Thing.__dict__["build"] is build
    assert recorder.snapshot()["calls"] == {"f.calls": 1, "m.calls": 1, "b.calls": 1}


def test_install_refuses_missing_and_mismatched_targets(fake_module):
    recorder = spans.Recorder()
    function = fake_module.function
    with pytest.raises(spans.BindingError):
        spans.install(recorder, [
            {"layer": "f", "targets": ["perfbench_fake_target.function"]},
            {"layer": "x", "targets": ["perfbench_fake_target.missing"]},
        ])
    # the failed install restored the binding it had already wrapped
    assert fake_module.function is function
    with pytest.raises(spans.BindingError):
        spans.install(recorder, [
            {"layer": "x", "targets": ["perfbench_fake_target.function",
                                       "perfbench_fake_target.Thing.method"]},
        ])
    with pytest.raises(spans.BindingError):
        spans.resolve("no_such_package_anywhere.thing")


def test_every_layer_target_resolves_against_the_program():
    for entry in spans.load_layers(os.path.join(BENCH, "layers.json")):
        raws = {id(spans.resolve(target)[2]) for target in entry["targets"]}
        assert len(raws) == 1, entry


# ----------------------------------------------------------------------
# Load generator arithmetic
# ----------------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 0.5) == 50
    assert loadgen.percentile(values, 0.99) == 99
    assert loadgen.percentile(values, 1.0) == 100
    assert loadgen.percentile(list(range(1, 11)), 0.9) == 9
    assert loadgen.percentile([7.0], 0.99) == 7.0


def test_zipf_draws_are_seeded_and_skewed():
    pairs = [(f"10.{i // 256}.{i % 256}.0/24", "k") for i in range(1000)]
    first = loadgen.ZipfTargets(pairs, seed=3).draw(2000)
    assert first == loadgen.ZipfTargets(pairs, seed=3).draw(2000)
    assert first != loadgen.ZipfTargets(pairs, seed=4).draw(2000)
    # rank 1 carries 1/H(1000) ~ 13% of the mass under s=1
    assert 0.09 < first.count(0) / len(first) < 0.17


def test_sustained_rung_rules():
    rung = loadgen.Rung(rate=100.0, seconds=1.0)
    rung.latencies_ms = [1.0] * 99 + [50.0]
    rung.lateness_ms = [0.1] * 100
    assert rung.sustained(10.0) and not rung.generator_late
    rung.latencies_ms = [1.0] * 98 + [50.0, 50.0]
    assert not rung.sustained(10.0)
    rung.latencies_ms = [1.0] * 100
    rung.backlog_end = 10
    assert not rung.sustained(10.0)
    rung.backlog_end = 0
    rung.lateness_ms = [0.1] * 98 + [9.0, 9.0]
    assert rung.generator_late
