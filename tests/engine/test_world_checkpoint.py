"""World-lineage checkpoints and worker gap-advance determinism.

The engine's determinism invariant — a world's state is a pure
function of (params, birth instant, applied ``advance_to`` cadence) —
is what makes both features safe:

* a pickled world restored from disk and advanced over the remaining
  gap must produce value-identical results to a from-birth replay;
* a cold worker receiving jobs out of chronological order must advance
  each lineage through warmup gaps and still match the serial run.
"""

import json
import pickle

import pytest

from repro.engine.checkpoint import WorldCheckpoint
from repro.engine.jobs import (
    build_jobs,
    clear_worker_state,
    execute_snapshot_job,
    result_to_payload,
)
from repro.obs import Tracer, use_tracer
from repro.simulation.routing import PropagationEngine
from repro.simulation.scenario import SimulatedInternet
from repro.util.dates import utc_timestamp

from tests.engine.conftest import ENGINE_WORLD

START = utc_timestamp(2004, 1, 1)
QUARTERS = [(2004, 1, 2004.0), (2005, 1, 2005.0), (2006, 1, 2006.0)]


def sweep_jobs(tmp_dir=None, stride=4, with_stability=False):
    return build_jobs(
        ENGINE_WORLD,
        START,
        QUARTERS,
        with_stability=with_stability,
        world_checkpoint_dir=str(tmp_dir) if tmp_dir else None,
        world_checkpoint_stride=stride,
    )


def payload_bytes(result) -> bytes:
    return json.dumps(result_to_payload(result)).encode("utf-8")


class TestValueClassPickling:
    """The seven immutable __slots__ classes must survive pickling —
    a world snapshot embeds all of them."""

    def test_prefix_and_paths(self):
        from repro.bgp.attributes import Community, Origin, PathAttributes
        from repro.net.aspath import ASPath, PathSegment, SegmentType
        from repro.net.prefix import AF_INET, Prefix

        prefix = Prefix(AF_INET, 0x0A010000, 16)
        path = ASPath((PathSegment(SegmentType.AS_SEQUENCE, (64512, 64513)),))
        attrs = PathAttributes(
            as_path=path,
            communities=(Community(64512, 100),),
            med=5,
            local_pref=200,
            origin=Origin.IGP,
        )
        for value in (prefix, path.segments[0], path,
                      next(iter(attrs.communities)), attrs):
            clone = pickle.loads(pickle.dumps(value))
            assert clone == value
            # Still immutable after the round-trip.
            with pytest.raises(AttributeError):
                clone.__setattr__("med", 1)

    def test_whole_world_round_trips(self):
        internet = SimulatedInternet(ENGINE_WORLD, start="2004-01-01")
        internet.advance_to(START + 86400)
        clone = pickle.loads(pickle.dumps(internet))
        when = START + 2 * 86400
        internet.advance_to(when)
        clone.advance_to(when)
        original = [str(r) for r in internet.rib_records(when)]
        restored = [str(r) for r in clone.rib_records(when)]
        assert restored == original


class TestWorldCheckpoint:
    def test_save_restore_round_trip(self, tmp_path):
        checkpoint = WorldCheckpoint(tmp_path)
        internet = SimulatedInternet(ENGINE_WORLD, start="2004-01-01")
        cadence = [START + 86400, START + 7 * 86400]
        for when in cadence:
            internet.advance_to(when)
        path = checkpoint.save(internet, cadence)
        assert path is not None and path.is_file()
        # Idempotent: same lineage saves nothing the second time.
        assert checkpoint.save(internet, cadence) is None
        restored = checkpoint.restore(ENGINE_WORLD, START, cadence)
        assert restored is not None
        clone, applied = restored
        assert applied == cadence
        when = START + 14 * 86400
        internet.advance_to(when)
        clone.advance_to(when)
        assert [str(r) for r in clone.rib_records(when)] == [
            str(r) for r in internet.rib_records(when)
        ]

    def test_restore_drops_an_old_shape_graph_view(self, tmp_path, monkeypatch):
        """A checkpoint whose engine still carries a view without the
        cone-restricted adjacency restores: the view is rebuilt on first
        use, and the route cache survives."""
        checkpoint = WorldCheckpoint(tmp_path)
        internet = SimulatedInternet(ENGINE_WORLD, start="2004-01-01")
        cadence = [START + 86400]
        internet.advance_to(cadence[0])
        expected = [str(r) for r in internet.rib_records(cadence[0])]
        engine = internet.engine
        del engine._view.cone_customers, engine._view.cone_peers
        # What an older build wrote: the whole engine, view included.
        monkeypatch.setattr(
            PropagationEngine, "__getstate__", lambda self: self.__dict__.copy()
        )
        checkpoint.save(internet, cadence)
        monkeypatch.undo()

        clone, _ = checkpoint.restore(ENGINE_WORLD, START, cadence)
        assert clone.engine._view is None
        hits, misses = clone.engine.hits, clone.engine.misses
        assert [str(r) for r in clone.rib_records(cadence[0])] == expected
        assert clone.engine.misses == misses and clone.engine.hits > hits
        # Same graph version and targets: the rebuilt view is the one used.
        clone.engine._cache.clear()
        assert [str(r) for r in clone.rib_records(cadence[0])] == expected
        assert clone.engine.misses > misses

    def test_restore_prefers_longest_prefix(self, tmp_path):
        checkpoint = WorldCheckpoint(tmp_path)
        internet = SimulatedInternet(ENGINE_WORLD, start="2004-01-01")
        cadence = [START + n * 86400 for n in (1, 2, 3)]
        applied = []
        for when in cadence:
            internet.advance_to(when)
            applied.append(when)
            checkpoint.save(internet, applied)
        target = cadence + [START + 30 * 86400]
        restored = checkpoint.restore(ENGINE_WORLD, START, target)
        assert restored is not None
        assert restored[1] == cadence  # the full 3-instant prefix

    def test_corruption_is_a_miss_not_a_crash(self, tmp_path):
        checkpoint = WorldCheckpoint(tmp_path)
        internet = SimulatedInternet(ENGINE_WORLD, start="2004-01-01")
        cadence = [START + 86400]
        internet.advance_to(cadence[0])
        path = checkpoint.save(internet, cadence)
        damaged = bytearray(path.read_bytes())
        damaged[-1] ^= 0xFF
        path.write_bytes(bytes(damaged))
        assert checkpoint.restore(ENGINE_WORLD, START, cadence) is None
        assert not path.exists()  # dropped for a clean rewrite

    def test_cadence_mismatch_is_a_miss(self, tmp_path):
        checkpoint = WorldCheckpoint(tmp_path)
        internet = SimulatedInternet(ENGINE_WORLD, start="2004-01-01")
        cadence = [START + 86400]
        internet.advance_to(cadence[0])
        path = checkpoint.save(internet, cadence)
        # Same file renamed onto a different cadence's slot.
        other = checkpoint.path_for(ENGINE_WORLD, START, [START + 2 * 86400])
        other.parent.mkdir(parents=True, exist_ok=True)
        path.replace(other)
        assert (
            checkpoint.restore(ENGINE_WORLD, START, [START + 2 * 86400])
            is None
        )

    def test_distinct_lineages_do_not_collide(self, tmp_path):
        checkpoint = WorldCheckpoint(tmp_path)
        cadence = [START + 86400]
        assert checkpoint.path_for(ENGINE_WORLD, START, cadence) != (
            checkpoint.path_for(ENGINE_WORLD, START + 60, cadence)
        )


class TestCheckpointedJobExecution:
    @pytest.fixture(scope="class")
    def baseline(self):
        clear_worker_state()
        return [execute_snapshot_job(job) for job in sweep_jobs()]

    def test_sweep_writes_stride_aligned_checkpoints(self, tmp_path,
                                                     baseline):
        jobs = sweep_jobs(tmp_path, stride=2)
        clear_worker_state()
        tracer = Tracer()
        with use_tracer(tracer):
            results = [execute_snapshot_job(job) for job in jobs]
        assert [payload_bytes(r) for r in results] == [
            payload_bytes(r) for r in baseline
        ]
        saves = tracer.counters.get("engine.world_saves", 0)
        files = list(tmp_path.glob("world-*.ckpt"))
        assert saves == len(files) > 0
        # Each file's length token is stride-aligned.
        assert all(int(f.name.split("-")[2]) % 2 == 0 for f in files)

    def test_cold_worker_restores_instead_of_replaying(self, tmp_path,
                                                       baseline):
        jobs = sweep_jobs(tmp_path, stride=2)
        clear_worker_state()
        for job in jobs:
            execute_snapshot_job(job)
        # Fresh "worker": run only the last job; it must restore.
        clear_worker_state()
        tracer = Tracer()
        with use_tracer(tracer):
            redo = execute_snapshot_job(jobs[-1])
        assert payload_bytes(redo) == payload_bytes(baseline[-1])
        assert tracer.counters.get("engine.world_restores") == 1
        assert tracer.counters.get("engine.world_restored_instants", 0) > 0

    def test_empty_checkpoint_dir_counts_a_miss(self, tmp_path, baseline):
        jobs = sweep_jobs(tmp_path / "never-written", stride=2)
        clear_worker_state()
        tracer = Tracer()
        with use_tracer(tracer):
            result = execute_snapshot_job(jobs[-1])
        assert payload_bytes(result) == payload_bytes(baseline[-1])
        assert tracer.counters.get("engine.world_restore_misses") == 1
        assert "engine.world_restores" not in tracer.counters


class TestOutOfOrderGapAdvance:
    """Satellite: out-of-chronological-order job delivery must produce
    value-identical results via the per-process world gap advance."""

    @pytest.fixture(scope="class")
    def chronological(self):
        clear_worker_state()
        return [execute_snapshot_job(job) for job in sweep_jobs()]

    @pytest.mark.parametrize("order", [(2, 1, 0), (1, 2, 0), (2, 0, 1)])
    def test_permuted_delivery_matches(self, order, chronological):
        jobs = sweep_jobs()
        clear_worker_state()
        results = {}
        for index in order:
            results[index] = execute_snapshot_job(jobs[index])
        for index, expected in enumerate(chronological):
            assert payload_bytes(results[index]) == payload_bytes(expected)

    def test_permuted_delivery_with_checkpoints(self, tmp_path,
                                                chronological):
        """Checkpoint restores must respect the same invariant: a
        backwards jump rebuilds (restore included), never rewinds."""
        jobs = sweep_jobs(tmp_path, stride=2)
        clear_worker_state()
        for job in jobs:  # populate the checkpoint directory
            execute_snapshot_job(job)
        clear_worker_state()
        late = execute_snapshot_job(jobs[2])
        early = execute_snapshot_job(jobs[0])
        middle = execute_snapshot_job(jobs[1])
        assert payload_bytes(late) == payload_bytes(chronological[2])
        assert payload_bytes(early) == payload_bytes(chronological[0])
        assert payload_bytes(middle) == payload_bytes(chronological[1])

    def test_stability_suite_out_of_order(self):
        """The 4-instant stability cadence is the dense case: permuted
        quarters still gap-advance to identical suites."""
        jobs = build_jobs(
            ENGINE_WORLD,
            START,
            [(2004, 1, 2004.0), (2005, 1, 2005.0)],
            with_stability=True,
        )
        clear_worker_state()
        expected = [execute_snapshot_job(job) for job in jobs]
        clear_worker_state()
        second = execute_snapshot_job(jobs[1])
        first = execute_snapshot_job(jobs[0])
        assert payload_bytes(second) == payload_bytes(expected[1])
        assert payload_bytes(first) == payload_bytes(expected[0])
