"""Tests for the streaming atom-maintenance pipeline (repro.stream.live).

The simulator's update streams never change paths or withdraw routes,
so every stream here is hand-crafted: announcements that move prefixes
between atoms, withdrawals, out-of-order arrivals, and new prefixes —
the churn the incremental machinery exists for.
"""

import threading

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.core.atoms import compute_atoms
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.store import AtomStore
from repro.obs import Tracer, use_tracer
from repro.stream.live import LiveConfig, LiveError, LivePipeline

PEERS = [("rrc00", 1, "10.9.1.1"), ("rrc00", 2, "10.9.2.1"),
         ("rrc01", 3, "10.9.3.1")]

#: window width used throughout; timestamps below are chosen against it
W = 100


def rib_record(peer, entries, timestamp=50):
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


def update_record(peer, timestamp, announced=(), withdrawn=()):
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


def prime_records():
    """Three full-feed peers over six prefixes, two initial atoms."""
    return [
        rib_record(PEERS[0], [
            ("10.0.1.0/24", "1 5 9"), ("10.0.2.0/24", "1 5 9"),
            ("10.0.3.0/24", "1 6 8"), ("10.0.4.0/24", "1 6 8"),
            ("10.0.5.0/24", "1 5 9"), ("10.0.6.0/24", "1 6 8"),
        ]),
        rib_record(PEERS[1], [
            ("10.0.1.0/24", "2 5 9"), ("10.0.2.0/24", "2 5 9"),
            ("10.0.3.0/24", "2 6 8"), ("10.0.4.0/24", "2 6 8"),
            ("10.0.5.0/24", "2 5 9"), ("10.0.6.0/24", "2 6 8"),
        ]),
        rib_record(PEERS[2], [
            ("10.0.1.0/24", "3 5 9"), ("10.0.2.0/24", "3 5 9"),
            ("10.0.3.0/24", "3 6 8"), ("10.0.4.0/24", "3 6 8"),
            ("10.0.5.0/24", "3 5 9"), ("10.0.6.0/24", "3 6 8"),
        ]),
    ]


def churny_updates():
    """Three windows of genuine churn: path moves, withdrawals, births.

    Window 1 ([100, 200)): 10.0.2.0/24 changes path at peer 0 —
    splits it out of its atom.  Window 2 ([200, 300)): a brand-new
    prefix appears at every peer, and 10.0.4.0/24 is withdrawn at
    peer 1 (partial withdrawal: still visible elsewhere, new atom).
    Window 3 ([300, 400)): 10.0.1.0/24 withdrawn everywhere — the
    prefix leaves the partition entirely.
    """
    return [
        update_record(PEERS[0], 110, announced=[("10.0.2.0/24", "1 7 9")]),
        update_record(PEERS[1], 150, announced=[("10.0.5.0/24", "2 5 9")]),
        update_record(PEERS[0], 210, announced=[("10.0.9.0/24", "1 4 2")]),
        update_record(PEERS[1], 220, announced=[("10.0.9.0/24", "2 4 2")]),
        update_record(PEERS[2], 230, announced=[("10.0.9.0/24", "3 4 2")]),
        update_record(PEERS[1], 240, withdrawn=["10.0.4.0/24"]),
        update_record(PEERS[0], 310, withdrawn=["10.0.1.0/24"]),
        update_record(PEERS[1], 320, withdrawn=["10.0.1.0/24"]),
        update_record(PEERS[2], 330, withdrawn=["10.0.1.0/24"]),
    ]


def full_stream():
    return prime_records() + churny_updates()


def cold_atoms(records, vantage_points=None):
    """compute_atoms over the whole stream applied to a fresh RIB."""
    snapshot = RIBSnapshot()
    for record in records:
        snapshot.apply_record(record)
    if vantage_points is None:
        vantage_points = sorted(
            {r.peer_id for r in records if r.record_type == "rib"}
        )
    return compute_atoms(snapshot, vantage_points=vantage_points)


def assert_atoms_equal(ours, theirs):
    assert len(ours) == len(theirs)
    assert list(ours.vantage_points) == list(theirs.vantage_points)
    for mine, other in zip(ours.atoms, theirs.atoms):
        assert mine.atom_id == other.atom_id
        assert mine.prefixes == other.prefixes
        assert tuple(mine.paths) == tuple(other.paths)


class TestLiveConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LiveConfig(window_seconds=0)
        with pytest.raises(ValueError):
            LiveConfig(checkpoint_every=0)
        with pytest.raises(ValueError):
            LiveConfig(parity="sometimes")

    def test_payload_excludes_shard_count(self):
        # Checkpoints written while shard count was a knob (never part
        # of the payload) must keep resuming: the key set is frozen.
        payload = LiveConfig().payload()
        assert set(payload) == {
            "window_seconds", "family",
            "expand_singleton_sets", "strip_prepending",
        }
        assert payload["window_seconds"] == 900


class TestLivePipeline:
    def test_windows_close_with_parity(self):
        run = LivePipeline(
            full_stream(), LiveConfig(window_seconds=W)
        ).run()
        assert [w.index for w in run.windows] == [1, 2, 3]
        assert run.parity_checks == 3
        assert run.prime_records == 3
        # window 1: two announcements, one a genuine path change
        assert run.windows[0].announcements == 2
        assert run.windows[0].key_changes >= 1
        # window 2: new prefix is born, partial withdrawal splits an atom
        assert run.windows[1].withdrawals == 1
        assert run.windows[1].created >= 1
        # window 3: 10.0.1.0/24 disappears from the partition
        assert run.windows[2].withdrawals == 3
        assert run.windows[1].prefixes == 7
        assert run.windows[2].prefixes == 6

    def test_final_atoms_match_cold_compute(self):
        stream = full_stream()
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.atoms is not None
        assert_atoms_equal(run.atoms, cold_atoms(stream))

    def test_prime_only_stream_still_yields_atoms(self):
        run = LivePipeline(prime_records(), LiveConfig(window_seconds=W)).run()
        assert run.windows == []
        assert run.atoms is not None
        assert_atoms_equal(run.atoms, cold_atoms(prime_records()))

    def test_no_dump_and_no_vps_is_an_error(self):
        with pytest.raises(LiveError, match="no leading RIB dump"):
            LivePipeline(churny_updates(), LiveConfig(window_seconds=W)).run()

    def test_explicit_vantage_points_without_dump(self):
        vps = [PEERS[0], PEERS[1]]
        stream = churny_updates()
        run = LivePipeline(
            stream, LiveConfig(window_seconds=W), vantage_points=vps
        ).run()
        assert run.vantage_points == vps
        assert run.atoms is not None
        expected = cold_atoms(
            [r for r in stream if r.peer_id in set(vps)], vantage_points=vps
        )
        assert_atoms_equal(run.atoms, expected)

    def test_foreign_peer_records_are_skipped(self):
        stranger = ("rrc09", 99, "10.9.9.9")
        stream = full_stream()
        stream.insert(5, update_record(
            stranger, 115, announced=[("10.0.2.0/24", "99 5 9")]
        ))
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.records == len(churny_updates())
        assert stranger not in run.vantage_points
        assert_atoms_equal(run.atoms, cold_atoms(full_stream()))

    def test_max_windows_stops_early(self):
        run = LivePipeline(
            full_stream(), LiveConfig(window_seconds=W, max_windows=2)
        ).run()
        assert len(run.windows) == 2
        assert run.stopped_early

    def test_withdrawal_for_never_announced_prefix_is_harmless(self):
        stream = full_stream()
        stream.insert(4, update_record(
            PEERS[0], 120, withdrawn=["172.16.0.0/16"]
        ))
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.parity_checks == 3
        assert_atoms_equal(run.atoms, cold_atoms(full_stream()))

    def test_on_window_sees_every_boundary(self):
        seen = []
        LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run(
            on_window=seen.append
        )
        assert [w.index for w in seen] == [1, 2, 3]

    def test_worker_failure_surfaces_as_live_error(self):
        element = RouteElement(
            ElementType.ANNOUNCEMENT, Prefix.parse("10.0.2.0/24"),
            PathAttributes(ASPath.parse("1 7 9")),
        )
        # Poison the attribute bundle so the key recomputation blows up
        # at the next window boundary's refresh.
        object.__setattr__(element, "attributes", object())
        collector, peer_asn, peer_address = PEERS[0]
        bad = RouteRecord(
            "update", "ris", collector, peer_asn, peer_address, 130, [element]
        )
        stream = prime_records() + [
            update_record(PEERS[0], 110, announced=[("10.0.2.0/24", "1 7 9")]),
            bad,
            update_record(PEERS[0], 210, announced=[("10.0.3.0/24", "1 7 9")]),
        ]
        seen = []
        with pytest.raises(AttributeError):
            LivePipeline(stream, LiveConfig(window_seconds=W)).run(
                on_window=seen.append
            )
        assert seen == []

    def test_refresh_nests_under_window_span_on_calling_thread(self):
        threads = threading.active_count()
        counts = []
        tracer = Tracer()
        with use_tracer(tracer):
            LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run(
                on_window=lambda _: counts.append(threading.active_count())
            )
        assert counts == [threads] * 3
        windows = {s.span_id for s in tracer.spans if s.name == "live-window"}
        refreshes = [s for s in tracer.spans if s.name == "atoms-refresh"]
        assert len(windows) == 3
        assert sorted(s.parent_id for s in refreshes[1:]) == sorted(windows)


class TestCheckpointResume:
    def _reference(self):
        return LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run()

    def _assert_resumes_like_reference(self, killed, resumed):
        reference = self._reference()
        indices = [w.index for w in killed.windows] + [
            w.index for w in resumed.windows
        ]
        assert indices == [w.index for w in reference.windows]
        combined = killed.windows + resumed.windows
        for ours, theirs in zip(combined, reference.windows):
            assert ours.as_dict(deterministic_only=True) == theirs.as_dict(
                deterministic_only=True
            )
        assert_atoms_equal(resumed.atoms, reference.atoms)

    def test_kill_and_resume_matches_uninterrupted_run(self, tmp_path):
        config = LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "ckpt", max_windows=2
        )
        killed = LivePipeline(full_stream(), config).run()
        assert killed.stopped_early and killed.checkpoints >= 2

        resume = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "ckpt")
        resumed = LivePipeline(full_stream(), resume).run()
        assert resumed.resumed and resumed.resumed_from == 2
        assert resumed.skipped > 0
        self._assert_resumes_like_reference(killed, resumed)

    def test_kill_via_on_window_exception(self, tmp_path):
        class Kill(Exception):
            pass

        config = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c")

        def bomb(window):
            if window.index == 1:
                raise Kill()

        with pytest.raises(Kill):
            LivePipeline(full_stream(), config).run(on_window=bomb)

        resumed = LivePipeline(full_stream(), config).run()
        assert resumed.resumed and resumed.resumed_from == 1
        assert [w.index for w in resumed.windows] == [2, 3]
        assert_atoms_equal(resumed.atoms, self._reference().atoms)

    def test_resuming_a_finished_stream_is_a_noop(self, tmp_path):
        config = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c")
        finished = LivePipeline(full_stream(), config).run()
        again = LivePipeline(full_stream(), config).run()
        assert again.resumed and again.windows == []
        assert again.skipped == finished.records + finished.prime_records
        assert_atoms_equal(again.atoms, finished.atoms)

    def test_explicit_vps_must_match_checkpoint(self, tmp_path):
        config = LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=1
        )
        LivePipeline(full_stream(), config).run()
        resume = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c")
        with pytest.raises(LiveError, match="disagree"):
            LivePipeline(
                full_stream(), resume, vantage_points=[PEERS[0]]
            ).run()


class TestStoreSink:
    def test_window_snapshots_land_in_a_queryable_store(self, tmp_path):
        store_dir = tmp_path / "store"
        config = LiveConfig(window_seconds=W, store_dir=store_dir)
        run = LivePipeline(full_stream(), config).run()
        assert run.store_keys == ["w00000001", "w00000002", "w00000003"]
        with AtomStore(store_dir) as store:
            keys = [entry.key for entry in store.snapshots()]
            assert keys == run.store_keys
            for window, key in zip(run.windows, run.store_keys):
                atoms = store.atoms(key)
                assert len(atoms) == window.atoms
                assert atoms.prefix_count() == window.prefixes
            assert_atoms_equal(store.atoms(run.store_keys[-1]), run.atoms)

    def test_resume_appends_to_existing_store(self, tmp_path):
        store_dir = tmp_path / "store"
        first = LiveConfig(
            window_seconds=W, store_dir=store_dir,
            checkpoint_dir=tmp_path / "c", max_windows=2,
        )
        LivePipeline(full_stream(), first).run()
        second = LiveConfig(
            window_seconds=W, store_dir=store_dir,
            checkpoint_dir=tmp_path / "c",
        )
        resumed = LivePipeline(full_stream(), second).run()
        assert resumed.store_keys == [
            "w00000001", "w00000002", "w00000003"
        ]
        with AtomStore(store_dir) as store:
            assert [e.key for e in store.snapshots()] == resumed.store_keys

    def test_periodic_merge_cadence(self, tmp_path):
        store_dir = tmp_path / "store"
        config = LiveConfig(
            window_seconds=W, store_dir=store_dir, store_merge_every=1
        )
        run = LivePipeline(full_stream(), config).run()
        with AtomStore(store_dir) as store:
            assert len(store.snapshots()) == len(run.windows)
