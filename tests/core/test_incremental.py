"""Tests for incremental atom maintenance (repro.core.incremental)."""

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.core.atoms import compute_atoms
from repro.core.incremental import AtomIndex, PathInternPool
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.util.determinism import derive_rng

PEERS = [("rrc00", 1, "10.9.1.1"), ("rrc00", 2, "10.9.2.1"),
         ("rrc01", 3, "10.9.3.1")]


def rib_record(peer, entries, timestamp=100):
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


def update_record(peer, announced=(), withdrawn=(), timestamp=200):
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


def assert_identical(index, snapshot, vantage_points):
    """Incremental result must match from-scratch computation exactly:
    same atoms in the same order, same prefix sets, same path vectors."""
    expected = compute_atoms(snapshot, vantage_points=vantage_points)
    actual = index.atoms()
    assert len(actual) == len(expected)
    for ours, theirs in zip(actual.atoms, expected.atoms):
        assert ours.atom_id == theirs.atom_id
        assert ours.prefixes == theirs.prefixes
        assert ours.paths == theirs.paths
    assert actual.vantage_points == expected.vantage_points


def base_snapshot():
    snapshot = RIBSnapshot()
    snapshot.apply_record(rib_record(PEERS[0], [
        ("10.0.1.0/24", "1 5 9"), ("10.0.2.0/24", "1 5 9"),
        ("10.0.3.0/24", "1 6 8"),
    ]))
    snapshot.apply_record(rib_record(PEERS[1], [
        ("10.0.1.0/24", "2 5 9"), ("10.0.2.0/24", "2 5 9"),
        ("10.0.3.0/24", "2 6 8"),
    ]))
    snapshot.apply_record(rib_record(PEERS[2], [
        ("10.0.1.0/24", "3 5 9"), ("10.0.2.0/24", "3 5 9"),
    ]))
    return snapshot


class TestAtomIndexBasics:
    def test_initial_build_matches_batch(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        assert_identical(index, snapshot, PEERS)

    def test_announcement_moves_prefix_between_atoms(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        index.atoms()
        before = index.stats.key_recomputations
        # 10.0.2.0/24 diverges at peer 2: splits off the shared atom.
        snapshot.apply_record(update_record(PEERS[1], announced=[
            ("10.0.2.0/24", "2 7 9"),
        ]))
        assert index.dirty_count == 1
        assert_identical(index, snapshot, PEERS)
        assert index.stats.key_recomputations == before + 1

    def test_withdrawal_everywhere_removes_prefix(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        for peer in PEERS:
            snapshot.apply_record(
                update_record(peer, withdrawn=["10.0.1.0/24"])
            )
        assert_identical(index, snapshot, PEERS)
        assert Prefix.parse("10.0.1.0/24") not in index.atoms().by_prefix

    def test_new_prefix_enters_dynamic_universe(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        snapshot.apply_record(update_record(PEERS[0], announced=[
            ("10.0.9.0/24", "1 4 7"),
        ]))
        assert_identical(index, snapshot, PEERS)
        assert Prefix.parse("10.0.9.0/24") in index.atoms().by_prefix

    def test_mutations_at_non_vp_peers_ignored(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS[:2])
        snapshot.apply_record(update_record(PEERS[2], announced=[
            ("10.0.1.0/24", "3 9 9"),
        ]))
        assert index.dirty_count == 0
        assert_identical(index, snapshot, PEERS[:2])

    def test_pool_option_mismatch_rejected(self):
        snapshot = base_snapshot()
        pool = PathInternPool(strip_prepending=True)
        with pytest.raises(ValueError):
            AtomIndex(snapshot, vantage_points=PEERS, pool=pool)


class TestInternPool:
    def test_equal_paths_share_one_instance(self):
        pool = PathInternPool()
        a = pool.path(ASPath.parse("1 5 {7} 9"))
        b = pool.path(ASPath.parse("1 5 {7} 9"))
        assert a is b
        assert a == ASPath.parse("1 5 7 9")

    def test_distinct_raws_same_normal_form_interned(self):
        pool = PathInternPool()
        a = pool.path(ASPath.parse("1 5 {7} 9"))
        b = pool.path(ASPath.parse("1 5 7 9"))
        assert a is b

    def test_multi_set_paths_drop_to_none(self):
        pool = PathInternPool()
        assert pool.path(ASPath.parse("1 {5, 6} 9")) is None

    def test_vectors_interned(self):
        pool = PathInternPool()
        p = pool.path(ASPath.parse("1 5 9"))
        assert pool.vector((p, None)) is pool.vector((p, None))


class TestRandomizedChurn:
    """Property-style: the index equals from-scratch computation after
    every step of a long randomized update stream."""

    PREFIX_POOL = [f"10.{i}.0.0/16" for i in range(24)]
    PATH_TAILS = [[5, 9], [6, 9], [5, 8], [7, 7, 7], [4, 2]]

    def _random_update(self, rng, step):
        peer = rng.choice(PEERS)
        prefix = rng.choice(self.PREFIX_POOL)
        if rng.random() < 0.3:
            return update_record(peer, withdrawn=[prefix], timestamp=200 + step)
        tail = rng.choice(self.PATH_TAILS)
        path = " ".join(str(asn) for asn in [peer[1]] + tail)
        return update_record(
            peer, announced=[(prefix, path)], timestamp=200 + step
        )

    def test_index_tracks_100_plus_updates(self):
        rng = derive_rng(20260806, "incremental-churn")
        snapshot = RIBSnapshot()
        for peer in PEERS:
            snapshot.apply_record(rib_record(peer, [
                (text, f"{peer[1]} 5 9") for text in self.PREFIX_POOL[:12]
            ]))
        index = AtomIndex(snapshot, vantage_points=PEERS)
        assert_identical(index, snapshot, PEERS)
        for step in range(120):
            snapshot.apply_record(self._random_update(rng, step))
            assert_identical(index, snapshot, PEERS)

    def test_batched_refresh_matches_too(self):
        """Refreshing once after many updates is also exact."""
        rng = derive_rng(20260806, "incremental-churn-batched")
        snapshot = RIBSnapshot()
        for peer in PEERS:
            snapshot.apply_record(rib_record(peer, [
                (text, f"{peer[1]} 6 8") for text in self.PREFIX_POOL
            ]))
        index = AtomIndex(snapshot, vantage_points=PEERS)
        for step in range(150):
            snapshot.apply_record(self._random_update(rng, step))
        assert_identical(index, snapshot, PEERS)

    def test_fewer_recomputations_than_full_rebuilds(self):
        """The economy claim: per-step key recomputations stay bounded
        by the churn, far below the prefix count."""
        rng = derive_rng(20260806, "incremental-churn-economy")
        snapshot = RIBSnapshot()
        for peer in PEERS:
            snapshot.apply_record(rib_record(peer, [
                (text, f"{peer[1]} 5 9") for text in self.PREFIX_POOL
            ]))
        index = AtomIndex(snapshot, vantage_points=PEERS)
        index.atoms()
        base = index.stats.key_recomputations
        steps = 100
        for step in range(steps):
            snapshot.apply_record(self._random_update(rng, step))
            index.atoms()
        per_step = (index.stats.key_recomputations - base) / steps
        # Each update touches exactly one prefix here, so incremental
        # work is ~1 key/step vs len(PREFIX_POOL) for a rebuild.
        assert per_step <= 2
        assert per_step * 3 <= len(self.PREFIX_POOL)


class TestDirtySetEconomy:
    """dirty_marked counts unique prefixes, never mutation events.

    The live pipeline reports per-window dirty-set economy straight
    from :class:`IncrementalStats`; a prefix flapping ten times inside
    one window is *one* unit of pending work, and the stats must say
    so (regression: dirty_marked used to grow per mutation event).
    """

    def test_repeat_mutations_of_one_prefix_count_once(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        assert index.stats.dirty_marked == 0
        for flap in range(10):
            snapshot.apply_record(update_record(
                PEERS[0],
                announced=[("10.0.1.0/24", f"1 {4 + flap % 2} 9")],
                timestamp=200 + flap,
            ))
        assert index.dirty_count == 1
        assert index.stats.dirty_marked == 1
        assert index.refresh() == 1
        assert index.stats.dirty_sizes == [1]
        assert_identical(index, snapshot, PEERS)

    def test_distinct_prefixes_still_count_individually(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        snapshot.apply_record(update_record(
            PEERS[0], announced=[("10.0.1.0/24", "1 7 9")]
        ))
        snapshot.apply_record(update_record(
            PEERS[1], announced=[("10.0.1.0/24", "2 7 9"),
                                 ("10.0.2.0/24", "2 7 9")]
        ))
        assert index.stats.dirty_marked == 2
        assert index.refresh() == 2

    def test_refresh_clears_then_counts_anew(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        snapshot.apply_record(update_record(
            PEERS[0], announced=[("10.0.1.0/24", "1 7 9")]
        ))
        index.refresh()
        snapshot.apply_record(update_record(
            PEERS[0], announced=[("10.0.1.0/24", "1 8 9")]
        ))
        assert index.stats.dirty_marked == 2
        assert index.refresh() == 1
        assert index.stats.dirty_sizes == [1, 1]
        assert_identical(index, snapshot, PEERS)


def by_origin_ids(atom_set):
    """atoms_by_origin() as origin -> atom ids, in dict order."""
    return [
        (origin, [atom.atom_id for atom in atoms])
        for origin, atoms in atom_set.atoms_by_origin().items()
    ]


class TestExtractionMemos:
    """The per-group origin and first-prefix memos behind atoms().

    Every step of the churn below changes group membership in one way
    — a split, a merge, a MOAS origin appearing, a group deleted, a
    group re-created from a vector seen before, a group losing its
    smallest prefix — and atoms() must still equal a cold
    compute_atoms, origins included, while neither memo holds more
    entries than there are live groups.
    """

    P = ["10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.0.0.0/24"]

    def check(self, index, snapshot):
        assert len(index._origins) <= len(index)
        assert len(index._first_keys) <= len(index)
        expected = compute_atoms(snapshot, vantage_points=PEERS)
        actual = index.atoms()
        assert len(actual) == len(expected)
        for ours, theirs in zip(actual.atoms, expected.atoms):
            assert ours.atom_id == theirs.atom_id
            assert ours.prefixes == theirs.prefixes
            assert ours.paths == theirs.paths
            assert ours.origins() == theirs.origins()
            assert list(ours.origins()) == list(theirs.origins())
        assert by_origin_ids(actual) == by_origin_ids(expected)
        assert len(index._origins) == len(index)
        assert len(index._first_keys) == len(index)

    def test_memos_follow_splits_merges_deletes_and_recreation(self):
        snapshot = base_snapshot()
        index = AtomIndex(snapshot, vantage_points=PEERS)
        self.check(index, snapshot)
        steps = [
            # split: 10.0.2.0/24 leaves the shared atom
            update_record(PEERS[0], announced=[(self.P[1], "1 7 9")]),
            # merge: it rejoins
            update_record(PEERS[0], announced=[(self.P[1], "1 5 9")]),
            # MOAS: a second origin for 10.0.1.0/24 (splits it off)
            update_record(PEERS[1], announced=[(self.P[0], "2 5 77")]),
            # the shared atom's smallest prefix now belongs elsewhere;
            # a new, smaller prefix joins 10.0.3.0/24's vector
            update_record(PEERS[0], announced=[(self.P[3], "1 6 8")]),
            update_record(PEERS[1], announced=[(self.P[3], "2 6 8")]),
            # delete the group of 10.0.3.0/24 and 10.0.0.0/24
            update_record(PEERS[0], withdrawn=[self.P[2], self.P[3]]),
            update_record(PEERS[1], withdrawn=[self.P[2], self.P[3]]),
            # re-create it from the vector seen before
            update_record(PEERS[0], announced=[(self.P[2], "1 6 8")]),
            update_record(PEERS[1], announced=[(self.P[2], "2 6 8")]),
            # undo the MOAS split: back to one shared atom
            update_record(PEERS[1], announced=[(self.P[0], "2 5 9")]),
        ]
        for record in steps:
            snapshot.apply_record(record)
            index.refresh()
            assert len(index._origins) <= len(index)
            assert len(index._first_keys) <= len(index)
            self.check(index, snapshot)

    def test_memos_stay_bounded_under_random_churn(self):
        rng = derive_rng(20261018, "incremental-memo-churn")
        prefixes = [f"10.{i}.0.0/16" for i in range(16)]
        tails = [[5, 9], [6, 9], [5, 77], [7, 7, 7], [4, 2]]
        snapshot = RIBSnapshot()
        for peer in PEERS:
            snapshot.apply_record(rib_record(peer, [
                (text, f"{peer[1]} 5 9") for text in prefixes[:8]
            ]))
        index = AtomIndex(snapshot, vantage_points=PEERS)
        for step in range(150):
            peer = rng.choice(PEERS)
            prefix = rng.choice(prefixes)
            if rng.random() < 0.35:
                record = update_record(peer, withdrawn=[prefix], timestamp=200 + step)
            else:
                tail = " ".join(str(asn) for asn in rng.choice(tails))
                record = update_record(
                    peer, announced=[(prefix, f"{peer[1]} {tail}")],
                    timestamp=200 + step,
                )
            snapshot.apply_record(record)
            if step % 3 == 0:
                self.check(index, snapshot)
