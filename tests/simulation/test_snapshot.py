"""Tests for snapshot rendering and artifact injection."""

import pickle

import pytest

from repro.bgp.rib import RIBSnapshot
from repro.net.prefix import AF_INET6, Prefix
from repro.simulation.artifacts import LEAKED_PRIVATE_ASN
from repro.simulation.scenario import SimulatedInternet
from tests.conftest import TEST_WORLD


class TestRecordStructure:
    def test_records_are_rib_type(self, records_2004):
        assert records_2004
        assert all(record.record_type == "rib" for record in records_2004)

    def test_every_peer_contributes(self, internet_2004, records_2004):
        peers_in_records = {record.peer_id for record in records_2004}
        layout_peers = {peer.peer_id for peer in internet_2004.world.layout.peers}
        # Stuck-route phantom records reuse real peer ids, so records
        # cannot contain unknown peers.
        assert peers_in_records <= layout_peers
        full_feed = {
            peer.peer_id
            for peer in internet_2004.world.layout.peers
            if peer.full_feed
        }
        assert full_feed <= peers_in_records

    def test_paths_start_with_peer_asn(self, records_2004):
        for record in records_2004[:20]:
            for element in record.elements:
                assert element.attributes.as_path.peer == record.peer_asn

    def test_partial_peers_see_fewer_prefixes(self, internet_2024, records_2024):
        snapshot = RIBSnapshot.from_records(records_2024)
        counts = snapshot.prefix_count_by_peer()
        layout = {p.peer_id: p for p in internet_2024.world.layout.peers}
        full_counts = [c for pid, c in counts.items() if layout[pid].full_feed]
        partial_counts = [
            c for pid, c in counts.items() if not layout[pid].full_feed
        ]
        assert partial_counts, "expected partial peers in 2024"
        assert max(partial_counts) < 0.9 * max(full_counts)

    def test_family_separation(self, internet_2024):
        v6_records = list(internet_2024.rib_records("2024-10-15 08:00", family=AF_INET6))
        assert v6_records
        for record in v6_records[:10]:
            for element in record.elements:
                assert element.prefix.family == AF_INET6


class TestArtifacts:
    @pytest.fixture(scope="class")
    def artifact_world(self):
        # 2021: ADD-PATH and private-ASN windows are active (A8.3).
        sim = SimulatedInternet(TEST_WORLD, start="2021-01-15 08:00")
        records = list(sim.rib_records("2021-01-15 08:00"))
        return sim, records

    def test_addpath_warnings_present(self, artifact_world):
        sim, records = artifact_world
        flagged = {
            p.asn for p in sim.world.layout.peers
            if p.artifact == "addpath" and p.artifact_active(sim.current_time)
        }
        if not flagged:
            pytest.skip("no addpath peer active in this window")
        corrupt = [r for r in records if r.is_corrupt]
        assert corrupt
        assert {r.peer_asn for r in corrupt} <= flagged

    def test_private_asn_leak(self, artifact_world):
        sim, records = artifact_world
        leakers = {
            p.asn for p in sim.world.layout.peers
            if p.artifact == "private_asn" and p.artifact_active(sim.current_time)
        }
        if not leakers:
            pytest.skip("no private-asn peer active in this window")
        found = 0
        for record in records:
            if record.peer_asn in leakers:
                for element in record.elements:
                    if element.attributes.as_path.contains_asn(LEAKED_PRIVATE_ASN):
                        found += 1
        assert found > 0

    def test_duplicate_feeder(self, artifact_world):
        sim, records = artifact_world
        dup_peers = {
            p.asn for p in sim.world.layout.peers
            if p.artifact == "duplicates" and p.artifact_active(sim.current_time)
        }
        if not dup_peers:
            pytest.skip("no duplicates peer active")
        for asn in dup_peers:
            seen, dupes = set(), 0
            for record in records:
                if record.peer_asn != asn:
                    continue
                for element in record.elements:
                    if element.prefix in seen:
                        dupes += 1
                    seen.add(element.prefix)
            assert dupes / max(1, len(seen)) > 0.10

    def test_stuck_routes_single_collector(self, internet_2004, records_2004):
        shared_space = Prefix.parse("100.64.0.0/10")
        by_prefix = {}
        for record in records_2004:
            for element in record.elements:
                if shared_space.contains(element.prefix):
                    by_prefix.setdefault(element.prefix, set()).add(record.collector)
        for collectors in by_prefix.values():
            assert len(collectors) == 1

    def test_as_set_paths_present(self, records_2024):
        with_sets = 0
        total = 0
        for record in records_2024:
            for element in record.elements:
                total += 1
                if element.attributes.as_path.has_set:
                    with_sets += 1
        assert with_sets > 0
        assert with_sets / total < 0.02  # paper: well under 1-2 %


class TestDeterminism:
    def test_same_seed_same_records(self):
        first = SimulatedInternet(TEST_WORLD, start="2004-01-15 08:00")
        second = SimulatedInternet(TEST_WORLD, start="2004-01-15 08:00")
        records_a = list(first.rib_records("2004-01-15 08:00"))
        records_b = list(second.rib_records("2004-01-15 08:00"))
        assert len(records_a) == len(records_b)
        for left, right in zip(records_a, records_b):
            assert left.peer_id == right.peer_id
            assert left.elements == right.elements


#: A world with private-ASN, ADD-PATH and duplicate artifacts active,
#: rendered within a quarter and then across one.
RENDER_INSTANTS = ("2021-01-15 08:00", "2021-01-15 16:00", "2021-04-15 08:00")


def record_fields(record):
    """Every field of a record, elements included."""
    return record.__reduce__()[1]


class TestBundleMemo:
    @pytest.fixture(scope="class")
    def consecutive(self):
        """Renders of one world at each instant, plus what they see."""
        sim = SimulatedInternet(TEST_WORLD, start=RENDER_INSTANTS[0])
        renders = []
        for when in RENDER_INSTANTS:
            records = list(sim.rib_records(when))
            mutating = {
                peer.asn
                for peer in sim.world.layout.peers
                if peer.artifact in ("private_asn", "addpath")
                and peer.artifact_active(sim.current_time)
            }
            renders.append((records, mutating, set(sim.world.as_set_origins)))
        return renders

    def test_consecutive_renders_equal_fresh_worlds(self, consecutive):
        for index, when in enumerate(RENDER_INSTANTS):
            fresh = SimulatedInternet(TEST_WORLD, start=RENDER_INSTANTS[0])
            # Same advance cadence, but no earlier render on this world.
            for earlier in RENDER_INSTANTS[:index]:
                fresh.advance_to(earlier)
            expected = list(fresh.rib_records(when))
            records = consecutive[index][0]
            assert len(records) == len(expected)
            for ours, theirs in zip(records, expected):
                assert record_fields(ours) == record_fields(theirs)

    def test_unchanged_triples_share_one_bundle(self, consecutive):
        def bundles(records, mutating, as_set_origins):
            found = {}
            for record in records:
                if record.peer_asn in mutating:
                    continue
                for element in record.elements:
                    attributes = element.attributes
                    path = attributes.as_path
                    if path.origin in as_set_origins or path.has_set:
                        continue
                    key = (record.peer_asn, path, attributes.communities)
                    # Within one render a triple has exactly one bundle.
                    assert found.setdefault(key, attributes) is attributes
            return found

        shared = 0
        previous = bundles(*consecutive[0])
        for render in consecutive[1:]:
            current = bundles(*render)
            for key, attributes in current.items():
                if key in previous:
                    assert attributes is previous[key]
                    shared += 1
            previous = current
        assert shared

    def test_world_checkpoints_leave_the_memo_out(self):
        sim = SimulatedInternet(TEST_WORLD, start="2004-01-15 08:00")
        records = list(sim.rib_records("2004-01-15 08:00"))
        assert "_bundles" not in sim.__getstate__()
        clone = pickle.loads(pickle.dumps(sim))
        again = list(clone.rib_records("2004-01-15 08:00"))
        assert [record_fields(r) for r in again] == [
            record_fields(r) for r in records
        ]
