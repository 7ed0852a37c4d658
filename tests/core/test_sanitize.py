"""Tests for the sanitization pipeline on synthetic records."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.core.sanitize import (
    PeerAudit,
    SanitizationConfig,
    audit_peers,
    flag_abnormal_peers,
    sanitize,
)
from repro.net.asn import is_private_asn
from repro.net.aspath import ASPath, PathSegment, SegmentType
from repro.net.prefix import Prefix


def rib_elements(paths_by_prefix):
    return [
        RouteElement(
            ElementType.RIB,
            Prefix.parse(prefix),
            PathAttributes(ASPath.parse(path)),
        )
        for prefix, path in paths_by_prefix.items()
    ]


def record(collector, peer_asn, elements, warning=""):
    return RouteRecord(
        "rib", "ris", collector, peer_asn, f"10.0.{peer_asn % 250}.1", 100,
        elements, corrupt_warning=warning,
    )


def healthy_base(n_peers=5, n_collectors=2, n_prefixes=6):
    """Records from healthy full-feed peers across collectors."""
    records = []
    prefixes = {f"10.{i}.0.0/16": None for i in range(n_prefixes)}
    for peer in range(1, n_peers + 1):
        collector = f"rrc{peer % n_collectors:02d}"
        entries = {p: f"{peer} 77 99" for p in prefixes}
        records.append(record(collector, peer, rib_elements(entries)))
    return records


class TestPeerAudit:
    def test_counts_duplicates(self):
        elements = rib_elements({"10.0.0.0/16": "1 9"}) * 3
        audits, _ = audit_peers([record("rrc00", 1, elements)])
        assert audits[1].duplicate_elements == 2
        assert audits[1].unique_prefixes == 1

    def test_counts_corrupt_records(self):
        audits, _ = audit_peers(
            [record("rrc00", 1, [], warning="Invalid MP(UN)REACH NLRI")]
        )
        assert audits[1].corrupt_records == 1

    def test_counts_private_asn_paths(self):
        audits, _ = audit_peers(
            [record("rrc00", 1, rib_elements({"10.0.0.0/16": "1 65000 9"}))]
        )
        assert audits[1].private_asn_paths == 1

    def test_private_peer_asn_itself_not_counted(self):
        # A private *peer* ASN is odd but not the misconfiguration the
        # paper targets; only private ASNs inside the path count.
        audits, _ = audit_peers(
            [record("rrc00", 65001, rib_elements({"10.0.0.0/16": "65001 7 9"}))]
        )
        assert audits[65001].private_asn_paths == 0


def naive_audit(records):
    """Per-element reference for :func:`audit_peers`'s counters."""
    audits = {}
    seen = {}
    for rec in records:
        audit = audits.setdefault(rec.peer_asn, PeerAudit())
        audit.records += 1
        if rec.is_corrupt:
            audit.corrupt_records += 1
        feed = seen.setdefault((rec.peer_asn, rec.peer_id), set())
        for element in rec.elements:
            audit.elements += 1
            if element.prefix in feed:
                audit.duplicate_elements += 1
            else:
                feed.add(element.prefix)
            if element.attributes is not None and any(
                is_private_asn(asn) for asn in element.attributes.as_path.asns()[1:]
            ):
                audit.private_asn_paths += 1
    for (peer_asn, _), prefixes in seen.items():
        audits[peer_asn].unique_prefixes += len(prefixes)
    return audits


#: 65001 is a private *peer* ASN; 65000 and 4200000001 are private hops.
AUDIT_PEERS = (1, 2, 65001)
AUDIT_HOPS = (7, 9, 77, 65000, 4200000001)
AUDIT_PREFIXES = tuple(Prefix.parse(f"10.{i}.0.0/16") for i in range(5))


@st.composite
def audited_records(draw):
    """Records with duplicates, shared and equal-but-distinct paths,
    withdrawals, AS_SETs, corrupt records, and one peer ASN on two
    collectors."""
    shared = {}
    records = []
    for _ in range(draw(st.integers(0, 6))):
        peer_asn = draw(st.sampled_from(AUDIT_PEERS))
        collector = draw(st.sampled_from(("rrc00", "rrc01")))
        elements = []
        for _ in range(draw(st.integers(0, 8))):
            prefix = draw(st.sampled_from(AUDIT_PREFIXES))
            if draw(st.integers(0, 4)) == 0:
                elements.append(RouteElement(ElementType.WITHDRAWAL, prefix))
                continue
            hops = tuple(draw(st.lists(st.sampled_from(AUDIT_HOPS), max_size=3)))
            as_set = bool(hops) and draw(st.booleans())
            key = (peer_asn, hops, as_set)
            if as_set:
                path = ASPath([
                    PathSegment(SegmentType.AS_SEQUENCE, [peer_asn]),
                    PathSegment(SegmentType.AS_SET, hops),
                ])
            else:
                path = ASPath.from_asns((peer_asn,) + hops)
            if draw(st.booleans()):
                attributes = shared.setdefault(key, PathAttributes(path))
            else:
                attributes = PathAttributes(path)
            kind = draw(st.sampled_from([ElementType.RIB, ElementType.ANNOUNCEMENT]))
            elements.append(RouteElement(kind, prefix, attributes))
        warning = draw(st.sampled_from(["", "", "Duplicate Path Attribute"]))
        records.append(record(collector, peer_asn, elements, warning=warning))
    return records


class TestAuditMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(audited_records())
    def test_every_counter_matches_per_element_reference(self, records):
        audits, kept = audit_peers(records)
        assert audits == naive_audit(records)
        assert kept == records

    def test_duplicates_within_and_across_records(self):
        first = rib_elements({"10.0.0.0/16": "1 9", "10.1.0.0/16": "1 9"})
        second = rib_elements({"10.0.0.0/16": "1 9"}) * 2
        records = [record("rrc00", 1, first), record("rrc00", 1, second),
                   record("rrc01", 1, second)]
        audits, _ = audit_peers(records)
        assert audits == naive_audit(records)
        # rrc00 repeats 10.0/16 twice; rrc01 is a separate feed.
        assert audits[1].duplicate_elements == 3
        assert audits[1].unique_prefixes == 3


class TestFlagging:
    def test_addpath_peer_removed(self):
        records = healthy_base()
        bad = [
            record("rrc00", 99, rib_elements({"10.0.0.0/16": "99 77 99"}),
                   warning="unknown BGP4MP record subtype 9")
        ]
        dataset = sanitize(records + bad)
        assert dataset.report.removed_peers.get(99) == "addpath"

    def test_private_asn_peer_removed(self):
        records = healthy_base()
        entries = {f"10.{i}.0.0/16": "99 65000 77 9" for i in range(6)}
        dataset = sanitize(records + [record("rrc00", 99, rib_elements(entries))])
        assert dataset.report.removed_peers.get(99) == "private_asn"

    def test_duplicate_peer_removed(self):
        records = healthy_base()
        elements = rib_elements({f"10.{i}.0.0/16": "99 7 9" for i in range(6)})
        dataset = sanitize(records + [record("rrc00", 99, elements + elements)])
        assert dataset.report.removed_peers.get(99) == "duplicates"

    def test_healthy_peers_kept(self):
        dataset = sanitize(healthy_base())
        assert not dataset.report.removed_peers
        assert dataset.report.fullfeed_peers == 5

    def test_occasional_private_asn_tolerated(self):
        audits, _ = audit_peers(
            [
                record(
                    "rrc00", 1,
                    rib_elements(
                        {
                            "10.0.0.0/16": "1 65000 9",
                            "10.1.0.0/16": "1 7 9",
                            "10.2.0.0/16": "1 7 9",
                            "10.3.0.0/16": "1 7 9",
                        }
                    ),
                )
            ]
        )
        removed = flag_abnormal_peers(audits, SanitizationConfig())
        assert 1 not in removed


class TestFullFeed:
    def test_partial_peer_not_a_vantage_point(self):
        records = healthy_base(n_prefixes=10)
        partial = record("rrc00", 50, rib_elements({"10.0.0.0/16": "50 77 99"}))
        dataset = sanitize(records + [partial])
        vantage_asns = {asn for _, asn, _ in dataset.vantage_points}
        assert 50 not in vantage_asns
        assert dataset.report.partial_peers == 1


class TestPrefixFilter:
    def test_visibility_thresholds(self):
        records = healthy_base(n_peers=5, n_collectors=2)
        # A prefix seen by a single peer at a single collector.
        lonely = record("rrc00", 1, rib_elements({"192.0.2.0/24": "1 9"}))
        dataset = sanitize(records + [lonely])
        assert Prefix.parse("192.0.2.0/24") not in dataset.prefixes
        assert dataset.report.prefixes_dropped_visibility >= 1

    def test_single_collector_prefix_dropped(self):
        records = healthy_base(n_peers=6, n_collectors=3)
        # Seen by four peers but only at one collector: the paper's
        # "stuck route / misconfigured collector" case.
        extra = [
            record("rrc00", 70 + i, rib_elements({"192.0.2.0/24": f"{70+i} 9"}))
            for i in range(4)
        ]
        dataset = sanitize(records + extra)
        assert Prefix.parse("192.0.2.0/24") not in dataset.prefixes

    def test_length_filter(self):
        records = healthy_base()
        for peer in range(1, 6):
            collector = f"rrc{peer % 2:02d}"
            records.append(
                record(collector, peer, rib_elements({"10.99.0.0/28": f"{peer} 9"}))
            )
        dataset = sanitize(records)
        assert Prefix.parse("10.99.0.0/28") not in dataset.prefixes
        assert dataset.report.prefixes_dropped_length >= 1

    def test_v6_length_filter_is_48(self):
        records = healthy_base()
        for peer in range(1, 6):
            collector = f"rrc{peer % 2:02d}"
            records.append(
                record(
                    collector, peer,
                    rib_elements(
                        {"2001:db8::/48": f"{peer} 9", "2001:db9::/56": f"{peer} 9"}
                    ),
                )
            )
        dataset = sanitize(records)
        assert Prefix.parse("2001:db8::/48") in dataset.prefixes
        assert Prefix.parse("2001:db9::/56") not in dataset.prefixes

    def test_keep_all_lengths_mode(self):
        # The 2002 replication (§3.1.3) keeps every prefix length.
        records = healthy_base()
        for peer in range(1, 6):
            collector = f"rrc{peer % 2:02d}"
            records.append(
                record(collector, peer, rib_elements({"10.99.0.0/28": f"{peer} 9"}))
            )
        config = SanitizationConfig(keep_all_lengths=True)
        dataset = sanitize(records, config)
        assert Prefix.parse("10.99.0.0/28") in dataset.prefixes

    def test_report_accounting(self):
        dataset = sanitize(healthy_base())
        report = dataset.report
        assert report.prefixes_kept == len(dataset.prefixes)
        assert (
            report.prefixes_total
            == report.prefixes_kept
            + report.prefixes_dropped_visibility
            + report.prefixes_dropped_length
        )


class TestEndToEnd:
    def test_sanitize_simulated_2021(self):
        """Artifact peers injected by the simulator must be caught."""
        from repro.simulation.scenario import SimulatedInternet
        from tests.conftest import TEST_WORLD

        sim = SimulatedInternet(TEST_WORLD, start="2021-01-15 08:00")
        active = {
            p.asn: p.artifact
            for p in sim.world.layout.peers
            if p.artifact_active(sim.current_time)
        }
        if not active:
            pytest.skip("no artifacts active at this instant")
        dataset = sanitize(sim.rib_records("2021-01-15 08:00"))
        for asn, artifact in active.items():
            if artifact in ("addpath", "private_asn", "duplicates"):
                assert asn in dataset.report.removed_peers, (
                    f"expected AS{asn} ({artifact}) to be removed"
                )
