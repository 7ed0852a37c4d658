"""Data sanitization (§2.4.2-§2.4.4, A8.3).

The paper's additions to the original methodology, in order:

1. **Abnormal peer removal** — peers whose records show ADD-PATH parsing
   damage, whose paths leak a private ASN at scale, or who flood the
   collector with duplicate prefixes (> 10 %);
2. **AS_SET handling** — expand singleton sets, drop paths with larger
   sets (performed later, inside atom computation);
3. **Full-feed inference** — keep peers sharing > 90 % of the maximum
   unique-prefix count as vantage points;
4. **Prefix filtering** — keep prefixes seen at >= 2 collectors and by
   >= 4 peer ASes, no longer than /24 (IPv4) or /48 (IPv6).

``sanitize`` consumes raw route records and returns a
:class:`CleanDataset`: the snapshot, the vantage points, the filtered
prefix universe, and a :class:`SanitizationReport` documenting every
removal (the repo's analogue of the paper's Table 5).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.messages import RouteRecord
from repro.bgp.rib import PeerId, RIBSnapshot
from repro.core.fullfeed import DEFAULT_FULLFEED_RATIO, full_feed_peers
from repro.net.asn import is_private_asn
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET, AF_INET6, Prefix
from repro.obs import get_tracer

#: Longest prefix kept per family (§2.4.3).
DEFAULT_MAX_LENGTH = {AF_INET: 24, AF_INET6: 48}


@dataclass
class SanitizationConfig:
    """Thresholds of the cleaning pipeline (paper defaults)."""

    fullfeed_ratio: float = DEFAULT_FULLFEED_RATIO
    min_collectors: int = 2
    min_peer_ases: int = 4
    max_prefix_length: Dict[int, int] = field(
        default_factory=lambda: dict(DEFAULT_MAX_LENGTH)
    )
    #: any corrupt record beyond this share flags the peer as ADD-PATH broken
    max_corrupt_record_share: float = 0.02
    #: share of a peer's paths containing a private ASN that flags it
    max_private_asn_share: float = 0.30
    #: share of duplicate prefixes that flags a peer (paper: 10 %)
    max_duplicate_share: float = 0.10
    #: drop prefix-length filtering entirely (2002 replication mode, §3.1.3)
    keep_all_lengths: bool = False


@dataclass
class PeerAudit:
    """Raw per-peer counters collected while scanning records."""

    records: int = 0
    corrupt_records: int = 0
    elements: int = 0
    private_asn_paths: int = 0
    duplicate_elements: int = 0
    unique_prefixes: int = 0


@dataclass
class SanitizationReport:
    """What the pipeline removed, and why."""

    removed_peers: Dict[int, str] = field(default_factory=dict)
    audits: Dict[int, PeerAudit] = field(default_factory=dict)
    fullfeed_peers: int = 0
    partial_peers: int = 0
    prefixes_total: int = 0
    prefixes_kept: int = 0
    prefixes_dropped_visibility: int = 0
    prefixes_dropped_length: int = 0

    def removed_by_reason(self, reason: str) -> List[int]:
        """Peer ASNs removed for one reason, sorted."""
        return sorted(
            asn for asn, why in self.removed_peers.items() if why == reason
        )


@dataclass
class CleanDataset:
    """Sanitized inputs for atom computation."""

    snapshot: RIBSnapshot
    vantage_points: List[PeerId]
    prefixes: Set[Prefix]
    report: SanitizationReport
    config: SanitizationConfig

    @property
    def timestamp(self) -> int:
        return self.snapshot.timestamp


def audit_peers(records: Iterable[RouteRecord]) -> Tuple[Dict[int, PeerAudit], List[RouteRecord]]:
    """Scan records once, collecting per-peer-ASN health counters."""
    audits: Dict[int, PeerAudit] = defaultdict(PeerAudit)
    kept: List[RouteRecord] = []
    seen_prefixes: Dict[Tuple[int, PeerId], Set[Prefix]] = defaultdict(set)
    # Many elements share one path, so its verdict is computed once.
    leaks_by_path: Dict[ASPath, bool] = {}
    for record in records:
        audit = audits[record.peer_asn]
        audit.records += 1
        if record.is_corrupt:
            audit.corrupt_records += 1
        elements = record.elements
        seen = seen_prefixes[(record.peer_asn, record.peer_id)]
        before = len(seen)
        seen.update([element.prefix for element in elements])
        # Every element either adds a new prefix or repeats a seen one.
        audit.elements += len(elements)
        audit.duplicate_elements += len(elements) - (len(seen) - before)
        for element in elements:
            if element.attributes is None:
                continue
            path = element.attributes.as_path
            leaks = leaks_by_path.get(path)
            if leaks is None:
                # The peer's own ASN may be private in odd setups; what
                # flags misconfiguration is a private ASN *inside* the path.
                leaks = leaks_by_path[path] = any(
                    is_private_asn(asn) for asn in path.asns()[1:]
                )
            if leaks:
                audit.private_asn_paths += 1
        kept.append(record)
    for (peer_asn, _), prefixes in seen_prefixes.items():
        audits[peer_asn].unique_prefixes += len(prefixes)
    return dict(audits), kept


def flag_abnormal_peers(
    audits: Dict[int, PeerAudit], config: SanitizationConfig
) -> Dict[int, str]:
    """Decide which peer ASNs to exclude entirely (paper A8.3)."""
    removed: Dict[int, str] = {}
    for peer_asn, audit in audits.items():
        if audit.records and (
            audit.corrupt_records / audit.records > config.max_corrupt_record_share
        ):
            removed[peer_asn] = "addpath"
            continue
        if audit.elements:
            if audit.private_asn_paths / audit.elements > config.max_private_asn_share:
                removed[peer_asn] = "private_asn"
                continue
            if audit.duplicate_elements / audit.elements > config.max_duplicate_share:
                removed[peer_asn] = "duplicates"
    return removed


def filter_prefixes(
    snapshot: RIBSnapshot,
    config: SanitizationConfig,
    report: SanitizationReport,
) -> Set[Prefix]:
    """Apply the visibility and length filters (§2.4.3)."""
    visibility = snapshot.prefix_visibility()
    report.prefixes_total = len(visibility)
    kept: Set[Prefix] = set()
    for prefix, (collectors, peer_ases) in visibility.items():
        if not config.keep_all_lengths:
            limit = config.max_prefix_length.get(prefix.family)
            if limit is not None and prefix.length > limit:
                report.prefixes_dropped_length += 1
                continue
        if (
            len(collectors) < config.min_collectors
            or len(peer_ases) < config.min_peer_ases
        ):
            report.prefixes_dropped_visibility += 1
            continue
        kept.add(prefix)
    report.prefixes_kept = len(kept)
    return kept


def sanitize(
    records: Iterable[RouteRecord],
    config: Optional[SanitizationConfig] = None,
) -> CleanDataset:
    """Run the full cleaning pipeline over raw RIB records."""
    if config is None:
        config = SanitizationConfig()

    tracer = get_tracer()
    with tracer.span("sanitize") as span:
        audits, kept_records = audit_peers(records)
        removed = flag_abnormal_peers(audits, config)

        snapshot = RIBSnapshot.from_records(
            record for record in kept_records if record.peer_asn not in removed
        )

        vantage_points = full_feed_peers(snapshot, config.fullfeed_ratio)

        report = SanitizationReport(removed_peers=removed, audits=audits)
        report.fullfeed_peers = len(vantage_points)
        report.partial_peers = len(snapshot.peers()) - len(vantage_points)

        prefixes = filter_prefixes(snapshot, config, report)

        if tracer.enabled:
            _trace_report(tracer, span, report, audits)

    return CleanDataset(
        snapshot=snapshot,
        vantage_points=vantage_points,
        prefixes=prefixes,
        report=report,
        config=config,
    )


def _trace_report(tracer, span, report: SanitizationReport,
                  audits: Dict[int, PeerAudit]) -> None:
    """Mirror one sanitize pass's report onto the tracer (obs layer)."""
    records = sum(audit.records for audit in audits.values())
    corrupt = sum(audit.corrupt_records for audit in audits.values())
    span.set(
        records=records,
        peers=len(audits),
        removed_peers=len(report.removed_peers),
        fullfeed_peers=report.fullfeed_peers,
        prefixes_kept=report.prefixes_kept,
    )
    tracer.count("sanitize.records", records)
    tracer.count("sanitize.corrupt_records", corrupt)
    tracer.count("sanitize.peers_audited", len(audits))
    for reason in sorted(set(report.removed_peers.values())):
        tracer.count(
            f"sanitize.removed_peers.{reason}",
            len(report.removed_by_reason(reason)),
        )
    tracer.count("sanitize.fullfeed_peers", report.fullfeed_peers)
    tracer.count("sanitize.partial_peers", report.partial_peers)
    tracer.count("sanitize.prefixes_kept", report.prefixes_kept)
    tracer.count(
        "sanitize.prefixes_dropped_length", report.prefixes_dropped_length
    )
    tracer.count(
        "sanitize.prefixes_dropped_visibility",
        report.prefixes_dropped_visibility,
    )
