"""Tests for the MRT (RFC 6396) reader/writer."""

import io
import struct

import pytest

from repro.bgp.attributes import Community, PathAttributes
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET6, Prefix
from repro.stream import serialize
from repro.stream.mrt import (
    BGP4MP_MESSAGE_AS4,
    MRT_BGP4MP,
    MRT_TABLE_DUMP_V2,
    TDV2_PEER_INDEX_TABLE,
    TDV2_RIB_IPV4_UNICAST,
    MRTError,
    MRTWriter,
    _decode_as_path,
    _decode_attributes,
    _decode_nlri,
    _encode_nlri,
    read_mrt,
)


def attrs(asns, communities=(), med=0):
    return PathAttributes(
        ASPath.from_asns(list(asns)), communities=communities, med=med
    )


def roundtrip(write):
    buffer = io.BytesIO()
    writer = MRTWriter(buffer)
    write(writer)
    buffer.seek(0)
    return list(read_mrt(buffer, project="ris", collector="rrc00"))


class TestNlriCodec:
    @pytest.mark.parametrize(
        "text", ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.128/25", "203.0.113.7/32"]
    )
    def test_v4_roundtrip(self, text):
        prefix = Prefix.parse(text)
        decoded, offset = _decode_nlri(_encode_nlri(prefix), 0, prefix.family)
        assert decoded == prefix
        assert offset == len(_encode_nlri(prefix))

    @pytest.mark.parametrize("text", ["2001:db8::/32", "::/0", "2001:db8::1/128"])
    def test_v6_roundtrip(self, text):
        prefix = Prefix.parse(text)
        decoded, _ = _decode_nlri(_encode_nlri(prefix), 0, prefix.family)
        assert decoded == prefix

    def test_truncated_rejected(self):
        with pytest.raises(MRTError):
            _decode_nlri(bytes([24, 10]), 0, 4)  # /24 needs 3 bytes


class TestTableDumpV2:
    def test_rib_roundtrip(self):
        path_a = attrs([65001, 3257, 65010], communities=[Community(3257, 2990)])
        path_b = attrs([65002, 1299, 65010], med=50)

        def write(writer):
            writer.write_peer_index(
                [(65001, "10.0.0.1"), (65002, "10.0.0.2")], timestamp=100
            )
            writer.write_rib_entry(
                Prefix.parse("192.0.2.0/24"),
                [(65001, "10.0.0.1", path_a), (65002, "10.0.0.2", path_b)],
                timestamp=100,
            )

        records = roundtrip(write)
        assert len(records) == 2
        first, second = records
        assert first.record_type == "rib"
        assert first.peer_asn == 65001 and first.peer_address == "10.0.0.1"
        element = first.elements[0]
        assert element.prefix == Prefix.parse("192.0.2.0/24")
        assert element.attributes.as_path == ASPath.from_asns([65001, 3257, 65010])
        assert Community(3257, 2990) in element.attributes.communities
        assert second.elements[0].attributes.med == 50

    def test_v6_rib(self):
        def write(writer):
            writer.write_peer_index([(65001, "10.0.0.1")])
            writer.write_rib_entry(
                Prefix.parse("2001:db8::/32"),
                [(65001, "10.0.0.1", attrs([65001, 9]))],
            )

        records = roundtrip(write)
        assert records[0].elements[0].prefix.family == AF_INET6

    def test_rib_before_index_fails(self):
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_peer_index([(65001, "10.0.0.1")])
        writer.write_rib_entry(
            Prefix.parse("10.0.0.0/8"), [(65001, "10.0.0.1", attrs([65001, 9]))]
        )
        data = buffer.getvalue()
        # Drop the index record: reader must reject the dangling entry.
        header = data[:12]
        import struct

        length = struct.unpack(">IHHI", header)[3]
        stripped = io.BytesIO(data[12 + length:])
        with pytest.raises(MRTError):
            list(read_mrt(stripped))


class TestAttributeInterning:
    """Equal attribute blocks decode to one shared PathAttributes."""

    def test_identical_rib_entries_share_one_object(self):
        bundle = attrs([65001, 3257, 65010], communities=[Community(3257, 2990)])

        def write(writer):
            writer.write_peer_index(
                [(65001, "10.0.0.1"), (65002, "10.0.0.2")], timestamp=100
            )
            for text in ("192.0.2.0/24", "198.51.100.0/24"):
                writer.write_rib_entry(
                    Prefix.parse(text),
                    [(65001, "10.0.0.1", bundle), (65002, "10.0.0.2", bundle)],
                    timestamp=100,
                )
            writer.write_rib_entry(
                Prefix.parse("203.0.113.0/24"),
                [(65001, "10.0.0.1", attrs([65001, 3257, 65010]))],
                timestamp=100,
            )

        records = roundtrip(write)
        decoded = [record.elements[0].attributes for record in records]
        assert len(decoded) == 5
        assert all(attributes is decoded[0] for attributes in decoded[:4])
        assert decoded[0] == bundle
        # Different bytes (no community) decode to their own object.
        assert decoded[4] is not decoded[0]
        assert decoded[4] == attrs([65001, 3257, 65010])

    def test_identical_updates_share_one_object(self):
        bundle = attrs([65001, 2, 9], med=5)

        def write(writer):
            for index in range(3):
                writer.write_update(
                    65001, "10.0.0.1",
                    announced=[(Prefix.parse(f"10.{index}.0.0/16"), bundle)],
                    withdrawn=[], timestamp=1000 + index,
                )

        records = roundtrip(write)
        decoded = [record.elements[0].attributes for record in records]
        assert decoded[0] is decoded[1] is decoded[2]
        assert decoded[0] == bundle

    def test_memo_keyed_by_asn_width(self):
        block = MRTWriter(io.BytesIO())._encode_update_attributes(
            attrs([1, 2]), asn_size=2
        )
        memo = {}
        narrow, _, _, _ = _decode_attributes(block, 2, memo)
        assert narrow.as_path == ASPath.from_asns([1, 2])
        assert _decode_attributes(block, 2, memo)[0] is narrow
        # The same bytes read as 4-byte ASNs are too short: the 2-byte
        # decode held in the memo must not answer for them.
        with pytest.raises(MRTError):
            _decode_attributes(block, 4, memo)
        assert len(memo) == 1

    def test_mp_nlri_blocks_are_not_memoised(self):
        buffer = io.BytesIO()
        MRTWriter(buffer).write_update(
            65001, "10.0.0.1",
            announced=[(Prefix.parse("2001:db8::/32"), attrs([65001, 9]))],
            withdrawn=[],
        )
        block = _attribute_block(buffer.getvalue())
        memo = {}
        for _ in range(2):
            attributes, announced, _, _ = _decode_attributes(block, 4, memo)
            assert announced == [Prefix.parse("2001:db8::/32")]
            assert attributes.as_path == ASPath.from_asns([65001, 9])
        assert memo == {}

    def test_memo_cleared_at_cap(self, monkeypatch):
        monkeypatch.setattr(serialize, "ATTRIBUTE_MEMO_CAP", 2)
        writer = MRTWriter(io.BytesIO())
        blocks = [
            writer._encode_update_attributes(attrs([65001, asn]))
            for asn in range(10, 15)
        ]
        memo = {}
        sizes = []
        for block in blocks + blocks:
            attributes, _, _, _ = _decode_attributes(block, 4, memo)
            assert attributes == _decode_attributes(block, 4)[0]
            sizes.append(len(memo))
        assert max(sizes) == 2
        assert 1 in sizes[1:]  # the memo was cleared and refilled


def _attribute_block(data):
    """The path-attribute block of a single BGP4MP_MESSAGE_AS4 record."""
    body = data[12:]
    offset = 4 + 4 + 2 + 2 + 4 + 4  # peer/local AS, ifindex, AFI, addresses
    offset += 16 + 2 + 1  # marker, length, type
    withdrawn = struct.unpack_from(">H", body, offset)[0]
    offset += 2 + withdrawn
    length = struct.unpack_from(">H", body, offset)[0]
    return body[offset + 2 : offset + 2 + length]


class TestBgp4mp:
    def test_update_roundtrip(self):
        bundle = attrs([65001, 2, 9], communities=[Community(2, 7)])

        def write(writer):
            writer.write_update(
                65001,
                "10.0.0.1",
                announced=[
                    (Prefix.parse("10.1.0.0/16"), bundle),
                    (Prefix.parse("10.2.0.0/16"), bundle),
                ],
                withdrawn=[Prefix.parse("10.3.0.0/16")],
                timestamp=1234,
            )

        records = roundtrip(write)
        assert len(records) == 1
        record = records[0]
        assert record.record_type == "update"
        assert record.timestamp == 1234
        announced = record.announced_prefixes()
        assert announced == {Prefix.parse("10.1.0.0/16"), Prefix.parse("10.2.0.0/16")}
        withdrawals = [e for e in record.elements if e.is_withdrawal]
        assert [e.prefix for e in withdrawals] == [Prefix.parse("10.3.0.0/16")]
        kept = [e for e in record.elements if not e.is_withdrawal][0]
        assert kept.attributes.as_path == bundle.as_path

    def test_v6_update_uses_mp_reach(self):
        bundle = attrs([65001, 9])

        def write(writer):
            writer.write_update(
                65001,
                "10.0.0.1",
                announced=[(Prefix.parse("2001:db8::/32"), bundle)],
                withdrawn=[Prefix.parse("2001:db9::/32")],
            )

        records = roundtrip(write)
        prefixes = {str(e.prefix) for e in records[0].elements}
        assert prefixes == {"2001:db8::/32", "2001:db9::/32"}

    def test_pure_withdrawal(self):
        def write(writer):
            writer.write_update(
                65001, "10.0.0.1", announced=[],
                withdrawn=[Prefix.parse("10.0.0.0/8")],
            )

        records = roundtrip(write)
        assert records[0].elements[0].is_withdrawal


class TestRobustness:
    def test_unknown_type_flagged_not_dropped(self):
        import struct

        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHI", 7, 99, 1, 0))
        buffer.seek(0)
        records = list(read_mrt(buffer))
        assert len(records) == 1
        assert records[0].is_corrupt
        assert "unknown MRT record type 99/1" in records[0].corrupt_warning

    def test_truncated_body(self):
        import struct

        buffer = io.BytesIO(struct.pack(">IHHI", 7, 13, 2, 100) + b"\x00" * 10)
        with pytest.raises(MRTError):
            list(read_mrt(buffer))

    def test_empty_stream(self):
        assert list(read_mrt(io.BytesIO())) == []

    @pytest.mark.parametrize(
        "body",
        [
            bytes([2, 1, 0, 0, 0, 0]),  # AS_SEQUENCE holding ASN 0
            bytes([2, 0]),  # AS_SEQUENCE with no ASNs
        ],
        ids=["asn-zero", "empty-segment"],
    )
    def test_invalid_as_path_segment_is_mrt_error(self, body):
        with pytest.raises(MRTError, match="invalid AS_PATH segment"):
            _decode_as_path(body, 4)


def mrt_record(mrt_type, subtype, body, timestamp=7):
    return struct.pack(">IHHI", timestamp, mrt_type, subtype, len(body)) + body


class TestShortBodiesAreMRTError:
    """Short fixed-layout fields raise MRTError, never struct.error or
    IndexError."""

    @pytest.mark.parametrize(
        "block",
        [
            bytes([0x80, 14, 1, 0]),  # MP_REACH_NLRI, 1-byte body
            bytes([0x80, 14, 2, 0, 2]),  # MP_REACH_NLRI, no next-hop length
            bytes([0x80, 15, 1, 0]),  # MP_UNREACH_NLRI, 1-byte body
            bytes([0x80, 14, 5, 0, 2, 1, 16, 0]),  # next hop past the body
        ],
        ids=["mp-reach-1", "mp-reach-2", "mp-unreach-1", "mp-reach-next-hop"],
    )
    def test_short_mp_attribute(self, block):
        with pytest.raises(MRTError):
            _decode_attributes(block, 4)

    def test_oversized_nlri_length(self):
        with pytest.raises(MRTError, match="exceeds 32"):
            _decode_nlri(bytes([33, 10, 0, 0, 0, 0]), 0, 4)

    def test_update_with_short_mp_reach_is_counted_corrupt(self):
        attrs_block = bytes([0x80, 14, 1, 0])
        message = (
            b"\xff" * 16
            + (19 + 2 + 2 + len(attrs_block)).to_bytes(2, "big")
            + bytes([2])  # UPDATE
            + (0).to_bytes(2, "big")  # no withdrawn routes
            + len(attrs_block).to_bytes(2, "big")
            + attrs_block
        )
        body = (
            (65001).to_bytes(4, "big") + (65000).to_bytes(4, "big")
            + (0).to_bytes(2, "big") + (1).to_bytes(2, "big")  # ifindex, AFI
            + bytes([10, 0, 0, 1]) + bytes([10, 0, 0, 2])
            + message
        )
        stream = io.BytesIO(mrt_record(MRT_BGP4MP, BGP4MP_MESSAGE_AS4, body))
        records = list(read_mrt(stream))
        assert len(records) == 1
        assert records[0].is_corrupt
        assert "MP_REACH_NLRI" in records[0].corrupt_warning
        assert records[0].peer_asn == 65001

    def test_five_byte_peer_index(self):
        stream = io.BytesIO(
            mrt_record(MRT_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE, bytes(5))
        )
        with pytest.raises(MRTError, match="PEER_INDEX_TABLE"):
            list(read_mrt(stream))

    def test_peer_entry_cut_short(self):
        body = bytes(4) + (0).to_bytes(2, "big") + (1).to_bytes(2, "big")
        body += bytes([0x02]) + bytes(4) + bytes([10, 0])  # address cut
        stream = io.BytesIO(
            mrt_record(MRT_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE, body)
        )
        with pytest.raises(MRTError, match="peer entry"):
            list(read_mrt(stream))

    def test_rib_entry_header_cut_short(self):
        buffer = io.BytesIO()
        MRTWriter(buffer).write_peer_index([(65001, "10.0.0.1")])
        body = bytes(4) + _encode_nlri(Prefix.parse("10.0.0.0/8"))
        body += (1).to_bytes(2, "big") + bytes(3)  # 3 of 8 header bytes
        buffer.write(mrt_record(MRT_TABLE_DUMP_V2, TDV2_RIB_IPV4_UNICAST, body))
        buffer.seek(0)
        with pytest.raises(MRTError, match="RIB entry header"):
            list(read_mrt(buffer))

    def test_rib_entry_attributes_cut_short(self):
        buffer = io.BytesIO()
        MRTWriter(buffer).write_peer_index([(65001, "10.0.0.1")])
        body = bytes(4) + _encode_nlri(Prefix.parse("10.0.0.0/8"))
        body += (1).to_bytes(2, "big") + bytes(6) + (40).to_bytes(2, "big")
        buffer.write(mrt_record(MRT_TABLE_DUMP_V2, TDV2_RIB_IPV4_UNICAST, body))
        buffer.seek(0)
        with pytest.raises(MRTError, match="RIB entry attributes"):
            list(read_mrt(buffer))


class TestPipelineIntegration:
    def test_mrt_feeds_atom_computation(self):
        """MRT records drive the sanitize -> atoms pipeline directly."""
        from repro.core.atoms import compute_atoms
        from repro.bgp.rib import RIBSnapshot

        def write(writer):
            writer.write_peer_index([(11, "10.0.0.1"), (12, "10.0.0.2")])
            for text in ("10.1.0.0/16", "10.2.0.0/16"):
                writer.write_rib_entry(
                    Prefix.parse(text),
                    [
                        (11, "10.0.0.1", attrs([11, 7, 9])),
                        (12, "10.0.0.2", attrs([12, 8, 9])),
                    ],
                )
            writer.write_rib_entry(
                Prefix.parse("10.3.0.0/16"),
                [
                    (11, "10.0.0.1", attrs([11, 7, 9])),
                    (12, "10.0.0.2", attrs([12, 5, 9])),  # diverges at peer 12
                ],
            )

        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        write(writer)
        buffer.seek(0)
        snapshot = RIBSnapshot.from_records(read_mrt(buffer, collector="rrc00"))
        atoms = compute_atoms(snapshot)
        assert len(atoms) == 2
        sizes = sorted(atom.size for atom in atoms)
        assert sizes == [1, 2]


class TestAs4Path:
    """RFC 6793: 2-byte MESSAGE records with AS_TRANS + AS4_PATH."""

    def test_legacy_update_roundtrips_4byte_asns(self):
        # 196615 needs 4 bytes: a 2-byte session carries AS_TRANS in
        # AS_PATH and the true path in AS4_PATH.
        bundle = attrs([65001, 196615, 394254])

        def write(writer):
            writer.write_update(
                65001, "10.0.0.1",
                announced=[(Prefix.parse("10.1.0.0/16"), bundle)],
                as4=False,
            )

        records = roundtrip(write)
        assert len(records) == 1
        record = records[0]
        assert not record.is_corrupt
        element = record.elements[0]
        # Without the merge, AS_TRANS (23456) would remain in the path
        # and split atoms spuriously.
        assert element.attributes.as_path == ASPath.from_asns(
            [65001, 196615, 394254]
        )
        assert not element.attributes.as_path.contains_asn(23456)

    def test_legacy_update_without_4byte_asns_has_no_as4_path(self):
        from repro.stream.mrt import ATTR_AS4_PATH, MRTWriter

        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        bundle = attrs([65001, 3257, 9002])
        writer.write_update(
            65001, "10.0.0.1",
            announced=[(Prefix.parse("10.1.0.0/16"), bundle)],
            as4=False,
        )
        # No ASN needs 4 bytes, so no AS4_PATH attribute is emitted and
        # the plain 2-byte path round-trips unchanged.
        data = buffer.getvalue()
        assert bytes([0xC0, ATTR_AS4_PATH]) not in data
        buffer.seek(0)
        records = list(read_mrt(buffer))
        assert records[0].elements[0].attributes.as_path == bundle.as_path

    def test_longer_as_path_keeps_leading_hops(self):
        from repro.net.aspath import merge_as4_path

        # A 2-byte speaker prepended itself after AS4_PATH was attached:
        # the merged path keeps the excess leading AS_PATH hop.
        as_path = ASPath.from_asns([64499, 23456, 23456])
        as4_path = ASPath.from_asns([196615, 196616])
        merged = merge_as4_path(as_path, as4_path)
        assert merged == ASPath.from_asns([64499, 196615, 196616])

    def test_malformed_longer_as4_path_ignored(self):
        from repro.net.aspath import merge_as4_path

        as_path = ASPath.from_asns([64499, 23456])
        as4_path = ASPath.from_asns([1, 2, 3])
        assert merge_as4_path(as_path, as4_path) == as_path


class TestBgp4mpValidation:
    """Damaged BGP4MP records are flagged, never misparsed."""

    def _valid_update_bytes(self):
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_update(
            65001, "10.0.0.1",
            announced=[(Prefix.parse("10.1.0.0/16"), attrs([65001, 9]))],
            timestamp=7,
        )
        return bytearray(buffer.getvalue())

    def test_bad_marker_flagged(self):
        import struct

        data = self._valid_update_bytes()
        header_len = 12
        # BGP4MP_MESSAGE_AS4 peer header: 4+4 ASNs, 2 ifindex, 2 AFI,
        # 4+4 addresses = 20 bytes; the marker starts right after.
        marker_offset = header_len + 20
        assert data[marker_offset] == 0xFF
        data[marker_offset] = 0x00
        records = list(read_mrt(io.BytesIO(bytes(data))))
        assert len(records) == 1
        assert records[0].is_corrupt
        assert "marker" in records[0].corrupt_warning
        assert records[0].peer_asn == 65001
        assert records[0].elements == ()

    def test_declared_length_beyond_record_flagged(self):
        data = self._valid_update_bytes()
        length_offset = 12 + 20 + 16
        data[length_offset : length_offset + 2] = (999).to_bytes(2, "big")
        records = list(read_mrt(io.BytesIO(bytes(data))))
        assert records[0].is_corrupt
        assert "length" in records[0].corrupt_warning

    def test_truncated_message_body_flagged(self):
        import struct

        data = self._valid_update_bytes()
        # Chop the last 6 bytes of the UPDATE and fix up the MRT length
        # so only the BGP-level declared length disagrees.
        chopped = data[:-6]
        mrt_len = len(chopped) - 12
        chopped[8:12] = mrt_len.to_bytes(4, "big")
        records = list(read_mrt(io.BytesIO(bytes(chopped))))
        assert len(records) == 1
        assert records[0].is_corrupt

    def test_truncated_peer_header_flagged(self):
        import struct

        buffer = io.BytesIO(struct.pack(">IHHI", 7, 16, 4, 3) + b"\x00\x00\x00")
        records = list(read_mrt(buffer))
        assert records[0].is_corrupt
        assert "peer header" in records[0].corrupt_warning

    def test_corrupt_records_feed_sanitizer_signal(self):
        """The flagged records carry the signal sanitize() keys on."""
        from repro.core.sanitize import SanitizationConfig, audit_peers, flag_abnormal_peers

        data = self._valid_update_bytes()
        marker_offset = 12 + 20
        data[marker_offset] = 0x00
        records = list(read_mrt(io.BytesIO(bytes(data))))
        audits, _ = audit_peers(records)
        removed = flag_abnormal_peers(audits, SanitizationConfig())
        assert removed == {65001: "addpath"}


class TestIPv6PureWithdrawal:
    """MP_UNREACH_NLRI-only UPDATEs (no AS_PATH at all) must flow
    through read_mrt -> RIBSnapshot.apply_record and remove routes."""

    def test_withdrawal_reaches_rib(self):
        from repro.bgp.rib import RIBSnapshot

        prefix = Prefix.parse("2001:db8::/32")
        bundle = attrs([65001, 9])

        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_update(
            65001, "10.0.0.1", announced=[(prefix, bundle)], timestamp=10
        )
        writer.write_update(
            65001, "10.0.0.1", announced=[], withdrawn=[prefix], timestamp=20
        )
        buffer.seek(0)
        records = list(read_mrt(buffer, collector="rrc00"))
        assert len(records) == 2
        pure = records[1]
        assert not pure.is_corrupt
        assert [e.is_withdrawal for e in pure.elements] == [True]
        assert pure.elements[0].attributes is None

        snapshot = RIBSnapshot()
        snapshot.apply_record(records[0])
        table = snapshot.table(records[0].peer_id)
        assert table is not None and prefix in table
        snapshot.apply_record(pure)
        assert prefix not in table
        assert snapshot.timestamp == 20

    def test_withdrawal_only_no_other_attributes(self):
        # The attribute block holds exactly one attribute: MP_UNREACH.
        prefix = Prefix.parse("2001:db8:7::/48")
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_update(65001, "10.0.0.1", announced=[], withdrawn=[prefix])
        buffer.seek(0)
        records = list(read_mrt(buffer))
        assert len(records) == 1
        assert {str(e.prefix) for e in records[0].elements} == {str(prefix)}
        assert all(e.is_withdrawal for e in records[0].elements)
