"""Tests for record serialization."""

import gzip

import pytest
from hypothesis import given, strategies as st

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET, Prefix, PrefixError
from repro.stream import serialize
from repro.stream.serialize import (
    RecordFormatError,
    element_from_dict,
    read_records,
    record_from_json,
    record_to_json,
)


def roundtrip(record):
    return record_from_json(record_to_json(record))


class TestRoundtrip:
    def test_announcement(self):
        record = RouteRecord(
            "update", "ris", "rrc00", 65001, "10.0.0.1", 1234,
            [
                RouteElement(
                    ElementType.ANNOUNCEMENT,
                    Prefix.parse("192.0.2.0/24"),
                    PathAttributes(
                        ASPath.from_asns([65001, 2, 3]),
                        communities=[Community(3257, 2990)],
                        med=10,
                    ),
                )
            ],
        )
        restored = roundtrip(record)
        assert restored.peer_id == record.peer_id
        assert restored.timestamp == record.timestamp
        assert restored.elements == record.elements

    def test_withdrawal(self):
        record = RouteRecord(
            "update", "routeviews", "route-views2", 65001, "10.0.0.1", 1,
            [RouteElement(ElementType.WITHDRAWAL, Prefix.parse("10.0.0.0/8"))],
        )
        restored = roundtrip(record)
        assert restored.elements[0].is_withdrawal
        assert restored.elements[0].attributes is None

    def test_as_set_path(self):
        record = RouteRecord(
            "rib", "ris", "rrc00", 1, "10.0.0.1", 1,
            [
                RouteElement(
                    ElementType.RIB,
                    Prefix.parse("10.0.0.0/8"),
                    PathAttributes(ASPath.parse("1 2 [3 4]")),
                )
            ],
        )
        assert roundtrip(record).elements[0].attributes.as_path.has_set

    def test_corrupt_warning(self):
        record = RouteRecord(
            "rib", "ris", "rrc00", 1, "10.0.0.1", 1, [],
            corrupt_warning="unknown BGP4MP record subtype 9",
        )
        assert roundtrip(record).corrupt_warning == record.corrupt_warning

    def test_ipv6(self):
        record = RouteRecord(
            "rib", "ris", "rrc00", 1, "2001:db8::1", 1,
            [
                RouteElement(
                    ElementType.RIB,
                    Prefix.parse("2001:db8::/32"),
                    PathAttributes(ASPath.from_asns([1, 2])),
                )
            ],
        )
        assert roundtrip(record).elements[0].prefix == Prefix.parse("2001:db8::/32")


prefix_strategy = st.builds(
    Prefix.from_host_bits,
    st.just(AF_INET),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=8, max_value=32),
)
path_strategy = st.builds(
    ASPath.from_asns,
    st.lists(st.integers(min_value=1, max_value=2**32 - 1), min_size=1, max_size=6),
)
element_strategy = st.builds(
    RouteElement,
    st.just(ElementType.ANNOUNCEMENT),
    prefix_strategy,
    st.builds(PathAttributes, path_strategy),
)


@given(st.lists(element_strategy, max_size=8), st.integers(min_value=0, max_value=2**31))
def test_roundtrip_property(elements, timestamp):
    record = RouteRecord(
        "update", "ris", "rrc00", 65001, "10.0.0.1", timestamp, elements
    )
    restored = roundtrip(record)
    assert restored.elements == record.elements
    assert restored.timestamp == timestamp


def bundle_record(timestamp, prefixes, path="65001 2 9", med=0, comm=()):
    attributes = PathAttributes(
        ASPath.parse(path), communities=list(comm), med=med
    )
    return RouteRecord(
        "update", "ris", "rrc00", 65001, "10.0.0.1", timestamp,
        [
            RouteElement(ElementType.ANNOUNCEMENT, Prefix.parse(text), attributes)
            for text in prefixes
        ],
    )


class TestAttributeMemo:
    """Equal attribute bundles decode to one shared object."""

    def write(self, tmp_path, records):
        path = tmp_path / "dump.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for record in records:
                handle.write(record_to_json(record) + "\n")
        return path

    def test_equal_bundles_share_one_object(self, tmp_path):
        records = [
            bundle_record(1, ["10.0.1.0/24", "10.0.2.0/24"]),
            bundle_record(2, ["10.0.3.0/24"]),
            bundle_record(3, ["10.0.4.0/24"], med=7),
            bundle_record(4, ["10.0.5.0/24"], comm=[Community(2, 7)]),
        ]
        decoded = list(read_records(self.write(tmp_path, records)))
        bundles = [e.attributes for r in decoded for e in r.elements]
        assert bundles[0] is bundles[1] is bundles[2]
        assert bundles[3] is not bundles[0] and bundles[3].med == 7
        assert bundles[4] is not bundles[0]
        assert [r.elements for r in decoded] == [r.elements for r in records]

    def test_cap_clears_memo_and_output_is_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serialize, "ATTRIBUTE_MEMO_CAP", 5)
        paths = [f"65001 {asn} 9" for asn in range(10, 17)]
        records = [
            bundle_record(index, [f"10.0.{index}.0/24"], path=paths[index % 7])
            for index in range(28)
        ]
        memo = {}
        sizes = []
        for record in records:
            restored = record_from_json(record_to_json(record), memo)
            assert restored.elements == record.elements
            sizes.append(len(memo))
        assert max(sizes) <= 5
        # cleared, then refilled
        assert any(after < before for before, after in zip(sizes, sizes[1:]))
        decoded = list(read_records(self.write(tmp_path, records)))
        assert [r.elements for r in decoded] == [r.elements for r in records]

    def test_hit_still_validates_prefix_and_type(self):
        memo = {}
        element_from_dict({"t": "A", "p": "10.0.0.0/8", "path": "1 2"}, memo)
        filled = dict(memo)
        with pytest.raises(PrefixError):
            element_from_dict({"t": "A", "p": "999.0.0.0/8", "path": "1 2"}, memo)
        with pytest.raises(ValueError):
            element_from_dict({"t": "?", "p": "10.0.0.0/8", "path": "1 2"}, memo)
        assert memo == filled  # both were memo hits

    def test_decoded_bundle_is_immutable(self):
        memo = {}
        element = element_from_dict(
            {"t": "A", "p": "10.0.0.0/8", "path": "1 2"}, memo
        )
        with pytest.raises(AttributeError):
            element.attributes.med = 5


class TestReadRecords:
    @pytest.mark.parametrize(
        "line", ["{}", "[1]", '{"type": "rib"}', "5"]
    )
    def test_wrong_shape_line_is_a_record_format_error(self, tmp_path, line):
        path = tmp_path / "dump.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(RecordFormatError, match="line 1"):
            list(read_records(path))
