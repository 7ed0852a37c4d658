"""Tests for repro.bgp.attributes."""

import pickle

import pytest

from repro.bgp.attributes import Community, Origin, PathAttributes
from repro.net.aspath import ASPath


class TestCommunity:
    def test_parse_and_format(self):
        community = Community.parse("3257:2990")
        assert community.asn == 3257 and community.value == 2990
        assert str(community) == "3257:2990"

    def test_equality_and_hash(self):
        assert Community(1, 2) == Community(1, 2)
        assert hash(Community(1, 2)) == hash(Community(1, 2))
        assert Community(1, 2) != Community(1, 3)

    def test_ordering(self):
        assert Community(1, 2) < Community(1, 3) < Community(2, 0)

    @pytest.mark.parametrize("asn,value", [(-1, 0), (0, -1), (0, 1 << 16), (1 << 33, 0)])
    def test_rejects_out_of_range(self, asn, value):
        with pytest.raises(ValueError):
            Community(asn, value)

    def test_immutable(self):
        community = Community(1, 2)
        with pytest.raises(AttributeError):
            community.asn = 5

    def test_pickle_round_trip_keeps_hash(self):
        community = Community(3257, 2990)
        clone = pickle.loads(pickle.dumps(community))
        assert clone == community
        assert hash(clone) == hash(community) == hash((3257, 2990))
        assert {community: "tag"}[clone] == "tag"


class TestPathAttributes:
    def test_defaults(self):
        attributes = PathAttributes(ASPath.from_asns([1, 2]))
        assert attributes.med == 0
        assert attributes.local_pref == 100
        assert attributes.origin == Origin.IGP
        assert attributes.communities == frozenset()

    def test_origin_asn(self):
        attributes = PathAttributes(ASPath.from_asns([1, 2, 3]))
        assert attributes.origin_asn == 3

    def test_with_path_preserves_rest(self):
        attributes = PathAttributes(
            ASPath.from_asns([1]), communities=[Community(1, 2)], med=5
        )
        updated = attributes.with_path(ASPath.from_asns([9, 1]))
        assert updated.as_path.peer == 9
        assert updated.med == 5
        assert Community(1, 2) in updated.communities

    def test_with_communities(self):
        attributes = PathAttributes(ASPath.from_asns([1]))
        updated = attributes.with_communities([Community(3, 4)])
        assert updated.community_values() == ("3:4",)

    def test_equality_includes_communities(self):
        base = PathAttributes(ASPath.from_asns([1, 2]))
        tagged = PathAttributes(ASPath.from_asns([1, 2]), communities=[Community(1, 1)])
        assert base != tagged

    def test_hashable(self):
        a = PathAttributes(ASPath.from_asns([1, 2]))
        b = PathAttributes(ASPath.from_asns([1, 2]))
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_immutable(self):
        attributes = PathAttributes(ASPath.from_asns([1]))
        with pytest.raises(AttributeError):
            attributes.med = 10
