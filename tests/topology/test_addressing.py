"""Tests for address allocation."""

import random

import pytest

from repro.net.prefix import AF_INET, AF_INET6, Prefix, PrefixError
from repro.topology.addressing import (
    AddressAllocator,
    AddressSpaceExhausted,
    carve_prefixes,
)


class TestAllocator:
    def test_sequential_disjoint(self):
        allocator = AddressAllocator(AF_INET)
        blocks = [allocator.allocate_block(16) for _ in range(10)]
        for i, left in enumerate(blocks):
            for right in blocks[i + 1 :]:
                assert not left.overlaps(right)

    def test_alignment_after_mixed_sizes(self):
        allocator = AddressAllocator(AF_INET)
        small = allocator.allocate_block(24)
        big = allocator.allocate_block(8)
        assert big.network % (1 << 24) == 0
        assert not small.overlaps(big)

    def test_v6_space(self):
        allocator = AddressAllocator(AF_INET6)
        block = allocator.allocate_block(32)
        assert block.family == AF_INET6
        assert Prefix.parse("2000::/3").contains(block)

    def test_exhaustion(self):
        allocator = AddressAllocator(AF_INET)
        with pytest.raises(AddressSpaceExhausted):
            for _ in range(300):
                allocator.allocate_block(8)

    def test_remaining_blocks(self):
        allocator = AddressAllocator(AF_INET)
        before = allocator.remaining_blocks(8)
        allocator.allocate_block(8)
        assert allocator.remaining_blocks(8) == before - 1

    def test_unknown_family(self):
        with pytest.raises(PrefixError):
            AddressAllocator(9)


class TestCarve:
    def test_single(self):
        block = Prefix.parse("10.0.0.0/16")
        assert carve_prefixes(block, 1, random.Random(1)) == [block]

    def test_includes_aggregate_and_specifics(self):
        block = Prefix.parse("10.0.0.0/16")
        carved = carve_prefixes(block, 8, random.Random(1))
        assert carved[0] == block
        assert len(carved) == 8
        assert len(set(carved)) == 8
        for prefix in carved[1:]:
            assert block.contains(prefix)
            assert prefix.length <= 24

    def test_without_aggregate(self):
        block = Prefix.parse("10.0.0.0/16")
        carved = carve_prefixes(block, 4, random.Random(1), include_aggregate=False)
        assert block not in carved
        assert len(carved) == 4

    def test_respects_max_length(self):
        block = Prefix.parse("10.0.0.0/23")
        carved = carve_prefixes(block, 50, random.Random(1))
        assert all(prefix.length <= 24 for prefix in carved)
        # /23 can yield at most the aggregate plus two /24s.
        assert len(carved) <= 3

    def test_v6_max_length(self):
        block = Prefix.parse("2001:db8::/40")
        carved = carve_prefixes(block, 20, random.Random(1))
        assert all(prefix.length <= 48 for prefix in carved)

    def test_block_longer_than_announceable_rejected(self):
        with pytest.raises(ValueError):
            carve_prefixes(Prefix.parse("10.0.0.0/30"), 2, random.Random(1))

    def test_deterministic(self):
        block = Prefix.parse("10.0.0.0/16")
        assert carve_prefixes(block, 8, random.Random(7)) == carve_prefixes(
            block, 8, random.Random(7)
        )
