"""Tests for the Gao-Rexford propagation engine, on hand-built graphs.

These pin down the routing semantics everything else depends on:
preference classes, valley-free export, tie-breaking, announcement
sets, prepending, and tag-based selective export.
"""

import pytest

from repro.bgp.attributes import Community
from repro.net.prefix import AF_INET, AF_INET6, Prefix
from repro.simulation import routing
from repro.simulation.routing import (
    CLASS_CUSTOMER,
    CLASS_PEER,
    CLASS_PROVIDER,
    PropagationEngine,
    propagate,
)
from repro.topology.model import ASGraph, ASNode, Tier
from repro.topology.policies import OriginPolicy, TransitPolicy
from tests.conftest import TEST_WORLD


def build_graph(nodes, provider_links=(), peer_links=()):
    graph = ASGraph()
    for asn in nodes:
        tier = Tier.TIER1 if asn < 10 else Tier.TRANSIT if asn < 100 else Tier.STUB
        graph.add_as(ASNode(asn, tier))
    for customer, provider in provider_links:
        graph.add_provider_link(customer, provider)
    for left, right in peer_links:
        graph.add_peer_link(left, right)
    return graph


def single_unit_policy(origin, prefix="10.0.0.0/24", **unit_kwargs):
    policy = OriginPolicy(origin, 4)
    policy.new_unit([Prefix.parse(prefix)], **unit_kwargs)
    return policy


class TestBasicPropagation:
    def test_direct_provider_gets_customer_route(self):
        graph = build_graph([100, 10], [(100, 10)])
        policy = single_unit_policy(100)
        routes = propagate(graph, policy, {})
        route = routes[10][0]
        assert route.pref_class == CLASS_CUSTOMER
        assert route.path == (100,)
        assert route.length == 1

    def test_customer_route_propagates_up(self):
        # 100 -> 10 -> 1 (chain of providers)
        graph = build_graph([100, 10, 1], [(100, 10), (10, 1)])
        routes = propagate(graph, single_unit_policy(100), {})
        assert routes[1][0].path == (10, 100)
        assert routes[1][0].pref_class == CLASS_CUSTOMER

    def test_provider_route_propagates_down(self):
        # Sibling customers under one provider: 100,101 -> 10.
        graph = build_graph([100, 101, 10], [(100, 10), (101, 10)])
        routes = propagate(graph, single_unit_policy(100), {})
        assert routes[101][0].path == (10, 100)
        assert routes[101][0].pref_class == CLASS_PROVIDER

    def test_peer_route_single_hop(self):
        graph = build_graph([100, 10, 11], [(100, 10)], [(10, 11)])
        routes = propagate(graph, single_unit_policy(100), {})
        assert routes[11][0].pref_class == CLASS_PEER
        assert routes[11][0].path == (10, 100)

    def test_valley_free_peer_routes_not_reexported_to_peers(self):
        # 100 -> 10; 10 ~ 11 ~ 12 (peer chain): 12 must NOT hear via 11.
        graph = build_graph([100, 10, 11, 12], [(100, 10)], [(10, 11), (11, 12)])
        routes = propagate(graph, single_unit_policy(100), {})
        assert 12 not in routes

    def test_peer_route_exported_to_customers(self):
        # 100 -> 10 ~ 11 -> serves customer 101.
        graph = build_graph([100, 101, 10, 11], [(100, 10), (101, 11)], [(10, 11)])
        routes = propagate(graph, single_unit_policy(100), {})
        assert routes[101][0].path == (11, 10, 100)
        assert routes[101][0].pref_class == CLASS_PROVIDER

    def test_origin_not_in_result(self):
        graph = build_graph([100, 10], [(100, 10)])
        routes = propagate(graph, single_unit_policy(100), {})
        assert 100 not in routes

    def test_empty_policy(self):
        graph = build_graph([100, 10], [(100, 10)])
        assert propagate(graph, OriginPolicy(100, 4), {}) == {}


class TestPreferences:
    def test_customer_beats_peer_and_provider(self):
        # AS 10 can reach 100 via customer (direct) and via peer 11.
        graph = build_graph(
            [100, 10, 11], [(100, 10), (100, 11)], [(10, 11)]
        )
        routes = propagate(graph, single_unit_policy(100), {})
        assert routes[10][0].pref_class == CLASS_CUSTOMER
        assert routes[10][0].path == (100,)

    def test_shorter_customer_route_wins(self):
        # 1 hears from 10 (via 100) and from 11 (via 12 via 100): shorter wins.
        graph = build_graph(
            [100, 10, 11, 12, 1],
            [(100, 10), (100, 12), (12, 11), (10, 1), (11, 1)],
        )
        routes = propagate(graph, single_unit_policy(100), {})
        assert routes[1][0].path == (10, 100)

    def test_tiebreak_lower_neighbor_asn(self):
        # Two equal-length customer routes into 1: via 10 and via 11.
        graph = build_graph(
            [100, 10, 11, 1], [(100, 10), (100, 11), (10, 1), (11, 1)]
        )
        routes = propagate(graph, single_unit_policy(100), {})
        assert routes[1][0].path == (10, 100)  # 10 < 11

    def test_loop_prevention(self):
        # Diamond with a peer shortcut must not loop paths.
        graph = build_graph([100, 10, 11], [(100, 10), (100, 11)], [(10, 11)])
        routes = propagate(graph, single_unit_policy(100), {})
        for table in routes.values():
            for route in table.values():
                stripped = route.path
                assert len(set(stripped)) == len(stripped)


class TestAnnouncementPolicy:
    def test_announce_to_subset(self):
        graph = build_graph([100, 10, 11], [(100, 10), (100, 11)])
        policy = OriginPolicy(100, 4)
        policy.new_unit([Prefix.parse("10.0.0.0/24")],
                        announce_to=frozenset([11]))
        routes = propagate(graph, policy, {})
        assert routes[11][0].path == (100,)
        # AS 10 hears nothing directly; it has no other path upward.
        assert 10 not in routes or routes[10][0].path != (100,)

    def test_prepending_lengthens_seed(self):
        graph = build_graph([100, 10], [(100, 10)])
        policy = OriginPolicy(100, 4)
        policy.new_unit([Prefix.parse("10.0.0.0/24")], prepend={10: 2})
        routes = propagate(graph, policy, {})
        assert routes[10][0].path == (100, 100, 100)
        assert routes[10][0].length == 3

    def test_prepending_redirects_selection(self):
        # 1 reaches 100 via 10 (prepended) or 11 (clean): clean wins.
        graph = build_graph(
            [100, 10, 11, 1], [(100, 10), (100, 11), (10, 1), (11, 1)]
        )
        policy = OriginPolicy(100, 4)
        policy.new_unit([Prefix.parse("10.0.0.0/24")], prepend={10: 2})
        routes = propagate(graph, policy, {})
        assert routes[1][0].path == (11, 100)

    def test_multiple_units_propagate_together(self):
        graph = build_graph([100, 10, 11], [(100, 10), (100, 11)])
        policy = OriginPolicy(100, 4)
        policy.new_unit([Prefix.parse("10.0.0.0/24")])
        policy.new_unit([Prefix.parse("10.0.1.0/24")],
                        announce_to=frozenset([11]))
        routes = propagate(graph, policy, {})
        assert routes[10][0].path == (100,)   # unit 0 announced everywhere
        assert 1 not in routes[10] or routes[10][1].path != (100,)
        assert routes[11][1].path == (100,)


class TestTagFiltering:
    def test_blocked_egress_forces_detour(self):
        # 100 -> 20; 20 -> {1, 2}; VP 30 -> {1, 2}.  Tag blocked on 20->1.
        graph = build_graph(
            [100, 20, 30, 1, 2],
            [(100, 20), (20, 1), (20, 2), (30, 1), (30, 2)],
            [(1, 2)],
        )
        tag = Community(20, 1)
        transit = TransitPolicy(20)
        transit.block(tag, frozenset([1]))
        policy = OriginPolicy(100, 4)
        policy.new_unit([Prefix.parse("10.0.0.0/24")])          # base
        policy.new_unit([Prefix.parse("10.0.1.0/24")], tag=tag)  # tagged
        routes = propagate(graph, policy, {20: transit})
        base = routes[30][0]
        tagged = routes[30][1]
        assert base.path == (1, 20, 100)     # tie-break: lower T1 first
        assert tagged.path == (2, 20, 100)   # forced through AS 2
        # Divergence is at position 3 from the origin: 100, 20, then 1 vs 2.

    def test_fully_blocked_unit_is_invisible_beyond(self):
        graph = build_graph([100, 20, 30, 1], [(100, 20), (20, 1), (30, 1)])
        tag = Community(20, 1)
        transit = TransitPolicy(20)
        transit.block(tag, frozenset([1]))
        policy = OriginPolicy(100, 4)
        policy.new_unit([Prefix.parse("10.0.1.0/24")], tag=tag)
        routes = propagate(graph, policy, {20: transit})
        assert 30 not in routes
        assert routes[20][0].path == (100,)  # the transit itself still has it

    def test_untagged_units_ignore_rules(self):
        graph = build_graph([100, 20, 1], [(100, 20), (20, 1)])
        transit = TransitPolicy(20)
        transit.block(Community(20, 9), frozenset([1]))
        policy = single_unit_policy(100)
        routes = propagate(graph, policy, {20: transit})
        assert routes[1][0].path == (20, 100)


class TestTargetsAndPruning:
    def test_targets_trim_result(self):
        graph = build_graph([100, 10, 11], [(100, 10), (100, 11)])
        routes = propagate(graph, single_unit_policy(100), {}, targets={10})
        assert set(routes) == {10}

    def test_cone_pruning_matches_unpruned_at_targets(self):
        # A larger random-ish fixed graph; the pruned result at targets
        # must equal the unpruned result restricted to targets.
        graph = build_graph(
            [1, 2, 10, 11, 12, 100, 101, 102, 103],
            [
                (10, 1), (10, 2), (11, 1), (12, 2),
                (100, 10), (101, 11), (102, 12), (103, 10), (103, 12),
            ],
            [(1, 2), (10, 11), (11, 12)],
        )
        policy = single_unit_policy(100)
        targets = {101, 102, 103}
        pruned = propagate(graph, policy, {}, targets=targets)
        full = propagate(graph, policy, {})
        for asn in targets:
            assert pruned.get(asn) == full.get(asn)


class TestEngine:
    def test_cache_hit_on_repeat(self):
        graph = build_graph([100, 10], [(100, 10)])
        policy = single_unit_policy(100)
        engine = PropagationEngine(graph, {})
        targets = frozenset([10])
        first = engine.routes(policy, targets)
        second = engine.routes(policy, targets)
        assert first is second
        assert engine.hits == 1 and engine.misses == 1

    def test_policy_version_invalidates(self):
        graph = build_graph([100, 10], [(100, 10)])
        policy = single_unit_policy(100)
        engine = PropagationEngine(graph, {})
        targets = frozenset([10])
        engine.routes(policy, targets)
        policy.new_unit([Prefix.parse("10.9.0.0/24")])
        engine.routes(policy, targets)
        assert engine.misses == 2

    def test_graph_version_invalidates(self):
        graph = build_graph([100, 10, 11], [(100, 10)])
        policy = single_unit_policy(100)
        engine = PropagationEngine(graph, {})
        targets = frozenset([10])
        engine.routes(policy, targets)
        graph.add_provider_link(100, 11)
        engine.routes(policy, targets)
        assert engine.misses == 2

    def test_determinism(self):
        graph = build_graph(
            [1, 2, 10, 11, 100, 101],
            [(10, 1), (11, 2), (100, 10), (101, 11)],
            [(1, 2), (10, 11)],
        )
        policy = single_unit_policy(100)
        assert propagate(graph, policy, {}) == propagate(graph, policy, {})


class TestTransitPrefilter:
    """Narrowing exporters to the transits naming an origin's tags is
    exact: it equals applying ``_filtered`` at every transit."""

    @pytest.mark.parametrize("start", ["2008-01-15 08:00", "2014-01-15 08:00"])
    def test_matches_brute_force_on_tagged_worlds(self, monkeypatch, start):
        from repro.simulation.scenario import SimulatedInternet

        world = SimulatedInternet(TEST_WORLD, start=start).world
        graph, transits = world.graph, world.transit_policies
        targets = set(world.layout.vantage_asns())
        policies = [
            policy
            for family in (AF_INET, AF_INET6)
            for policy in world.origins(family).values()
        ]
        ruled_tags = {tag for transit in transits.values() for tag in transit.rules}
        assert any(
            unit.tag in ruled_tags for policy in policies for unit in policy.units
        )

        def run_all():
            return [
                propagate(graph, policy, transits, wanted)
                for policy in policies
                for wanted in (targets, None)
            ]

        narrowed = run_all()
        monkeypatch.setattr(
            routing, "_relevant_transits", lambda transit_policies, units: transit_policies
        )
        assert narrowed == run_all()
        # The rules really split groups somewhere in this world.
        assert narrowed != [
            propagate(graph, policy, {}, wanted)
            for policy in policies
            for wanted in (targets, None)
        ]

    def test_untagged_origin_ignores_every_rule(self):
        graph = build_graph([100, 10, 11, 1], [(100, 10), (10, 1), (11, 1)])
        transit = TransitPolicy(10)
        transit.block(Community(10, 1), frozenset([1]))
        policy = single_unit_policy(100)
        assert routing._relevant_transits({10: transit}, tuple(policy.units)) == {}
        assert propagate(graph, policy, {10: transit}) == propagate(graph, policy, {})
