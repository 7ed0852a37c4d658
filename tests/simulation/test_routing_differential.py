"""Differential test: :func:`routing.propagate` against a frozen oracle.

``reference_routing`` is the plain statement of valley-free propagation
that predates the fast path (cone-restricted adjacency, unit-id
messages, blocked-id sets).  For every origin of several worlds, both
must select exactly the same routes, in the same table order, whether
propagation is pruned to the vantage points or runs unpruned.
"""

import pytest

from repro.net.prefix import AF_INET, AF_INET6
from repro.simulation import routing
from repro.simulation.scenario import SimulatedInternet
from repro.topology.evolution import WorldParams
from repro.topology.policies import TransitPolicy
from tests.conftest import TEST_WORLD
from tests.simulation import reference_routing


def reference_scale_world(seed):
    """The ``repro trend`` default world (scale 1/200, peer scale 0.04)."""
    return WorldParams(
        seed=seed,
        as_scale=1 / 200.0,
        prefix_scale=1 / 200.0,
        peer_scale=0.04,
        collector_scale=0.3,
        min_fullfeed_peers=8,
    )


def ordered(result):
    """A result with every table's insertion order made explicit."""
    return [(asn, list(table.items())) for asn, table in result.items()]


def assert_matches_oracle(world):
    graph, transits = world.graph, world.transit_policies
    targets = frozenset(world.layout.vantage_asns())
    view = routing.GraphView(graph, targets)
    oracle_view = reference_routing.GraphView(graph, targets)
    compared = 0
    for family in (AF_INET, AF_INET6):
        for policy in world.origins(family).values():
            pruned = routing.propagate(graph, policy, transits, set(targets), view)
            expected = reference_routing.propagate(
                graph, policy, transits, set(targets), oracle_view
            )
            assert ordered(pruned) == ordered(expected), policy.asn
            unpruned = routing.propagate(graph, policy, transits)
            assert unpruned == reference_routing.propagate(graph, policy, transits)
            compared += 1
    assert compared


@pytest.mark.parametrize("seed", [7, 20250701])
def test_reference_scale_worlds_match_the_oracle(seed):
    sim = SimulatedInternet(reference_scale_world(seed), start="2004-01-01")
    for when in ("2004-01-15 08:00", "2008-07-15 08:00", "2012-10-15 08:00"):
        sim.advance_to(when)
        assert_matches_oracle(sim.world)


@pytest.mark.parametrize("start", ["2008-01-15 08:00", "2014-01-15 08:00"])
def test_tagged_worlds_match_the_oracle(start):
    world = SimulatedInternet(TEST_WORLD, start=start).world
    ruled = {tag for transit in world.transit_policies.values() for tag in transit.rules}
    assert any(
        unit.tag in ruled
        for policy in world.origins(AF_INET).values()
        for unit in policy.units
    )
    assert_matches_oracle(world)


def test_rules_toward_customers_match_the_oracle():
    """Generated rules only block provider and peer egress, at holders
    upstream of the origin.  Here every AS with customers also withholds
    every tag from half of them, so the filters of the provider phase
    act on routes learned from providers too."""
    world = SimulatedInternet(TEST_WORLD, start="2014-01-15 08:00").world
    transits = world.transit_policies
    tags = {tag for transit in transits.values() for tag in transit.rules}
    for asn in sorted(world.graph.nodes):
        withheld = frozenset(sorted(world.graph.customers(asn))[::2])
        if not withheld:
            continue
        transit = transits.setdefault(asn, TransitPolicy(asn))
        for tag in tags:
            transit.block(tag, transit.rules.get(tag, frozenset()) | withheld)
    assert_matches_oracle(world)
