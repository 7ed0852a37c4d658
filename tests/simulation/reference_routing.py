"""Frozen copy of the valley-free propagation before its fast path.

A test-only oracle: ``tests/simulation/test_routing_differential.py``
asserts that :func:`repro.simulation.routing.propagate` returns exactly
what this straightforward version returns, for every origin of several
worlds, with and without cone pruning.  Do not optimise this module;
its value is that it stays the plain statement of the algorithm.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.simulation.routing import (
    CLASS_CUSTOMER,
    CLASS_PEER,
    CLASS_PROVIDER,
    PropagationResult,
    Route,
)
from repro.topology.model import ASGraph, Relationship
from repro.topology.policies import OriginPolicy, PolicyUnit, TransitPolicy


class GraphView:
    """Flattened adjacency plus the vantage-point ancestor cone.

    ``cone`` contains every AS from which some target is reachable by
    walking provider->customer links (including the targets themselves).
    Peer/provider routes settled outside the cone can never reach a
    target, so propagation skips them.
    """

    def __init__(self, graph: ASGraph, targets: FrozenSet[int]):
        self.version = graph.version
        self.targets = targets
        self.providers: Dict[int, Tuple[int, ...]] = {}
        self.customers: Dict[int, Tuple[int, ...]] = {}
        self.peers: Dict[int, Tuple[int, ...]] = {}
        for asn in graph.nodes:
            neighbors = graph.neighbors(asn)
            self.providers[asn] = tuple(
                n for n, rel in neighbors.items() if rel == Relationship.PROVIDER
            )
            self.customers[asn] = tuple(
                n for n, rel in neighbors.items() if rel == Relationship.CUSTOMER
            )
            self.peers[asn] = tuple(
                n for n, rel in neighbors.items() if rel == Relationship.PEER
            )
        cone: Set[int] = set(targets)
        frontier = list(targets)
        while frontier:
            asn = frontier.pop()
            for provider in self.providers.get(asn, ()):
                if provider not in cone:
                    cone.add(provider)
                    frontier.append(provider)
        self.cone = cone


def _filtered(policy: Optional[TransitPolicy], units: Tuple[PolicyUnit, ...],
              neighbor: int) -> Tuple[PolicyUnit, ...]:
    """Units of a grouped message that survive the exporter's filters."""
    if policy is None or not policy.rules:
        return units
    return tuple(u for u in units if not policy.blocks(u.tag, neighbor))


def _relevant_transits(
    transit_policies: Dict[int, TransitPolicy], units: Tuple[PolicyUnit, ...]
) -> Dict[int, TransitPolicy]:
    """The transits whose export rules can split this origin's groups.

    A rule only acts on the tag it names, so a transit naming none of
    the units' tags passes every group through whole.  Membership is
    probed per tag: ``tags.isdisjoint(rules)`` would hash every one of
    a transit's rule keys instead.
    """
    tags = {unit.tag for unit in units if unit.tag is not None}
    if not tags:
        return {}
    return {
        asn: transit
        for asn, transit in transit_policies.items()
        if any(tag in transit.rules for tag in tags)
    }


def propagate(
    graph: ASGraph,
    policy: OriginPolicy,
    transit_policies: Dict[int, TransitPolicy],
    targets: Optional[Set[int]] = None,
    view: Optional[GraphView] = None,
) -> PropagationResult:
    """Compute selected routes for every unit of one origin.

    Returns routes at ``targets`` (default: every AS that selected one;
    in that case no cone pruning is applied).  The origin itself never
    appears in the result.
    """
    origin = policy.asn
    units = tuple(policy.units)
    if not units:
        return {}

    if view is None or view.version != graph.version:
        effective_targets = frozenset(targets) if targets is not None else frozenset(graph.nodes)
        view = GraphView(graph, effective_targets)
    providers_of = view.providers
    customers_of = view.customers
    peers_of = view.peers
    cone = view.cone

    unit_by_id = {unit.unit_id: unit for unit in units}
    transit_policies = _relevant_transits(transit_policies, units)

    # ---- Phase C: customer routes ------------------------------------
    # Level-synchronous BFS up provider links; within a level, offers are
    # resolved per receiver by lowest sender ASN.
    # levels[length] -> list of (sender, receiver, path, units)
    levels: Dict[int, List[Tuple[int, int, Tuple[int, ...], Tuple[PolicyUnit, ...]]]] = defaultdict(list)

    def seed_groups(neighbor: int) -> Dict[int, List[PolicyUnit]]:
        """Units announced to ``neighbor``, grouped by prepend count."""
        groups: Dict[int, List[PolicyUnit]] = defaultdict(list)
        for unit in units:
            if unit.announces_to(neighbor):
                groups[unit.prepend_for(neighbor)].append(unit)
        return groups

    for provider in providers_of.get(origin, ()):
        for prepend, group in seed_groups(provider).items():
            path = (origin,) * (1 + prepend)
            levels[len(path)].append((origin, provider, path, tuple(group)))

    customer_routes: Dict[int, Dict[int, Route]] = defaultdict(dict)
    length = min(levels) if levels else 0
    max_level = (max(levels) if levels else 0) + len(graph.nodes) + 2
    while levels and length <= max_level:
        batch = levels.pop(length, None)
        if batch is None:
            length += 1
            continue
        # Resolve per receiver: lowest sender ASN wins ties at this level.
        batch.sort(key=lambda offer: (offer[1], offer[0]))
        for sender, receiver, path, group in batch:
            table = customer_routes[receiver]
            fresh = tuple(u for u in group if u.unit_id not in table)
            if not fresh:
                continue
            route = Route(CLASS_CUSTOMER, length, path)
            for unit in fresh:
                table[unit.unit_id] = route
            export_path = (receiver,) + path
            receiver_policy = transit_policies.get(receiver)
            has_rules = receiver_policy is not None and receiver_policy.rules
            for provider in providers_of.get(receiver, ()):
                if provider == origin or provider in path:
                    continue
                allowed = _filtered(receiver_policy, fresh, provider) if has_rules else fresh
                if allowed:
                    levels[length + 1].append(
                        (receiver, provider, export_path, allowed)
                    )
        length += 1

    # ---- Phase P: peer routes ----------------------------------------
    peer_routes: Dict[int, Dict[int, Route]] = defaultdict(dict)

    def offer_peer(receiver: int, sender: int, path: Tuple[int, ...],
                   group: Iterable[PolicyUnit]) -> None:
        """Offer a peer route to ``receiver`` unless a customer route wins."""
        table = peer_routes[receiver]
        customer_table = customer_routes.get(receiver)
        route = Route(CLASS_PEER, len(path), path)
        for unit in group:
            if customer_table and unit.unit_id in customer_table:
                continue
            current = table.get(unit.unit_id)
            if current is None or (route.length, sender) < (
                current.length,
                current.path[0],
            ):
                table[unit.unit_id] = route

    for peer in peers_of.get(origin, ()):
        if peer not in cone and not customers_of.get(peer):
            continue
        for prepend, group in seed_groups(peer).items():
            path = (origin,) * (1 + prepend)
            offer_peer(peer, origin, path, group)

    for asn, table in customer_routes.items():
        asn_peers = peers_of.get(asn, ())
        if not asn_peers:
            continue
        by_route: Dict[Route, List[PolicyUnit]] = defaultdict(list)
        for unit_id, route in table.items():
            by_route[route].append(unit_by_id[unit_id])
        asn_policy = transit_policies.get(asn)
        for route, group in by_route.items():
            export_path = (asn,) + route.path
            group_tuple = tuple(group)
            for peer in asn_peers:
                # A peer route is only useful at a target or somewhere it
                # can flow down toward one.
                if peer == origin or peer not in cone or peer in route.path:
                    continue
                allowed = _filtered(asn_policy, group_tuple, peer)
                if allowed:
                    offer_peer(peer, asn, export_path, allowed)

    # ---- Phase D: provider routes ------------------------------------
    provider_routes: Dict[int, Dict[int, Route]] = defaultdict(dict)
    levels = defaultdict(list)

    def seed_down(asn: int, table: Dict[int, Route]) -> None:
        """Export ``asn``'s selected routes down to its customers."""
        by_route: Dict[Route, List[PolicyUnit]] = defaultdict(list)
        for unit_id, route in table.items():
            by_route[route].append(unit_by_id[unit_id])
        asn_policy = transit_policies.get(asn)
        has_rules = asn_policy is not None and asn_policy.rules
        for route, group in by_route.items():
            export_path = (asn,) + route.path
            group_tuple = tuple(group)
            for customer in customers_of.get(asn, ()):
                if customer == origin or customer not in cone or customer in route.path:
                    continue
                allowed = _filtered(asn_policy, group_tuple, customer) if has_rules else group_tuple
                if allowed:
                    levels[route.length + 1].append(
                        (asn, customer, export_path, allowed)
                    )

    for asn, table in customer_routes.items():
        seed_down(asn, table)
    for asn, table in peer_routes.items():
        if table:
            seed_down(asn, table)

    length = min(levels) if levels else 0
    max_level = (max(levels) if levels else 0) + len(graph.nodes) + 2
    while levels and length <= max_level:
        batch = levels.pop(length, None)
        if batch is None:
            length += 1
            continue
        batch.sort(key=lambda offer: (offer[1], offer[0]))
        for sender, receiver, path, group in batch:
            customer_table = customer_routes.get(receiver)
            peer_table = peer_routes.get(receiver)
            table = provider_routes[receiver]
            fresh = tuple(
                u
                for u in group
                if (not customer_table or u.unit_id not in customer_table)
                and (not peer_table or u.unit_id not in peer_table)
                and u.unit_id not in table
            )
            if not fresh:
                continue
            route = Route(CLASS_PROVIDER, length, path)
            for unit in fresh:
                table[unit.unit_id] = route
            export_path = (receiver,) + path
            receiver_policy = transit_policies.get(receiver)
            has_rules = receiver_policy is not None and receiver_policy.rules
            for customer in customers_of.get(receiver, ()):
                if customer == origin or customer not in cone or customer in path:
                    continue
                allowed = _filtered(receiver_policy, fresh, customer) if has_rules else fresh
                if allowed:
                    levels[length + 1].append(
                        (receiver, customer, export_path, allowed)
                    )
        length += 1

    # ---- Combine ------------------------------------------------------
    result: PropagationResult = {}
    wanted = targets if targets is not None else (
        set(customer_routes) | set(peer_routes) | set(provider_routes)
    )
    for asn in wanted:
        if asn == origin:
            continue
        combined: Dict[int, Route] = {}
        for source in (customer_routes, peer_routes, provider_routes):
            table = source.get(asn)
            if table:
                for unit_id, route in table.items():
                    if unit_id not in combined:
                        combined[unit_id] = route
        if combined:
            result[asn] = combined
    return result
