"""Valley-free (Gao-Rexford) route propagation.

For one origin's policy units, computes the route every vantage point
selects, honouring:

* business relationships — prefer customer over peer over provider
  routes, then shorter paths, then the lower next-hop ASN;
* valley-free export — customer routes go everywhere, peer/provider
  routes only to customers;
* the origin's per-unit announcement sets and prepending;
* transit selective-export rules keyed on the unit's TE community.

Units that are treated identically travel together in grouped messages,
so the cost per origin is close to one graph traversal regardless of
unit count; groups split only where a policy actually distinguishes
units — exactly where atoms split.

Three structural optimisations keep snapshots fast at scale:

* adjacency is flattened once per graph version into plain dicts of
  tuples (:class:`GraphView`);
* peer- and provider-class routes only matter if they can flow *down*
  to a vantage point, so those phases walk only the neighbours inside
  the VP customer cone's ancestor set;
* messages carry unit ids, and a transit's export rules act on them as
  per-neighbour sets of blocked ids, built once per call.

Paths are stored as the receiving AS's table entry: ``(next_hop, ...,
origin)`` including origin prepending.  Vantage-point rendering prepends
the peer's own ASN, matching what collectors log.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.topology.model import ASGraph, Relationship
from repro.topology.policies import OriginPolicy, PolicyUnit, TransitPolicy

# Preference classes, lower is better.
CLASS_CUSTOMER = 0
CLASS_PEER = 1
CLASS_PROVIDER = 2


class Route(NamedTuple):
    """One selected route: preference class, path length, and the path."""

    pref_class: int
    length: int
    path: Tuple[int, ...]

    def rank(self) -> Tuple[int, int, Tuple[int, ...]]:
        """Total order used to break ties deterministically (also across
        origins, for MOAS prefixes)."""
        return (self.pref_class, self.length, self.path)


#: {asn: {unit_id: Route}}
PropagationResult = Dict[int, Dict[int, Route]]


class RouteSource(Protocol):
    """Anything that answers per-origin route queries at a target set.

    Implemented by :class:`PropagationEngine` (the equilibrium fixed
    point) and by ``repro.simulation.events.EventPropagationView`` (the
    discrete-event engine's live state), so the snapshot renderer works
    identically over both.
    """

    def routes(self, policy: OriginPolicy, targets: FrozenSet[int]) -> PropagationResult:
        """Routes for one origin's units at the target ASes."""
        ...


class GraphView:
    """Flattened adjacency plus the vantage-point ancestor cone.

    ``cone`` contains every AS from which some target is reachable by
    walking provider->customer links (including the targets themselves).
    Peer/provider routes settled outside the cone can never reach a
    target, so propagation skips them: ``cone_customers`` and
    ``cone_peers`` hold each AS's customers and peers inside the cone
    (ASes with none are left out), the only neighbours those routes are
    ever offered to.  ``providers`` holds every AS's providers.
    """

    def __init__(self, graph: ASGraph, targets: FrozenSet[int]):
        self.version = graph.version
        self.targets = targets
        self.providers: Dict[int, Tuple[int, ...]] = {}
        customers: Dict[int, Tuple[int, ...]] = {}
        peers: Dict[int, Tuple[int, ...]] = {}
        for asn in graph.nodes:
            neighbors = graph.neighbors(asn)
            self.providers[asn] = tuple(
                n for n, rel in neighbors.items() if rel == Relationship.PROVIDER
            )
            customers[asn] = tuple(
                n for n, rel in neighbors.items() if rel == Relationship.CUSTOMER
            )
            peers[asn] = tuple(
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
        self.cone_customers: Dict[int, Tuple[int, ...]] = {
            asn: inside
            for asn, below in customers.items()
            if (inside := tuple(n for n in below if n in cone))
        }
        self.cone_peers: Dict[int, Tuple[int, ...]] = {
            asn: inside
            for asn, across in peers.items()
            if (inside := tuple(n for n in across if n in cone))
        }


def _relevant_transits(
    transit_policies: Dict[int, TransitPolicy], units: Tuple[PolicyUnit, ...]
) -> Dict[int, TransitPolicy]:
    """The transits whose export rules can split this origin's groups.

    A rule only acts on the tag it names, so a transit naming none of
    the units' tags passes every group through whole.  The disjointness
    test walks the smaller of the tag set and the transit's rule keys.
    """
    tags = {unit.tag for unit in units if unit.tag is not None}
    if not tags:
        return {}
    return {
        asn: transit
        for asn, transit in transit_policies.items()
        if not transit.rules.keys().isdisjoint(tags)
    }


#: {transit: {neighbour: unit ids the transit does not export to it}}
_Blocked = Dict[int, Dict[int, Set[int]]]


def _blocked_units(transits: Dict[int, TransitPolicy],
                   units: Tuple[PolicyUnit, ...]) -> _Blocked:
    """Each transit's export rules, resolved to this origin's unit ids."""
    blocked: _Blocked = {}
    for asn, transit in transits.items():
        per_neighbor: Dict[int, Set[int]] = defaultdict(set)
        for unit in units:
            if unit.tag is None:
                continue
            for neighbor in transit.rules.get(unit.tag, ()):
                per_neighbor[neighbor].add(unit.unit_id)
        if per_neighbor:
            blocked[asn] = dict(per_neighbor)
    return blocked


#: (path, unit ids) groups of one AS's selected routes.
_Groups = List[Tuple[Tuple[int, ...], Tuple[int, ...]]]


def _groups_by_path(table: Dict[int, Route]) -> _Groups:
    """One class's routes at an AS as (path, unit ids) groups, in table order."""
    by_path: Dict[Tuple[int, ...], List[int]] = defaultdict(list)
    for unit_id, route in table.items():
        by_path[route.path].append(unit_id)
    return [(path, tuple(group)) for path, group in by_path.items()]


#: Offers of one BFS level sort by (receiver, sender).
_by_receiver_then_sender = itemgetter(1, 0)

#: Builds a :class:`Route` without the namedtuple's Python-level ``__new__``.
_new_route = tuple.__new__

#: Stands in for an AS's missing route table; never written to.
_EMPTY: Dict[int, Route] = {}


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

    Grouped messages carry tuples of unit ids; a transit's export rules
    act on them as per-neighbour sets of blocked ids.
    """
    origin = policy.asn
    units = tuple(policy.units)
    if not units:
        return {}

    if view is None or view.version != graph.version:
        effective_targets = frozenset(targets) if targets is not None else frozenset(graph.nodes)
        view = GraphView(graph, effective_targets)
    providers_of = view.providers
    cone_customers = view.cone_customers
    cone_peers = view.cone_peers

    n_units = len(units)
    blocked = _blocked_units(_relevant_transits(transit_policies, units), units)

    def seed_groups(neighbor: int) -> Dict[int, List[int]]:
        """Unit ids announced to ``neighbor``, grouped by prepend count."""
        groups: Dict[int, List[int]] = defaultdict(list)
        for unit in units:
            if unit.announces_to(neighbor):
                groups[unit.prepend_for(neighbor)].append(unit.unit_id)
        return groups

    # ---- Phase C: customer routes ------------------------------------
    # Level-synchronous BFS up provider links; within a level, offers are
    # resolved per receiver by lowest sender ASN.
    # levels[length] -> list of (sender, receiver, path, unit ids)
    levels: Dict[int, List[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]]] = {}

    for provider in providers_of.get(origin, ()):
        for prepend, group in seed_groups(provider).items():
            path = (origin,) * (1 + prepend)
            levels.setdefault(len(path), []).append(
                (origin, provider, path, tuple(group))
            )

    customer_routes: Dict[int, Dict[int, Route]] = {}
    # The same routes as (path, unit ids) groups: each (receiver, path)
    # is offered once, so every assignment is one group.
    customer_groups: Dict[int, _Groups] = {}
    while levels:
        length = min(levels)
        batch = levels.pop(length)
        if not batch:
            continue
        # Resolve per receiver: lowest sender ASN wins ties at this level.
        batch.sort(key=_by_receiver_then_sender)
        next_level = levels.setdefault(length + 1, [])
        for sender, receiver, path, group in batch:
            route = _new_route(Route, (CLASS_CUSTOMER, length, path))
            table = customer_routes.get(receiver)
            if table is None:
                fresh = group
                customer_routes[receiver] = dict.fromkeys(fresh, route)
                customer_groups[receiver] = [(path, fresh)]
            else:
                fresh = tuple(u for u in group if u not in table)
                if not fresh:
                    continue
                for unit_id in fresh:
                    table[unit_id] = route
                customer_groups[receiver].append((path, fresh))
            export_path = (receiver,) + path
            stops = blocked.get(receiver)
            for provider in providers_of.get(receiver, ()):
                if provider == origin or provider in path:
                    continue
                above = customer_routes.get(provider)
                if above is not None and len(above) == n_units:
                    continue
                allowed = fresh
                if stops and provider in stops:
                    stop = stops[provider]
                    allowed = tuple(u for u in fresh if u not in stop)
                    if not allowed:
                        continue
                next_level.append((receiver, provider, export_path, allowed))

    # ---- Phase P: peer routes ----------------------------------------
    # Offers in the order they are made: the origin's own, then those of
    # every AS holding customer routes.  A peer route is only useful at a
    # target or somewhere it can flow down toward one, so only peers
    # inside the cone are offered one.
    offers: List[Tuple[int, int, Route, Tuple[int, ...]]] = []
    for peer in cone_peers.get(origin, ()):
        for prepend, group in seed_groups(peer).items():
            path = (origin,) * (1 + prepend)
            route = _new_route(Route, (CLASS_PEER, len(path), path))
            offers.append((peer, origin, route, tuple(group)))

    for asn, groups in customer_groups.items():
        asn_peers = cone_peers.get(asn)
        if not asn_peers:
            continue
        stops = blocked.get(asn)
        for path, group in groups:
            export_path = (asn,) + path
            route = _new_route(Route, (CLASS_PEER, len(export_path), export_path))
            for peer in asn_peers:
                if peer == origin or peer in path:
                    continue
                # A peer with customer routes for every unit takes none.
                above = customer_routes.get(peer)
                if above is not None and len(above) == n_units:
                    continue
                allowed = group
                if stops and peer in stops:
                    stop = stops[peer]
                    allowed = tuple(u for u in group if u not in stop)
                    if not allowed:
                        continue
                offers.append((peer, asn, route, allowed))

    # A customer route beats any peer route; among peer routes the
    # shorter wins, then the lower sender ASN.
    peer_routes: Dict[int, Dict[int, Route]] = defaultdict(dict)
    for receiver, sender, route, group in offers:
        table = peer_routes[receiver]
        customer_table = customer_routes.get(receiver, _EMPTY)
        length = route[1]
        for unit_id in group:
            if unit_id in customer_table:
                continue
            current = table.get(unit_id)
            if current is None or (length, sender) < (current[1], current[2][0]):
                table[unit_id] = route

    # ---- Phase D: provider routes ------------------------------------
    # Every selected customer or peer route is exported down to the
    # customers inside the cone.  ``selected[asn]`` holds every route
    # ``asn`` has selected so far, in class order; an AS that holds one
    # for every unit is offered nothing more.
    selected: Dict[int, Dict[int, Route]] = {}

    def selected_at(asn: int) -> Dict[int, Route]:
        """``asn``'s selected routes, starting from its customer and peer routes."""
        table = selected.get(asn)
        if table is None:
            table = selected[asn] = {
                **customer_routes.get(asn, _EMPTY),
                **peer_routes.get(asn, _EMPTY),
            }
        return table

    def seed_down(asn: int, groups: _Groups) -> None:
        """Offer ``asn``'s selected routes to its customers in the cone."""
        stops = blocked.get(asn)
        for path, group in groups:
            export_path = (asn,) + path
            level = levels.setdefault(len(export_path), [])
            for customer in cone_customers[asn]:
                if customer == origin or customer in path:
                    continue
                if len(selected.get(customer) or selected_at(customer)) == n_units:
                    continue
                allowed = group
                if stops and customer in stops:
                    stop = stops[customer]
                    allowed = tuple(u for u in group if u not in stop)
                    if not allowed:
                        continue
                level.append((asn, customer, export_path, allowed))

    for asn, groups in customer_groups.items():
        if asn in cone_customers:
            seed_down(asn, groups)
    for asn, table in peer_routes.items():
        if table and asn in cone_customers:
            seed_down(asn, _groups_by_path(table))

    while levels:
        length = min(levels)
        batch = levels.pop(length)
        if not batch:
            continue
        batch.sort(key=_by_receiver_then_sender)
        next_level = levels.setdefault(length + 1, [])
        for sender, receiver, path, group in batch:
            table = selected[receiver]
            if table:
                fresh = tuple(u for u in group if u not in table)
                if not fresh:
                    continue
            else:
                fresh = group
            route = _new_route(Route, (CLASS_PROVIDER, length, path))
            for unit_id in fresh:
                table[unit_id] = route
            export_path = (receiver,) + path
            stops = blocked.get(receiver)
            for customer in cone_customers.get(receiver, ()):
                if customer == origin or customer in path:
                    continue
                if len(selected.get(customer) or selected_at(customer)) == n_units:
                    continue
                allowed = fresh
                if stops and customer in stops:
                    stop = stops[customer]
                    allowed = tuple(u for u in fresh if u not in stop)
                    if not allowed:
                        continue
                next_level.append((receiver, customer, export_path, allowed))

    # ---- Combine ------------------------------------------------------
    result: PropagationResult = {}
    wanted = targets if targets is not None else (
        set(customer_routes) | set(peer_routes) | set(selected)
    )
    for asn in wanted:
        if asn == origin:
            continue
        combined = selected.get(asn) or selected_at(asn)
        if combined:
            result[asn] = combined
    return result


class PropagationEngine:
    """Caching front-end over :func:`propagate`.

    Results are memoised per (family, origin) and invalidated whenever
    the graph, the origin's policy, any transit rule, or the target set
    changes — so consecutive snapshots only recompute churned origins.
    """

    def __init__(self, graph: ASGraph, transit_policies: Dict[int, TransitPolicy]):
        self.graph = graph
        self.transit_policies = transit_policies
        self._cache: Dict[Tuple[int, int], Tuple[Tuple, PropagationResult]] = {}
        self._view: Optional[GraphView] = None
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        # The view is derived from the graph and rebuilt on first use:
        # world checkpoints leave it out, and drop one an older build
        # pickled, which may lack fields propagation now reads.  The
        # result cache travels, so restored hit counts do not move.
        state = self.__dict__.copy()
        state["_view"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._view = None

    def _view_for(self, targets: FrozenSet[int]) -> GraphView:
        view = self._view
        if view is None or view.version != self.graph.version or view.targets != targets:
            view = GraphView(self.graph, targets)
            self._view = view
        return view

    def routes(self, policy: OriginPolicy, targets: FrozenSet[int]) -> PropagationResult:
        """Routes for one origin at the target ASes, cached.

        Invariant relied upon for cache correctness: transit rules are
        keyed by per-unit TE tags, so a rule change can only affect the
        origin owning the tag — whose ``policy.version`` changes with
        it.  Call :meth:`invalidate` after editing transit rules by hand.
        """
        key = (policy.family, policy.asn)
        stamp = (self.graph.version, policy.version, targets)
        cached = self._cache.get(key)
        if cached is not None and cached[0] == stamp:
            self.hits += 1
            return cached[1]
        self.misses += 1
        view = self._view_for(targets)
        result = propagate(self.graph, policy, self.transit_policies, set(targets), view)
        self._cache[key] = (stamp, result)
        return result

    def invalidate(self) -> None:
        """Drop every cached propagation result."""
        self._cache.clear()
        self._view = None
