"""Render the world's routing state into collector RIB records.

For every collector peer (vantage point), the renderer asks the
propagation engine for the routes the peer's AS selected, expands policy
units into per-prefix table entries, resolves MOAS conflicts by route
preference, applies partial-feed subsetting, and injects the configured
data artifacts.  The output is a stream of ``RouteRecord`` objects — the
same shape a BGPStream RIB dump would yield.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET, Prefix
from repro.simulation import artifacts as art
from repro.simulation.routing import Route, RouteSource
from repro.topology.world import PeerSpec, World
from repro.util.determinism import derive_rng

#: RIB records pack roughly this many elements per record, like MRT
#: table-dump chunks.
RIB_RECORD_CHUNK = 1000


def _vp_tables(
    world: World,
    engine: RouteSource,
    family: int,
) -> Dict[int, Dict[Prefix, Tuple[Route, Optional[Community]]]]:
    """Best route per (vantage-point AS, prefix), MOAS resolved.

    Every prefix of one (vantage point, unit) maps to the same entry
    object, so the renderer can tell runs of one entry by identity.
    """
    targets = frozenset(world.layout.vantage_asns())
    tables: Dict[int, Dict[Prefix, Tuple[Route, Optional[Community]]]] = defaultdict(dict)
    for policy in world.origins(family).values():
        routes = engine.routes(policy, targets)
        if not routes:
            continue
        unit_by_id = {unit.unit_id: unit for unit in policy.units}
        for vp_asn, unit_routes in routes.items():
            table = tables[vp_asn]
            for unit_id, route in unit_routes.items():
                unit = unit_by_id.get(unit_id)
                if unit is None:
                    continue
                entry = (route, unit.tag)
                rank = route.rank()
                for prefix in unit.prefixes:
                    current = table.get(prefix)
                    if current is None or rank < current[0].rank():
                        table[prefix] = entry
    return tables


#: (peer ASN, route path, tag) — what an unmutated bundle depends on.
_BundleKey = Tuple[int, Tuple[int, ...], Optional[Community]]

#: (collector, peer ASN, peer address) — one collector session.
_PeerId = Tuple[str, int, str]

#: One peer's unmutated elements, keyed by ``id(prefix)``: an element
#: keeps its prefix alive, so a live key is never another prefix's id.
_ElementMap = Dict[int, RouteElement]


class BundleMemo:
    """Attribute bundles and RIB elements shared across consecutive renders.

    An unmutated bundle depends only on (peer ASN, route path, tag), so
    a world that renders again and again rebuilds only the bundles of
    triples that changed.  Bundles of the previous render are kept as
    a fallback, so the bundle maps never outgrow two renders' distinct
    triples.

    Each peer identity also keeps the unmutated elements it rendered
    last time.  An element is reused when it carries the very prefix
    and bundle objects the render would build it from, which makes it
    indistinguishable from a new one.  A render replaces the map of
    every peer it renders, and the maps of peers it no longer renders
    are dropped by the render after it: at most one map per peer of
    the last two renders.
    """

    __slots__ = ("_previous", "_current", "_previous_elements", "_elements")

    def __init__(self) -> None:
        self._previous: Dict[_BundleKey, PathAttributes] = {}
        self._current: Dict[_BundleKey, PathAttributes] = {}
        self._previous_elements: Dict[_PeerId, _ElementMap] = {}
        self._elements: Dict[_PeerId, _ElementMap] = {}

    def next_render(self) -> None:
        """Start a render: the last render's bundles and element maps
        become the fallback."""
        self._previous, self._current = self._current, {}
        self._previous_elements, self._elements = self._elements, {}

    def bundle(self, peer_asn: int, path: Tuple[int, ...],
               tag: Optional[Community]) -> PathAttributes:
        """The bundle a collector logs for ``path`` heard from ``peer_asn``."""
        key = (peer_asn, path, tag)
        attributes = self._current.get(key)
        if attributes is None:
            attributes = self._previous.get(key)
            if attributes is None:
                attributes = PathAttributes(
                    ASPath.from_asns((peer_asn,) + path),
                    communities=(tag,) if tag is not None else (),
                )
            self._current[key] = attributes
        return attributes

    def elements(self, peer_id: _PeerId) -> Tuple[_ElementMap, _ElementMap]:
        """One peer's elements of its last render, and the map this
        render fills instead."""
        current: _ElementMap = {}
        self._elements[peer_id] = current
        return self._previous_elements.pop(peer_id, {}), current


class _AttributeFactory:
    """Builds RIB elements for one peer, sharing attribute objects.

    Most prefixes of a unit share the same recorded path, so unmutated
    bundles come from the render's :class:`BundleMemo`; per-prefix
    mutations (AS_SET tails, artifact corruption) bypass it.
    """

    def __init__(self, peer: PeerSpec, world: World, when: int,
                 bundles: BundleMemo):
        self.peer = peer
        self.world = world
        self.when = when
        self.artifact = peer.artifact if peer.artifact_active(when) else ""
        self.bundles = bundles

    @property
    def mutates_paths(self) -> bool:
        """True if this peer's artifact rewrites recorded paths."""
        return self.artifact in ("private_asn", "addpath")

    def element(self, prefix: Prefix, route: Route,
                tag: Optional[Community]) -> RouteElement:
        """Build one RIB element, applying the peer's artifact quirks."""
        peer = self.peer
        origin_asn = route.path[-1]
        mutate_as_set = (
            origin_asn in self.world.as_set_origins
            and art.stable_fraction(prefix, origin_asn) < 0.3
        )
        mutate_artifact = self.mutates_paths

        if not mutate_as_set and not mutate_artifact:
            attributes = self.bundles.bundle(peer.asn, route.path, tag)
            return RouteElement(ElementType.RIB, prefix, attributes)

        recorded = ASPath.from_asns((peer.asn,) + route.path)
        if mutate_as_set:
            as_set_path = art.maybe_as_set_path(recorded, prefix, True, origin_asn)
            if as_set_path is not None:
                recorded = as_set_path
        if self.artifact == "private_asn" and art.stable_fraction(prefix, 65000) < 0.7:
            recorded = art.inject_private_asn(recorded)
        elif self.artifact == "addpath" and art.stable_fraction(prefix, 9) < 0.15:
            recorded = art.garble_path(recorded, peer.asn)
        communities = (tag,) if tag is not None else ()
        return RouteElement(
            ElementType.RIB, prefix, PathAttributes(recorded, communities=communities)
        )


def render_rib_records(
    world: World,
    engine: RouteSource,
    family: int = AF_INET,
    when: Optional[int] = None,
    bundles: Optional[BundleMemo] = None,
) -> Iterator[RouteRecord]:
    """Yield the RIB dump of every collector peer at the current instant.

    ``bundles`` carries attribute bundles and unmutated elements over
    from the previous render of the same world; without it every render
    builds its own.
    """
    moment = world.current_time if when is None else when
    tables = _vp_tables(world, engine, family)
    if bundles is None:
        bundles = BundleMemo()
    bundles.next_render()

    # One address-ordered prefix universe shared by all peers: sorting
    # per peer would redo millions of Prefix comparisons.
    universe: set = set()
    for table in tables.values():
        universe.update(table)
    ordered_universe = sorted(universe, key=Prefix.key)

    as_set_origins = world.as_set_origins
    stable_fraction = art.stable_fraction
    rib = ElementType.RIB
    for peer in world.layout.peers:
        table = tables.get(peer.asn)
        if not table:
            continue
        peer_asn = peer.asn
        partial_fraction = None if peer.full_feed else peer.partial_fraction
        duplicates_active = (
            peer.artifact == "duplicates" and peer.artifact_active(moment)
        )
        addpath_active = peer.artifact == "addpath" and peer.artifact_active(moment)
        factory = _AttributeFactory(peer, world, moment, bundles)
        mutates_paths = factory.mutates_paths
        reused, kept = bundles.elements(peer.peer_id)
        reuse = reused.get

        elements: List[RouteElement] = []
        append = elements.append
        # Runs of address-adjacent prefixes from one unit share a table
        # entry; its bundle and AS_SET eligibility are resolved once per
        # run (about one run per 1.3 elements in the reference sweep).
        last_entry: Optional[Tuple[Route, Optional[Community]]] = None
        shared: Optional[PathAttributes] = None
        for prefix in ordered_universe:
            entry = table.get(prefix)
            if entry is None:
                continue
            if partial_fraction is not None:
                if stable_fraction(prefix, peer_asn) >= partial_fraction:
                    continue
            if entry is not last_entry:
                last_entry = entry
                route, tag = entry
                if mutates_paths or route.path[-1] in as_set_origins:
                    shared = None
                else:
                    shared = bundles.bundle(peer_asn, route.path, tag)
            if shared is None:
                element = factory.element(prefix, route, tag)
            else:
                key = id(prefix)
                element = reuse(key)
                if element is None or element.attributes is not shared:
                    element = RouteElement(rib, prefix, shared)
                kept[key] = element
            append(element)
            if duplicates_active and stable_fraction(prefix, 777) < 0.15:
                append(element)

        record_index = 0
        for start in range(0, len(elements), RIB_RECORD_CHUNK):
            chunk = elements[start : start + RIB_RECORD_CHUNK]
            warning = ""
            if addpath_active and record_index % 4 == 0:
                warning = art.addpath_warning_for(record_index)
            yield RouteRecord(
                "rib",
                peer.project,
                peer.collector,
                peer.asn,
                peer.address,
                moment,
                chunk,
                corrupt_warning=warning,
            )
            record_index += 1

    # Stuck routes: phantom prefixes at a single collector (v4 only).
    if family == AF_INET and world.params.inject_artifacts:
        yield from _stuck_route_records(world, moment)


def _stuck_route_records(world: World, moment: int) -> Iterator[RouteRecord]:
    rng = derive_rng(world.params.seed, "stuck", moment // (86400 * 30))
    if rng.random() > 0.4 or not world.layout.collectors:
        return
    project, collector = world.layout.collectors[
        rng.randrange(len(world.layout.collectors))
    ]
    victims = [
        peer
        for peer in world.layout.peers
        if peer.collector == collector and peer.full_feed
    ]
    if not victims:
        return
    phantom = art.stuck_route_prefixes(rng, rng.randint(1, 4))
    for peer in victims:
        elements = [
            RouteElement(
                ElementType.RIB,
                prefix,
                PathAttributes(art.stuck_route_path(rng, peer.asn)),
            )
            for prefix in phantom
        ]
        yield RouteRecord(
            "rib", project, collector, peer.asn, peer.address, moment, elements
        )


def render_snapshot(
    world: World,
    engine: RouteSource,
    family: int = AF_INET,
    when: Optional[int] = None,
    bundles: Optional[BundleMemo] = None,
) -> RIBSnapshot:
    """Materialise the rendered records into a :class:`RIBSnapshot`."""
    return RIBSnapshot.from_records(
        render_rib_records(world, engine, family, when, bundles)
    )
