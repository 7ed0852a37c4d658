"""High-level facade over the simulated Internet.

``SimulatedInternet`` owns a :class:`~repro.topology.world.World` and a
propagation engine, and answers the two questions every analysis asks:

* "give me the collector RIB records at instant T" and
* "give me the update stream for the H hours after T".

Time only moves forward; asking for snapshots in chronological order
mirrors how the paper walks its 20-year archive.

This module also hosts the **convergence scenario taxonomy**: named,
seeded perturbation schedules (:data:`SCENARIOS`) applied to a
:class:`~repro.simulation.events.ConvergenceRun` — route-flap storms,
misconfigured-peer leaks, and RFC 8704-style multihoming failover.
Every scenario reverts its perturbations, so a run always reconverges
to the equilibrium state (the quiescence-parity gate).  See
``docs/simulation.md`` for the taxonomy and runnable examples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.bgp.messages import RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.net.prefix import AF_INET
from repro.simulation.events import ConvergenceRun, DEFAULT_MRAI
from repro.simulation.routing import PropagationEngine
from repro.simulation.snapshot import (
    BundleMemo,
    render_rib_records,
    render_snapshot,
)
from repro.simulation.updates import UpdateStreamConfig, generate_update_records
from repro.topology.evolution import WorldParams
from repro.topology.world import World
from repro.util.dates import parse_utc
from repro.util.determinism import derive_rng

TimeLike = Union[int, str]


def _as_timestamp(when: TimeLike) -> int:
    return parse_utc(when) if isinstance(when, str) else int(when)


class SimulatedInternet:
    """A deterministic, evolving Internet behind a collector-data API."""

    def __init__(self, params: Optional[WorldParams] = None,
                 start: TimeLike = "2004-01-01"):
        self.params = params or WorldParams()
        #: birth instant — with ``params`` it fully determines the world,
        #: which is what lets engine jobs rebuild it in worker processes
        self.start = _as_timestamp(start)
        self.world = World(self.params, self.start)
        self.engine = PropagationEngine(self.world.graph, self.world.transit_policies)
        #: attribute bundles carried from one render to the next
        self._bundles = BundleMemo()

    def __getstate__(self) -> dict:
        # The bundle memo is a pure cache: world checkpoints leave it out.
        state = self.__dict__.copy()
        del state["_bundles"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bundles = BundleMemo()

    # ------------------------------------------------------------------

    def advance_to(self, when: TimeLike) -> None:
        """Advance the world to ``when`` (growth + churn)."""
        self.world.advance_to(_as_timestamp(when))

    def rib_records(self, when: TimeLike, family: int = AF_INET) -> Iterator[RouteRecord]:
        """Advance to ``when`` and stream the RIB dump of all peers."""
        moment = _as_timestamp(when)
        self.world.advance_to(moment)
        return render_rib_records(
            self.world, self.engine, family, moment, self._bundles
        )

    def rib_snapshot(self, when: TimeLike, family: int = AF_INET) -> RIBSnapshot:
        """Advance to ``when`` and materialise the cross-peer snapshot."""
        moment = _as_timestamp(when)
        self.world.advance_to(moment)
        return render_snapshot(
            self.world, self.engine, family, moment, self._bundles
        )

    def update_records(
        self,
        start: TimeLike,
        hours: float = 4.0,
        family: int = AF_INET,
        config: Optional[UpdateStreamConfig] = None,
    ) -> List[RouteRecord]:
        """Advance to ``start`` and generate the following update stream."""
        moment = _as_timestamp(start)
        self.world.advance_to(moment)
        return generate_update_records(
            self.world, self.engine, moment, hours, family, config
        )

    def converge(
        self,
        when: TimeLike,
        scenario: str = "quiet",
        family: int = AF_INET,
        mrai: float = DEFAULT_MRAI,
        record_updates: bool = False,
    ) -> ConvergenceRun:
        """Build a converged event-engine run with a scenario scheduled.

        Advances the world to ``when``, settles the event engine to its
        initial quiescent state, optionally starts update recording,
        and schedules the named scenario's perturbations relative to
        that converged baseline.  The caller drives the rest:
        mid-convergence snapshots via
        :meth:`~repro.simulation.events.ConvergenceRun.run_until` /
        :meth:`~repro.simulation.events.ConvergenceRun.rib_records`,
        then :meth:`~repro.simulation.events.ConvergenceRun.run_to_quiescence`.
        """
        moment = _as_timestamp(when)
        self.world.advance_to(moment)
        run = ConvergenceRun(self.world, family=family, mrai=mrai)
        run.settle()
        settled_at = run.run_to_quiescence()
        run.narration.append(
            f"initial convergence quiescent at sim t={settled_at:.1f}s"
        )
        if record_updates:
            run.start_recording()
        run.scenario_start = run.now
        run.narration.extend(apply_scenario(run, scenario))
        return run

    # ------------------------------------------------------------------

    @property
    def current_time(self) -> int:
        """The world's current timestamp (epoch seconds, UTC)."""
        return self.world.current_time

    def __repr__(self) -> str:
        return f"SimulatedInternet({self.world!r})"


# ----------------------------------------------------------------------
# Convergence scenario taxonomy
# ----------------------------------------------------------------------

#: Signature of a scenario builder: schedules perturbations on the run
#: (relative to ``run.scenario_start``) and returns narration lines.
ScenarioBuilder = Callable[[ConvergenceRun, random.Random], List[str]]


@dataclass(frozen=True)
class ConvergenceScenario:
    """One named perturbation schedule for the event engine."""

    name: str
    summary: str
    build: ScenarioBuilder


def _flappable_units(run: ConvergenceRun) -> List[Tuple[int, int]]:
    """Local NLRIs eligible for flapping, in deterministic order."""
    nlris: List[Tuple[int, int]] = []
    for asn in sorted(run.routers):
        router = run.routers[asn]
        for unit_id in sorted(router.local_units):
            nlris.append((asn, unit_id))
    return nlris


def _scenario_quiet(run: ConvergenceRun, rng: random.Random) -> List[str]:
    """No perturbations: pure initial convergence."""
    return ["quiet: no perturbations scheduled"]


#: Flap-storm shape: cycles per unit, cycle period, and down time
#: (seconds).  The 90 s period deliberately straddles sub-minute live
#: windows so per-window churn is nonzero on both edges of a cycle.
FLAP_CYCLES = 3
FLAP_PERIOD = 90.0
FLAP_DOWN = 45.0


def _scenario_flap_storm(run: ConvergenceRun, rng: random.Random) -> List[str]:
    """Withdraw/re-announce cycles over a sample of origin units."""
    units = _flappable_units(run)
    if not units:
        return ["flap-storm: no origin units to flap"]
    count = min(5, len(units))
    chosen = sorted(rng.sample(units, count))
    base = run.scenario_start + 30.0
    for index, (origin, unit_id) in enumerate(chosen):
        start = base + 7.0 * index
        for cycle in range(FLAP_CYCLES):
            run.schedule(start + FLAP_PERIOD * cycle,
                         run.withdraw_unit, origin, unit_id)
            run.schedule(start + FLAP_PERIOD * cycle + FLAP_DOWN,
                         run.announce_unit, origin, unit_id)
    targets = ", ".join(f"AS{o}/u{u}" for o, u in chosen)
    return [
        f"flap-storm: {FLAP_CYCLES} withdraw/re-announce cycles "
        f"({FLAP_PERIOD:.0f}s period) over {count} unit(s): {targets}"
    ]


def _scenario_leak(run: ConvergenceRun, rng: random.Random) -> List[str]:
    """A misconfigured multihomed AS leaks learned routes upward."""
    candidates = [
        asn
        for asn in sorted(run.routers)
        if len(run.routers[asn].providers) >= 2 and run.routers[asn].loc_rib
    ]
    if not candidates:
        candidates = [
            asn for asn in sorted(run.routers) if run.routers[asn].providers
        ]
    if not candidates:
        return ["leak: no AS with a provider to leak to"]
    leaker = candidates[rng.randrange(len(candidates))]
    victim = min(run.routers[leaker].providers)
    start = run.scenario_start + 60.0
    stop = start + 240.0
    run.schedule(start, run.start_leak, leaker, victim)
    run.schedule(stop, run.stop_leak, leaker, victim)
    return [
        f"leak: AS{leaker} exports peer/provider routes to provider "
        f"AS{victim} between t+60s and t+300s, then retracts"
    ]


def _scenario_failover(run: ConvergenceRun, rng: random.Random) -> List[str]:
    """RFC 8704-style multihoming failover: primary link down, then back."""
    candidates = [
        asn
        for asn in sorted(run.routers)
        if len(run.routers[asn].providers) >= 2 and run.routers[asn].local_units
    ]
    if not candidates:
        return ["failover: no multihomed origin available"]
    origin = candidates[rng.randrange(len(candidates))]
    primary = min(run.routers[origin].providers)
    down = run.scenario_start + 45.0
    up = down + 300.0
    run.schedule(down, run.set_session, origin, primary, False)
    run.schedule(up, run.set_session, origin, primary, True)
    # The re-established session behaves like a fresh reset: both ends
    # resync their full tables, the multihomed origin's traffic drains
    # back from the backup provider to the primary.
    return [
        f"failover: multihomed AS{origin} loses its session to primary "
        f"provider AS{primary} at t+45s, restores it at t+345s"
    ]


#: The scenario taxonomy, keyed by CLI name.  Every scenario reverts
#: its perturbations so the run reconverges to the equilibrium state.
SCENARIOS: Dict[str, ConvergenceScenario] = {
    "quiet": ConvergenceScenario(
        "quiet",
        "no perturbations; pure initial convergence",
        _scenario_quiet,
    ),
    "flap-storm": ConvergenceScenario(
        "flap-storm",
        "withdraw/re-announce cycles over sampled origin units",
        _scenario_flap_storm,
    ),
    "leak": ConvergenceScenario(
        "leak",
        "a multihomed AS leaks peer/provider routes to a provider",
        _scenario_leak,
    ),
    "failover": ConvergenceScenario(
        "failover",
        "multihoming failover: primary provider session down, then up",
        _scenario_failover,
    ),
}


def apply_scenario(run: ConvergenceRun, name: str) -> List[str]:
    """Schedule the named scenario on ``run``; returns narration lines.

    Target picking is seeded from the run's world seed and the scenario
    name, so the same world always perturbs the same ASes.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})")
    rng = derive_rng(run.seed, "scenario", name)
    return scenario.build(run, rng)
