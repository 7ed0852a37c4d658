"""Touched-prefix update correlation vs the frozen full-index oracle.

``reference_correlation`` is the plain statement of the analysis: it
builds every group's membership and a reverse index over all of them.
:func:`repro.core.update_correlation.update_correlation` resolves only
the groups a record touches; these tests assert that both return the
same :attr:`UpdateCorrelation.groups` — kinds, ids, sizes, counts and
dict order — on every window of a live replay shaped like the
benchmark's, on MOAS worlds, with and without the ``max_size`` cut,
and for records whose prefixes the atom set does not hold.
"""

import random
from argparse import Namespace
from itertools import chain

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.cli import _world_params
from repro.core.atoms import compute_atoms
from repro.core.incremental import AtomIndex
from repro.core.update_correlation import update_correlation
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.scenario import SimulatedInternet
from repro.stream import live
from repro.stream.archive import RecordArchive
from repro.stream.bgpstream import BGPStream
from repro.stream.live import LiveConfig, LivePipeline
from repro.util.dates import parse_utc

from tests.core import reference_correlation

MAX_SIZES = (None, 7)


def flatten(correlation):
    """Groups as nested (kind, [(id, size, n_all, n_partial)]) lists.

    Lists keep the dict order, so equality also checks insertion order.
    """
    return [
        (
            kind,
            [
                (group_id, counts.size, counts.n_all, counts.n_partial)
                for group_id, counts in table.items()
            ],
        )
        for kind, table in correlation.groups.items()
    ]


def assert_matches_oracle(atom_set, records, max_size):
    records = list(records)
    ours = update_correlation(atom_set, records, max_size=max_size)
    oracle = reference_correlation.update_correlation(
        atom_set, records, max_size=max_size
    )
    assert ours.records_seen == oracle.records_seen
    assert flatten(ours) == flatten(oracle)
    return ours


# ----------------------------------------------------------------------
# Live-replay-shaped stream (the benchmark's world, windows and hours)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [20250701, 7])
def test_every_live_window_matches_oracle(seed, tmp_path, monkeypatch):
    stamp = parse_utc("2012-01-15 08:00")
    params = _world_params(Namespace(scale=200, seed=seed, peer_scale=0.04))
    internet = SimulatedInternet(params, start=stamp)
    archive = RecordArchive(tmp_path / "archive")
    archive.write_dump(internet.rib_records(stamp), dump_timestamp=stamp)
    archive.write_dump(
        internet.update_records(stamp, hours=12.0), dump_timestamp=stamp
    )

    checked = []
    original = live.window_correlation

    def compared(atoms, records, max_size=None):
        records = list(records)
        for cut in MAX_SIZES:
            result = assert_matches_oracle(atoms, records, cut)
            checked.append(sum(len(table) for table in result.groups.values()))
        return original(atoms, records, max_size=max_size)

    monkeypatch.setattr(live, "window_correlation", compared)
    records = chain(
        BGPStream(archive, record_type="rib").records(),
        BGPStream(archive, record_type="update").records(),
    )
    config = LiveConfig(window_seconds=900, max_windows=30, parity="off")
    run = LivePipeline(records, config).run()

    assert len(run.windows) == 30
    assert len(checked) == 2 * len(run.windows)
    assert sum(checked) > 0  # windows did touch groups


# ----------------------------------------------------------------------
# MOAS worlds
# ----------------------------------------------------------------------

PREFIXES = [Prefix.parse(f"10.2.{i}.0/24") for i in range(24)]
ABSENT = [Prefix.parse(f"192.168.{i}.0/24") for i in range(4)]
PEERS = [("rrc00", 11, "a"), ("rrc00", 12, "b"), ("rrc01", 13, "c")]
#: path tails after the peer ASN; several origins per prefix across
#: peers make MOAS atoms, and repeating tails make multi-prefix atoms
TAILS = [(5, 9), (6, 9), (7, 77), (8, 88), (5, 5, 9), (6, 77)]


def moas_snapshot(rng):
    snapshot = RIBSnapshot(100)
    for collector, peer_asn, address in PEERS:
        elements = []
        for prefix in PREFIXES:
            if rng.random() < 0.1:
                continue  # invisible at this peer
            tail = TAILS[rng.randrange(len(TAILS))] if rng.random() < 0.5 else (5, 9)
            path = ASPath.from_asns([peer_asn, *tail])
            elements.append(
                RouteElement(ElementType.RIB, prefix, PathAttributes(path))
            )
        snapshot.apply_record(
            RouteRecord("rib", "ris", collector, peer_asn, address, 100, elements)
        )
    return snapshot


def random_updates(rng, count=40):
    universe = PREFIXES + ABSENT
    records = []
    for index in range(count):
        chosen = rng.sample(universe, rng.randint(1, 8))
        elements = [
            RouteElement(
                ElementType.ANNOUNCEMENT, prefix,
                PathAttributes(ASPath.from_asns([11, 9])),
            )
            for prefix in chosen
        ]
        kind = "rib" if index % 13 == 12 else "update"
        records.append(
            RouteRecord(kind, "ris", "rrc00", 11, "a", 200 + index, elements)
        )
    return records


@pytest.mark.parametrize("max_size", [None, 7, 2])
def test_moas_worlds_match_oracle(max_size):
    moas_atoms = 0
    for seed in range(25):
        rng = random.Random(seed)
        snapshot = moas_snapshot(rng)
        records = random_updates(rng)
        batch = compute_atoms(snapshot)
        moas_atoms += sum(1 for atom in batch if len(atom.origins()) > 1)
        assert_matches_oracle(batch, records, max_size)
        # The incremental index hands out memoised origin sets; the
        # answer must not depend on where the atoms came from.
        assert_matches_oracle(AtomIndex(snapshot).atoms(), records, max_size)
    assert moas_atoms > 0


def test_records_outside_the_atom_set():
    snapshot = moas_snapshot(random.Random(3))
    atoms = compute_atoms(snapshot)
    absent_only = [
        RouteRecord(
            "update", "ris", "rrc00", 11, "a", 300,
            [RouteElement(ElementType.WITHDRAWAL, prefix) for prefix in ABSENT],
        )
    ]
    for max_size in MAX_SIZES:
        result = assert_matches_oracle(atoms, absent_only, max_size)
        assert result.records_seen == 1
        assert dict(result.groups) == {}


def test_empty_atom_set_and_no_records():
    empty = compute_atoms(RIBSnapshot(0))
    records = random_updates(random.Random(1), count=5)
    assert flatten(assert_matches_oracle(empty, records, None)) == []
    assert assert_matches_oracle(empty, [], 7).records_seen == 0
