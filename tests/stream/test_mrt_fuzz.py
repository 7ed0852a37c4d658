"""Byte-mutation fuzz of the MRT decoder: damage fails typed, never stray.

Two writer-generated streams — BGP4MP updates (mixed 2- and 4-byte-ASN
sessions, with withdrawals) and a TABLE_DUMP_V2 dump (a peer index plus
RIB entries over five peers) — are damaged at 1-8 spots by flipping,
deleting or inserting bytes.  Decoding a damaged stream must either
complete or raise :class:`MRTError`; a ``ValueError``, ``struct.error``
or ``IndexError`` escaping the reader is a decoder bug.  Seeded, so a
failure names a reproducible trial.
"""

import io
import random

import pytest

from repro.bgp.attributes import Community, PathAttributes
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET, AF_INET6, Prefix
from repro.stream.mrt import MRTError, MRTWriter, read_mrt

#: Damaged variants decoded per stream.
TRIALS = 1500


def random_prefix(rng, family=AF_INET):
    if family == AF_INET6:
        length = rng.randint(16, 64)
        network = rng.getrandbits(length) << (128 - length)
    else:
        length = rng.randint(8, 32)
        network = rng.getrandbits(length) << (32 - length)
    return Prefix(family, network, length)


def random_bundle(rng, peer_asn):
    hops = [rng.choice((rng.randint(1, 64511), rng.randint(65536, 400000)))
            for _ in range(rng.randint(1, 5))]
    communities = tuple(
        Community(rng.randint(1, 65535), rng.randint(0, 65535))
        for _ in range(rng.randint(0, 1))
    )
    return PathAttributes(
        ASPath.from_asns([peer_asn] + hops),
        communities=communities,
        med=rng.choice((0, 0, rng.randint(1, 1000))),
    )


def bgp4mp_stream():
    """200 updates: announcements, withdrawals, IPv6, 2- and 4-byte ASNs."""
    rng = random.Random(20)
    buffer = io.BytesIO()
    writer = MRTWriter(buffer)
    peers = [(65001, "10.0.0.1"), (3257, "10.0.0.2"), (196615, "10.0.0.3")]
    for index in range(200):
        peer_asn, address = rng.choice(peers)
        family = AF_INET6 if rng.random() < 0.2 else AF_INET
        bundle = random_bundle(rng, peer_asn)
        announced = [
            (random_prefix(rng, family), bundle) for _ in range(rng.randint(0, 2))
        ]
        withdrawn = [random_prefix(rng, family) for _ in range(rng.randint(0, 2))]
        if not announced and not withdrawn:
            withdrawn = [random_prefix(rng, family)]
        writer.write_update(
            peer_asn, address, announced, withdrawn,
            timestamp=1_300_000_000 + index, as4=rng.random() < 0.5,
        )
    return buffer.getvalue()


def table_dump_stream():
    """A peer index plus 200 RIB entries over five peers."""
    rng = random.Random(21)
    buffer = io.BytesIO()
    writer = MRTWriter(buffer)
    peers = [(65001 + n, f"10.0.1.{n + 1}") for n in range(4)] + [(262144, "10.0.1.9")]
    writer.write_peer_index(peers, timestamp=1_300_000_000)
    for sequence in range(200):
        family = AF_INET6 if rng.random() < 0.2 else AF_INET
        entries = [
            (asn, address, random_bundle(rng, asn))
            for asn, address in rng.sample(peers, rng.randint(1, 2))
        ]
        writer.write_rib_entry(
            random_prefix(rng, family), entries,
            timestamp=1_300_000_000, sequence=sequence,
        )
    return buffer.getvalue()


def mutate(data, rng):
    """Flip, delete or insert bytes at 1-8 random spots."""
    damaged = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        spot = rng.randrange(len(damaged))
        action = rng.randrange(3)
        if action == 0:
            damaged[spot] ^= rng.randint(1, 255)
        elif action == 1:
            del damaged[spot]
        else:
            damaged.insert(spot, rng.randrange(256))
    return bytes(damaged)


@pytest.fixture(scope="module")
def streams():
    return {"bgp4mp": bgp4mp_stream(), "table_dump_v2": table_dump_stream()}


def test_streams_decode_cleanly(streams):
    updates = list(read_mrt(io.BytesIO(streams["bgp4mp"])))
    assert len(updates) == 200 and not any(r.is_corrupt for r in updates)
    assert any(e.is_withdrawal for r in updates for e in r.elements)
    assert any(e.prefix.family == AF_INET6 for r in updates for e in r.elements)
    ribs = list(read_mrt(io.BytesIO(streams["table_dump_v2"])))
    assert len({r.peer_id for r in ribs}) == 5
    assert sum(len(r.elements) for r in ribs) >= 200


@pytest.mark.parametrize("name", ["bgp4mp", "table_dump_v2"])
def test_damage_fails_typed_or_not_at_all(streams, name):
    rng = random.Random(1)
    escapes = []
    for trial in range(TRIALS):
        damaged = mutate(streams[name], rng)
        try:
            for _ in read_mrt(io.BytesIO(damaged)):
                pass
        except MRTError:
            pass
        except Exception as error:  # noqa: BLE001 - the bug being hunted
            escapes.append(f"trial {trial}: {type(error).__name__}: {error}")
    assert not escapes, "\n".join(escapes[:10])
