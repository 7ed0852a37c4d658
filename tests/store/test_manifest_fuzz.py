"""Byte-mutation fuzz of the store manifest: damage fails typed.

A small two-snapshot store is written, then its ``manifest.json`` is
damaged at 1-8 spots by flipping, deleting or inserting bytes.
Opening the damaged store (``verify=False``, so only the manifest is
read) must either succeed or raise :class:`StoreError`; a
``UnicodeDecodeError``, ``AttributeError`` or any other exception
escaping :class:`AtomStore` is a reader bug.  Seeded, so a failure
names a reproducible trial.  Byte damage almost never yields valid JSON
of the wrong shape, so those cases are spelled out separately.
"""

import json
import random

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.rib import RIBSnapshot
from repro.core.atoms import compute_atoms
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.store import AtomStore, StoreError, StoreWriter
from repro.store.writer import MANIFEST_NAME

#: Damaged manifests opened per run.
TRIALS = 1500

PEERS = [("rrc00", 1, "10.9.1.1"), ("rrc00", 2, "10.9.2.1")]


def small_atoms(timestamp, flip):
    snapshot = RIBSnapshot(timestamp)
    for peer in PEERS:
        for index in range(12):
            middle = 5 if (index + flip) % 3 else 6
            snapshot.announce(
                peer,
                Prefix.parse(f"10.0.{index}.0/24"),
                PathAttributes(ASPath.parse(f"{peer[1]} {middle} 9")),
            )
    return compute_atoms(snapshot)


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
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest-fuzz") / "store"
    writer = StoreWriter(root, shard_rows=5)
    writer.add_snapshot("a", small_atoms(100, 0), label="a", role="base")
    writer.add_snapshot("b", small_atoms(200, 1), label="b", role="window")
    writer.close()
    return root


def test_store_opens_cleanly(store_root):
    with AtomStore(store_root) as store:
        assert [entry.key for entry in store.snapshots()] == ["a", "b"]
        assert len(store.atoms("b")) == len(small_atoms(200, 1))


def test_damage_fails_typed_or_not_at_all(store_root):
    manifest = store_root / MANIFEST_NAME
    pristine = manifest.read_bytes()
    rng = random.Random(3)
    escapes = []
    try:
        for trial in range(TRIALS):
            manifest.write_bytes(mutate(pristine, rng))
            try:
                AtomStore(store_root, verify=False).close()
            except StoreError:
                pass
            except Exception as error:  # noqa: BLE001 - the bug being hunted
                escapes.append(f"trial {trial}: {type(error).__name__}: {error}")
    finally:
        manifest.write_bytes(pristine)
    assert not escapes, "\n".join(escapes[:10])


def _set(path, value):
    """A manifest edit assigning ``value`` at the key path ``path``."""

    def edit(raw):
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return raw

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda raw: [raw],
        lambda raw: "manifest",
        lambda raw: None,
        _set(["pool"], "ab"),
        _set(["segments"], []),
        _set(["segments", "paths.seg"], 5),
        _set(["snapshots"], 5),
        _set(["snapshots", 0, "shards", 0, "first"], None),
        _set(["snapshots", 0, "shards", 0, "rows"], 1e400),
    ],
    ids=[
        "list", "string", "null", "pool-string", "segments-list", "segment-int",
        "snapshots-int", "shard-first-null", "shard-rows-infinite",
    ],
)
def test_wrong_shape_fails_typed(store_root, edit):
    manifest = store_root / MANIFEST_NAME
    pristine = manifest.read_bytes()
    try:
        manifest.write_text(json.dumps(edit(json.loads(pristine))))
        with pytest.raises(StoreError):
            AtomStore(store_root, verify=False)
    finally:
        manifest.write_bytes(pristine)
