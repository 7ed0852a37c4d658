"""Tests for the live pipeline's atomic state checkpoint (StreamCheckpoint)."""

import gzip
import json

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.engine.checkpoint import (
    STATE_NAME,
    STREAM_CHECKPOINT_VERSION,
    StreamCheckpoint,
    StreamCheckpointError,
)
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def boundary_record(collector="rrc00", peer_asn=1, peer_address="10.9.1.1",
                    timestamp=900):
    elements = [
        RouteElement(
            ElementType.RIB, Prefix.parse("10.0.1.0/24"),
            PathAttributes(ASPath.parse("1 5 9")),
        ),
        RouteElement(
            ElementType.RIB, Prefix.parse("10.0.2.0/24"),
            PathAttributes(ASPath.parse("1 6 8")),
        ),
    ]
    return RouteRecord(
        "rib", "ris", collector, peer_asn, peer_address, timestamp, elements
    )


CONFIG = {"window_seconds": 900, "family": None}


def test_load_without_checkpoint_returns_none(tmp_path):
    assert StreamCheckpoint(tmp_path / "none").load() is None


def test_save_load_round_trip(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    records = [boundary_record()]
    meta = {"records_consumed": 42, "vantage_points": [["rrc00", 1, "10.9.1.1"]]}
    checkpoint.save(3, 3600, records, CONFIG, counters={"live.windows": 3},
                    meta=meta)

    state, restored = checkpoint.load(config=CONFIG)
    assert state["window_index"] == 3
    assert state["window_end"] == 3600
    assert state["counters"] == {"live.windows": 3}
    assert state["meta"] == meta
    assert len(restored) == 1
    assert restored[0].peer_id == records[0].peer_id
    assert restored[0].elements == records[0].elements


def test_new_save_replaces_previous_boundary(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    checkpoint.save(2, 1800, [boundary_record(timestamp=1800)], CONFIG)

    state, _ = checkpoint.load()
    assert state["window_index"] == 2
    # the stale window-1 RIB file is swept away
    ribs = sorted(p.name for p in tmp_path.glob("rib-*.jsonl.gz"))
    assert ribs == ["rib-00000002.jsonl.gz"]


def test_config_mismatch_refuses_resume(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    with pytest.raises(StreamCheckpointError, match="different live"):
        checkpoint.load(config={**CONFIG, "window_seconds": 60})


def test_version_mismatch_is_an_error(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    state_path = tmp_path / STATE_NAME
    state = json.loads(state_path.read_text())
    state["version"] = STREAM_CHECKPOINT_VERSION + 1
    state_path.write_text(json.dumps(state))
    with pytest.raises(StreamCheckpointError, match="version"):
        checkpoint.load()


def test_corrupt_state_file_is_an_error(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    (tmp_path / STATE_NAME).write_text("{not json", encoding="utf-8")
    with pytest.raises(StreamCheckpointError, match="corrupt"):
        checkpoint.load()


def test_missing_rib_file_is_an_error(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    (tmp_path / "rib-00000001.jsonl.gz").unlink()
    with pytest.raises(StreamCheckpointError, match="cannot read"):
        checkpoint.load()


def test_truncated_rib_file_is_an_error(tmp_path):
    """A torn gzip write must fail loudly, never resume half a table."""
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    rib = tmp_path / "rib-00000001.jsonl.gz"
    rib.write_bytes(rib.read_bytes()[:-7])
    with pytest.raises(StreamCheckpointError, match="cannot read"):
        checkpoint.load()


WRONG_SHAPE_LINES = {
    "empty-object": "{}",
    "list": "[1]",
    "elements-not-a-list": json.dumps({
        "type": "rib", "project": "ris", "collector": "rrc00",
        "peer_asn": 1, "peer_addr": "10.9.1.1", "time": 900, "elements": 5,
    }),
}


@pytest.mark.parametrize("line", WRONG_SHAPE_LINES.values(),
                         ids=list(WRONG_SHAPE_LINES))
def test_wrong_shape_rib_line_is_a_checkpoint_error(tmp_path, line):
    """Valid JSON that is not a record fails typed, not as KeyError/TypeError."""
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    rib = tmp_path / "rib-00000001.jsonl.gz"
    with gzip.open(rib, "wt", encoding="utf-8") as handle:
        handle.write(line + "\n")
    with pytest.raises(StreamCheckpointError, match="cannot read"):
        checkpoint.load()


def test_empty_peer_record_survives_round_trip(tmp_path):
    """A dried-up feed keeps its VP identity through the checkpoint."""
    checkpoint = StreamCheckpoint(tmp_path)
    collector, peer_asn, peer_address = "rrc01", 7, "10.9.7.1"
    empty = RouteRecord(
        "rib", "ris", collector, peer_asn, peer_address, 900, []
    )
    checkpoint.save(1, 900, [boundary_record(), empty], CONFIG)
    _, restored = checkpoint.load()
    assert [r.peer_id for r in restored] == [
        ("rrc00", 1, "10.9.1.1"), ("rrc01", 7, "10.9.7.1")
    ]
    assert tuple(restored[1].elements) == ()


def test_no_tmp_litter_after_save(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
    assert leftovers == []


def test_clear_removes_state_and_ribs(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, [boundary_record()], CONFIG)
    checkpoint.clear()
    assert checkpoint.load() is None
    assert list(tmp_path.glob("rib-*.jsonl.gz")) == []
    checkpoint.clear()  # idempotent
