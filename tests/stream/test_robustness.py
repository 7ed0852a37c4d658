"""Failure-injection tests: the stream layer under damaged inputs."""

import gzip
import json

import pytest

from repro.net.prefix import PrefixError
from repro.stream.archive import RecordArchive
from repro.stream.serialize import record_from_json


class TestSerializerRobustness:
    def test_rejects_garbage_json(self):
        with pytest.raises(json.JSONDecodeError):
            record_from_json("{not json")

    def test_rejects_missing_fields(self):
        with pytest.raises(KeyError):
            record_from_json(json.dumps({"type": "rib"}))

    def test_rejects_bad_prefix(self):
        payload = {
            "type": "rib", "project": "ris", "collector": "rrc00",
            "peer_asn": 1, "peer_addr": "x", "time": 1,
            "elements": [{"t": "R", "p": "999.0.0.0/8", "path": "1 2"}],
        }
        with pytest.raises(PrefixError):
            record_from_json(json.dumps(payload))

    def test_rejects_bad_record_type(self):
        payload = {
            "type": "bogus", "project": "ris", "collector": "rrc00",
            "peer_asn": 1, "peer_addr": "x", "time": 1, "elements": [],
        }
        with pytest.raises(ValueError):
            record_from_json(json.dumps(payload))


class TestArchiveRobustness:
    def _dump_path(self, tmp_path):
        path = tmp_path / "ris" / "rrc00" / "rib" / "2020" / "01"
        path.mkdir(parents=True)
        return path / "1577836800.jsonl.gz"

    def test_truncated_gzip_raises(self, tmp_path):
        dump = self._dump_path(tmp_path)
        with gzip.open(dump, "wt") as handle:
            handle.write('{"type": "rib"')
        # Truncate the compressed stream itself.
        raw = dump.read_bytes()
        dump.write_bytes(raw[: len(raw) // 2])
        archive = RecordArchive(tmp_path)
        with pytest.raises(EOFError):
            list(archive.records())

    def test_corrupt_line_raises_cleanly(self, tmp_path):
        dump = self._dump_path(tmp_path)
        with gzip.open(dump, "wt") as handle:
            handle.write("this is not json\n")
        archive = RecordArchive(tmp_path)
        with pytest.raises(json.JSONDecodeError):
            list(archive.records())

    def test_blank_lines_skipped(self, tmp_path):
        dump = self._dump_path(tmp_path)
        payload = {
            "type": "rib", "project": "ris", "collector": "rrc00",
            "peer_asn": 1, "peer_addr": "x", "time": 1, "elements": [],
        }
        with gzip.open(dump, "wt") as handle:
            handle.write("\n\n" + json.dumps(payload) + "\n\n")
        archive = RecordArchive(tmp_path)
        assert len(list(archive.records())) == 1

    def test_stray_files_ignored(self, tmp_path):
        dump = self._dump_path(tmp_path)
        with gzip.open(dump, "wt") as handle:
            handle.write("")
        (tmp_path / "README.txt").write_text("not a dump")
        (dump.parent / "notes.md").write_text("also not a dump")
        archive = RecordArchive(tmp_path)
        assert list(archive.records()) == []

    def test_empty_archive(self, tmp_path):
        archive = RecordArchive(tmp_path / "fresh")
        assert archive.dumps() == []
        assert list(archive.records()) == []
