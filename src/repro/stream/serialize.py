"""JSON (de)serialization of route records.

The wire format is one JSON object per record.  Paths are stored in
their textual dump form (``"1 2 {3,4}"``) and prefixes as strings, so
archives are greppable and diffable.

Readers decode through :func:`read_records`, which interns attribute
bundles per file: a RIB dump repeats one (path, communities, MED)
bundle for every prefix of an atom, and an update dump repeats it for
every re-announcement, so equal bundles decode to one shared
:class:`~repro.bgp.attributes.PathAttributes`.  Sharing is safe because
the object is immutable (its ``__setattr__`` raises), and it is what
lets identity-keyed caches downstream (the atom kernel's
``id(attributes)`` column cache) hit on decoded data as they do on
simulated data.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Any, Dict, Hashable, Iterator, Optional

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def element_to_dict(element: RouteElement) -> Dict[str, Any]:
    """Serialise one element to its JSON dict form."""
    payload: Dict[str, Any] = {
        "t": element.element_type.value,
        "p": str(element.prefix),
    }
    if element.attributes is not None:
        payload["path"] = str(element.attributes.as_path)
        if element.attributes.communities:
            payload["comm"] = sorted(
                str(c) for c in element.attributes.communities
            )
        if element.attributes.med:
            payload["med"] = element.attributes.med
    return payload


#: Entries a decode memo may hold before it is cleared.  A memo lives
#: as long as one file's or one MRT stream's read; the cap bounds it on
#: dumps with unusually many distinct bundles.
ATTRIBUTE_MEMO_CAP = 1 << 16

#: One reader's decode memo.  Here a ``(path text, communities, MED)``
#: key maps to the shared :class:`PathAttributes` and a bare path-text
#: key to the shared :class:`ASPath` (bundles that differ only in
#: communities or MED share their path object too); the MRT reader
#: keys its bundles by ``(raw attribute bytes, ASN width)``.
AttributeMemo = Dict[Hashable, Any]


def make_room(memo: AttributeMemo, entries: int = 1) -> None:
    """Clear ``memo`` if adding ``entries`` would take it past the cap."""
    if len(memo) + entries > ATTRIBUTE_MEMO_CAP:
        memo.clear()


class RecordFormatError(ValueError):
    """A JSON line that parses but does not have the shape of a record."""


def element_from_dict(
    payload: Dict[str, Any], memo: Optional[AttributeMemo] = None
) -> RouteElement:
    """Parse one element from its JSON dict form.

    Elements decoded through one ``memo`` that carry equal attributes
    share one :class:`PathAttributes` object, and equal paths one
    :class:`ASPath`; without a ``memo`` the call uses a fresh one.  A
    hit skips only the path and community parsing, never the element's
    prefix and type.
    """
    attributes = None
    if "path" in payload:
        if memo is None:
            memo = {}
        text = payload["path"]
        communities = payload.get("comm", ())
        med = payload.get("med", 0)
        key = (text, tuple(communities), med)
        attributes = memo.get(key)
        if attributes is None:
            make_room(memo, 2)
            as_path = memo.get(text)
            if as_path is None:
                as_path = memo[text] = ASPath.parse(text)
            attributes = memo[key] = PathAttributes(
                as_path, map(Community.parse, communities), med
            )
    return RouteElement(
        ElementType(payload["t"]), Prefix.parse(payload["p"]), attributes
    )


def record_to_json(record: RouteRecord) -> str:
    """Serialise a record to one JSON line."""
    payload = {
        "type": record.record_type,
        "project": record.project,
        "collector": record.collector,
        "peer_asn": record.peer_asn,
        "peer_addr": record.peer_address,
        "time": record.timestamp,
        "elements": [element_to_dict(e) for e in record.elements],
    }
    if record.corrupt_warning:
        payload["warning"] = record.corrupt_warning
    return json.dumps(payload, separators=(",", ":"))


def record_from_json(
    line: str, memo: Optional[AttributeMemo] = None
) -> RouteRecord:
    """Parse a record from one JSON line (``memo``: see element_from_dict)."""
    if memo is None:
        memo = {}
    payload = json.loads(line)
    return RouteRecord(
        payload["type"],
        payload["project"],
        payload["collector"],
        payload["peer_asn"],
        payload["peer_addr"],
        payload["time"],
        [element_from_dict(e, memo) for e in payload["elements"]],
        corrupt_warning=payload.get("warning", ""),
    )


def read_records(path: "os.PathLike[str] | str") -> Iterator[RouteRecord]:
    """Stream the records of one gzip JSON-lines file.

    Blank lines are skipped.  Each call owns one attribute memo for the
    file.  A line that is valid JSON but not a record (a missing field,
    a list where an object belongs) raises :class:`RecordFormatError`
    naming the file and line; invalid JSON raises its own
    :class:`json.JSONDecodeError` and damaged gzip its ``OSError`` or
    ``EOFError``.
    """
    memo: AttributeMemo = {}
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = record_from_json(line, memo)
            except (KeyError, TypeError, AttributeError) as error:
                raise RecordFormatError(
                    f"{path}: line {number}: malformed record ({error!r})"
                ) from error
            yield record
