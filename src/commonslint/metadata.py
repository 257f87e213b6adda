"""measure_info files: parsing and serialization.

A measure_info file is a JSON object mapping measure ids to metadata
entries, with an optional reserved ``_references`` block holding the
bibliography. Entries keep their raw key/value data verbatim so that
unknown keys, nulls and legacy shapes survive a parse/serialize round
trip untouched; typed views (sources, citations) normalize on read only.

``parse_json`` is the package's one JSON reader, so malformed or too deeply
nested JSON input is a ParseError in every command.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Iterator

from .errors import DuplicateKeyError, ParseError
from .schema import REFERENCES_KEY


@dataclass(frozen=True)
class SourceRef:
    """One provenance record under an entry's ``sources`` element."""

    name: str
    url: str | None = None
    location: str | None = None
    date_accessed: str | None = None


@dataclass(frozen=True)
class ReferenceEntry:
    """One bibliography record; fields are free key/value pairs."""

    ref_id: str
    fields: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MeasureEntry:
    """One measure's metadata record.

    ``data`` is the raw parsed JSON object for the entry; key presence in
    ``data`` distinguishes absent from blank elements.
    """

    measure_id: str
    data: dict = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    @property
    def citations(self) -> list[str]:
        """Citation keys, normalized to a list (legacy single strings accepted)."""
        raw = self.data.get("citations")
        if raw is None:
            return []
        if isinstance(raw, str):
            return [raw] if raw else []
        if isinstance(raw, list):
            return [c for c in raw if isinstance(c, str)]
        return []

    @property
    def sources(self) -> list[SourceRef]:
        """Source records, normalized to a list (legacy single objects accepted)."""
        raw = self.data.get("sources")
        if raw is None:
            return []
        items = raw if isinstance(raw, list) else [raw]
        out = []
        for item in items:
            if not isinstance(item, dict):
                continue
            out.append(
                SourceRef(
                    name=str(item.get("name", "")),
                    url=item.get("url"),
                    location=item.get("location"),
                    date_accessed=_as_opt_str(item.get("date_accessed")),
                )
            )
        return out


def _as_opt_str(value: Any) -> str | None:
    if value is None:
        return None
    return value if isinstance(value, str) else str(value)


@dataclass(frozen=True)
class MeasureInfoFile:
    """A parsed measure_info file.

    ``entries`` preserves file order; ``references`` is None when the file
    has no ``_references`` key at all (distinct from an empty block).
    """

    path: str
    entries: dict[str, MeasureEntry]
    references: dict[str, ReferenceEntry] | None = None

    def __iter__(self) -> Iterator[MeasureEntry]:
        return iter(self.entries.values())

    def reference_ids(self) -> frozenset[str]:
        return frozenset(self.references or {})


def _reject_duplicates(pairs: list[tuple[str, Any]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise DuplicateKeyError(key)
        obj[key] = value
    return obj


# The most arrays and objects a JSON input may hold open at once. The limit
# is fixed, so a document reads the same from any call depth, and it is well
# under the interpreter's recursion limit, which the decoder and the walks
# over parsed values (expansion, serialization) count their nesting against.
MAX_JSON_DEPTH = 200
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_NOT_BRACKET = bytes(sorted(set(range(256)) - set(b"[]{}")))
_NESTING_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _too_deep(text: str) -> bool:
    """Whether more than MAX_JSON_DEPTH arrays and objects are open at once
    anywhere in ``text``; brackets inside strings do not count."""
    if text.count("[") + text.count("{") <= MAX_JSON_DEPTH:
        return False
    # No byte of a multi-byte UTF-8 sequence is a bracket.
    unquoted = _JSON_STRING.sub("", text).encode("utf-8", "surrogatepass")
    steps = map(_NESTING_STEP.__getitem__, unquoted.translate(None, _NOT_BRACKET))
    return max(accumulate(steps), default=0) > MAX_JSON_DEPTH


def parse_json(text: str, path: str | None = None, object_pairs_hook=None) -> Any:
    """``json.loads`` that raises ParseError (stage "json") for any input it cannot read.

    A syntax error carries its line and byte offset. Nesting deeper than
    MAX_JSON_DEPTH is a ParseError too, whatever the caller's stack depth.
    """
    if _too_deep(text):
        raise ParseError("nested too deeply", path=path)
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=exc.lineno, offset=exc.pos) from exc
    except RecursionError as exc:
        raise ParseError("nested too deeply", path=path) from exc


def decode_utf8(raw: bytes, path: str | None = None) -> str:
    """``raw`` decoded as UTF-8; ParseError (stage "json") when it is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=path) from exc


def parse_measure_info(raw: bytes | str, path: str = "measure_info.json") -> MeasureInfoFile:
    """Parse raw file content into a MeasureInfoFile.

    Raises ParseError (stage "json") for malformed JSON with the line and
    byte offset of the first syntax error, or for nesting too deep to
    decode, ParseError (stage "structure")
    when the document is valid JSON but not shaped like a measure_info
    file, and DuplicateKeyError when any object repeats a key. Unknown
    entry keys are preserved; rejecting them is validation's job.
    """
    text = decode_utf8(raw, path) if isinstance(raw, bytes) else raw
    try:
        document = parse_json(text, path, object_pairs_hook=_reject_duplicates)
    except DuplicateKeyError as exc:
        raise DuplicateKeyError(exc.key, path=path) from exc

    if not isinstance(document, dict):
        raise ParseError(
            "measure_info root must be a JSON object", path=path, stage="structure"
        )

    references: dict[str, ReferenceEntry] | None = None
    entries: dict[str, MeasureEntry] = {}
    for key, value in document.items():
        if key == REFERENCES_KEY:
            if not isinstance(value, dict):
                raise ParseError(
                    f"{REFERENCES_KEY} must be a JSON object",
                    path=path,
                    stage="structure",
                )
            references = {
                ref_id: ReferenceEntry(ref_id=ref_id, fields=fields if isinstance(fields, dict) else {"value": fields})
                for ref_id, fields in value.items()
            }
            continue
        if not isinstance(value, dict):
            raise ParseError(
                f"measure entry {key!r} must be a JSON object",
                path=path,
                stage="structure",
            )
        entries[key] = MeasureEntry(measure_id=key, data=value)

    return MeasureInfoFile(path=path, entries=entries, references=references)


def load_measure_info(file_path) -> MeasureInfoFile:
    """Read and parse a measure_info file from disk."""
    from pathlib import Path

    p = Path(file_path)
    return parse_measure_info(p.read_bytes(), path=str(p))


def serialize_measure_info(mi: MeasureInfoFile) -> str:
    """Serialize back to the canonical on-disk form.

    UTF-8 JSON, 2-space indentation, lexicographically sorted keys,
    trailing newline. All keys and values are preserved.
    """
    payload: dict[str, Any] = {mid: entry.data for mid, entry in mi.entries.items()}
    if mi.references is not None:
        payload[REFERENCES_KEY] = {rid: ref.fields for rid, ref in mi.references.items()}
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
