"""Local canonical store: per-session, per-date JSONL segments plus a manifest.

Layout:

    <root>/manifest.json
    <root>/sessions/<session_id>/<YYYY-MM-DD>.jsonl
    <root>/sessions/<session_id>/crossings.jsonl      # only when produced

A writer streams each segment into `<name>.tmp` next to it, CHUNK_LINES
encoded lines at a time, keeping the segment's sha256 and row count as it
goes, so its memory is constant however long the run. Sealing moves each
`.tmp` into place with `os.replace` and records the sha256 and row count in
the manifest, so integrity is checkable offline; the manifest itself is
replaced through `manifest.json.tmp`. Sealing a session again on the same
date overwrites that date's segment. A failed run discards its writers,
which deletes their `.tmp` files and the directories they made, so the store
is left as it was. Writing the same content twice yields byte-identical
files, which makes re-ingest idempotent.

Readers follow the manifest, not the directory: `iter_rows` and `verify`
share one walk of its keys, which must read sessions/<session id>/<name>.jsonl
and must exist on disk, and a file the manifest does not list (a `.tmp` file
among them) is never read.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import MalformedRecord, NonMonotonicTimestamp, SchemaMismatch, ValidationError
from .geometry import CrossingEvent
from .model import check_session_id
from .schema import DECODER, ENCODER, SCHEMA_VERSION, CanonicalRow, dumps_row, loads_row, parse_jsonl

MANIFEST_NAME = "manifest.json"
# Encoded lines a segment buffers before they are appended to its .tmp file:
# enough that a flush costs little per row, few enough that memory stays flat.
CHUNK_LINES = 512


@cache
def _date_str(day: int) -> str:
    """The UTC date of a day number, ts // 86400 (model.TS_MIN..TS_MAX keeps it in range)."""
    return datetime.fromtimestamp(day * 86400, tz=timezone.utc).date().isoformat()


def _key_parts(rel: str) -> list[str]:
    """A manifest key's path parts; it must read sessions/<session id>/<name>.jsonl."""
    parts = rel.split("/")
    if len(parts) == 3 and parts[0] == "sessions" and parts[2].endswith(".jsonl"):
        try:
            check_session_id(parts[1])
            check_session_id(parts[2])
            return parts
        except MalformedRecord:
            pass
    raise ValidationError(f"manifest segment key {rel!r} is not sessions/<session id>/<name>.jsonl")


def _file_sha256(path: Path) -> str:
    """The sha256 hex digest of a file's bytes, read in 1 MiB chunks so no segment is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


class Store:
    """A store rooted at a directory that the first seal creates; opening one makes nothing."""

    def __init__(self, root):
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def load_manifest(self) -> dict:
        path = self.manifest_path
        if not path.exists():
            return {"schema_version": SCHEMA_VERSION, "segments": {}}
        try:
            manifest = DECODER.decode(path.read_text())
        except (ValueError, SchemaMismatch) as e:
            raise ValidationError(f"{path}: invalid JSON: {e}") from None
        segments = manifest.get("segments") if isinstance(manifest, dict) else None
        if not isinstance(segments, dict) or not all(type(e) is dict for e in segments.values()):
            raise ValidationError(f"{path}: not an object whose 'segments' maps keys to objects")
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ValidationError(
                f"store schema version {manifest.get('schema_version')} != {SCHEMA_VERSION}"
            )
        return manifest

    def _save_manifest(self, manifest: dict) -> None:
        """Write the manifest whole to a .tmp file, then replace the old one with it."""
        tmp = self.root / f"{MANIFEST_NAME}.tmp"
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, self.manifest_path)

    def writer(self, session_id: str) -> "SessionWriter":
        """A session's writer; a bad manifest fails here, before any row is written."""
        check_session_id(session_id)
        self.load_manifest()
        return SessionWriter(self, session_id)

    def _segments(self) -> list[tuple[str, Path, dict]]:
        """(key, path, entry) of each manifest segment, by session then file name."""
        segments = self.load_manifest()["segments"]
        walk = [(rel, self.root / rel, segments[rel]) for rel in sorted(segments, key=_key_parts)]
        for rel, path, _ in walk:
            if not path.exists():
                raise ValidationError(f"manifest segment missing on disk: {rel}")
        return walk

    def iter_rows(self, session_id: Optional[str] = None) -> Iterator[CanonicalRow]:
        """Rows of the manifest's date segments by session, then date, then line."""
        for _, path, _ in self._segments():
            if path.name == "crossings.jsonl" or session_id not in (None, path.parent.name):
                continue
            yield from parse_jsonl(path, loads_row)

    def verify(self) -> int:
        """Recompute segment hashes against the manifest; return segment count."""
        segments = self._segments()
        for rel, path, entry in segments:
            if _file_sha256(path) != entry.get("sha256"):
                raise ValidationError(f"segment hash mismatch: {rel}")
        return len(segments)


class _Segment:
    """One segment being written: its file name, the lines not yet flushed to
    its .tmp file, and the running sha256 and row count of those that were."""

    __slots__ = ("name", "lines", "digest", "rows")

    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.digest = hashlib.sha256()
        self.rows = 0


class SessionWriter:
    """Streams one session's rows into dated .tmp segments and seals them into place.

    A row goes to its UTC date's segment and a crossing to crossings.jsonl.
    Each segment buffers CHUNK_LINES lines, then appends them to its .tmp file,
    opened and closed per flush so that no descriptor stays open between rows,
    and a date's buffer is flushed when the next date begins. The session
    directory is made at the first flush. After `seal` the writer starts
    afresh: rows appended then go to new segments, as with a new writer.
    """

    def __init__(self, store: Store, session_id: str):
        self.store = store
        self.session_id = session_id
        self.dir = store.root / "sessions" / session_id
        self._dates: list[_Segment] = []  # in date order; rows arrive in ts order
        self._day: Optional[int] = None  # the day number of self._dates[-1]
        self._crossings: Optional[_Segment] = None
        self._made: list[Path] = []  # directories this writer made, innermost first
        self._last_ts: Optional[int] = None

    def append(self, row: CanonicalRow) -> None:
        rec = row.record
        ts = rec.ts
        if rec.session_id != self.session_id:
            raise ValidationError(
                f"row for session {rec.session_id} in writer for {self.session_id}"
            )
        if self._last_ts is not None and ts <= self._last_ts:
            raise NonMonotonicTimestamp(
                f"session {self.session_id}: ts {ts} after {self._last_ts}"
            )
        self._last_ts = ts
        if ts // 86400 != self._day:
            self._start_day(ts // 86400)
        seg = self._dates[-1]
        seg.lines.append(dumps_row(row))
        if len(seg.lines) == CHUNK_LINES:
            self._flush(seg)

    def _start_day(self, day: int) -> None:
        if self._dates and self._dates[-1].lines:
            self._flush(self._dates[-1])
        self._dates.append(_Segment(f"{_date_str(day)}.jsonl"))
        self._day = day

    def append_crossing(self, event: CrossingEvent) -> None:
        if event.session_id != self.session_id:
            raise ValidationError(
                f"crossing for session {event.session_id} in writer for {self.session_id}"
            )
        if self._crossings is None:
            self._crossings = _Segment("crossings.jsonl")
        seg = self._crossings
        seg.lines.append(
            ENCODER.encode(
                {
                    "session_id": event.session_id,
                    "ts": event.ts,
                    "direction": event.direction,
                    "person_index": event.person_index,
                }
            )
        )
        if len(seg.lines) == CHUNK_LINES:
            self._flush(seg)

    def _segments(self) -> list[_Segment]:
        """Every segment of this writer, in seal order: dates, then crossings."""
        return self._dates + ([self._crossings] if self._crossings else [])

    def _make_dir(self) -> None:
        """Make the session directory, noting each directory made, if it is missing."""
        missing = []
        d = self.dir
        while not d.exists():
            missing.append(d)
            d = d.parent
        self.dir.mkdir(parents=True, exist_ok=True)
        self._made += missing

    def _flush(self, seg: _Segment) -> None:
        """Append a segment's buffered lines to its .tmp file; its first flush
        truncates a .tmp file that an earlier, killed run left behind."""
        data = ("\n".join(seg.lines) + "\n").encode()
        first = not seg.rows
        seg.rows += len(seg.lines)
        seg.lines.clear()
        seg.digest.update(data)
        if first:
            self._make_dir()
        with open(self.dir / f"{seg.name}.tmp", "wb" if first else "ab") as fh:
            fh.write(data)

    def seal(self) -> list[str]:
        """Move the segments into place and register them in the manifest; returns rel paths."""
        manifest = self.store.load_manifest()
        self._make_dir()
        sealed = []
        for seg in self._segments():
            if seg.lines:
                self._flush(seg)
            os.replace(self.dir / f"{seg.name}.tmp", self.dir / seg.name)
            rel = f"sessions/{self.session_id}/{seg.name}"
            manifest["segments"][rel] = {"sha256": seg.digest.hexdigest(), "rows": seg.rows}
            sealed.append(rel)
        self.store._save_manifest(manifest)
        self._dates, self._day, self._crossings, self._made = [], None, None, []
        return sealed

    def discard(self) -> None:
        """Delete this writer's .tmp files and the directories it made, if empty;
        what it sealed stays."""
        for seg in self._segments():
            (self.dir / f"{seg.name}.tmp").unlink(missing_ok=True)
        for d in self._made:
            try:
                d.rmdir()
            except OSError:  # it holds another writer's directory or a sealed file
                break


def discard(writers: Iterable[SessionWriter]) -> None:
    """Discard each writer of a failed run. At most one of them made the shared
    parent directories (the first to flush); it goes last, once the others'
    session directories inside them are gone."""
    for writer in sorted(writers, key=lambda w: len(w._made)):
        writer.discard()
