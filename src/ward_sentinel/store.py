"""Local canonical store: per-session, per-date JSONL segments plus a manifest.

Layout:

    <root>/manifest.json
    <root>/sessions/<session_id>/<YYYY-MM-DD>.jsonl
    <root>/sessions/<session_id>/crossings.jsonl      # only when produced

One writer takes every session of a run (`with store.writer() as writer:`)
and checks the manifest at the first row. It streams each segment into
`<name>.tmp` next to it, CHUNK_LINES encoded lines at a time, keeping the
segment's sha256 and row count as it goes, so its memory is constant however
long the run. Sealing reads the manifest again, moves every `.tmp` into place
with `os.replace`, then records each sha256 and row count in one manifest
save, through `manifest.json.tmp`, so integrity is checkable offline. Sealing
a session again on the same date overwrites that date's segment. A run that
raises, while writing or sealing, deletes its `.tmp` files and the empty
directories it made and leaves the manifest as it was; a segment already
moved into place stays on disk. Writing the same content twice yields
byte-identical files, which makes re-ingest idempotent.

Readers follow the manifest, not the directory: `iter_rows` and `verify`
share one walk of its keys, which must read sessions/<session id>/<name>.jsonl
and must exist on disk, and a file the manifest does not list (a `.tmp` file
among them) is never read.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Iterator, Optional

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
        """Write the manifest whole to a .tmp file, then replace the old one with
        it. If either step fails, the .tmp file is removed and the error raised."""
        tmp = self.root / f"{MANIFEST_NAME}.tmp"
        try:
            tmp.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, self.manifest_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @contextmanager
    def writer(self) -> Iterator["SessionWriter"]:
        """One run's writer. The block's clean exit seals it; any exception,
        raised in the block or while sealing, discards it and propagates."""
        writer = SessionWriter(self)
        try:
            yield writer
            writer.seal()
        except BaseException:
            writer.discard()
            raise

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
    """One segment being written: its final path and the .tmp path beside it,
    the lines not yet flushed to the .tmp file, and the running sha256 and row
    count of those that were."""

    __slots__ = ("path", "tmp", "lines", "digest", "rows")

    def __init__(self, path: Path):
        self.path = path
        self.tmp = path.with_name(f"{path.name}.tmp")
        self.lines: list[str] = []
        self.digest = hashlib.sha256()
        self.rows = 0


class _Session:
    """One session of a run: its directory, its date segments in date order
    (rows arrive in ts order), the day number of the last one, its crossings
    segment, and the ts of its last row."""

    __slots__ = ("dir", "dates", "day", "crossings", "last_ts")

    def __init__(self, dir: Path):
        self.dir = dir
        self.dates: list[_Segment] = []
        self.day: Optional[int] = None
        self.crossings: Optional[_Segment] = None
        self.last_ts: Optional[int] = None

    def segments(self) -> list[_Segment]:
        """Every segment of the session, in seal order: dates, then crossings."""
        return self.dates + ([self.crossings] if self.crossings else [])


class SessionWriter:
    """Streams one run's rows into per-session dated .tmp segments and seals
    them all under one manifest save.

    A row goes to its session's UTC date segment and a crossing to that
    session's crossings.jsonl. A session's id is checked when it is first
    seen, and the manifest when the first session is. Each segment buffers
    CHUNK_LINES lines, then appends them to its .tmp file, opened and closed
    per flush so that no descriptor stays open between rows, and a date's
    buffer is flushed when the session's next date begins.
    """

    def __init__(self, store: Store):
        self.store = store
        self.sealed: list[str] = []
        self._sessions: dict[str, _Session] = {}
        self._made: list[Path] = []  # directories this writer made, newest first

    def _open(self, session_id: str) -> _Session:
        """A session seen for the first time; a bad id, or at the run's first
        row a bad manifest, fails here, before any of its rows is written."""
        check_session_id(session_id)
        if not self._sessions:
            self.store.load_manifest()
        return self._sessions.setdefault(session_id, _Session(self.store.root / "sessions" / session_id))

    def append(self, row: CanonicalRow) -> None:
        rec = row.record
        ts = rec.ts
        s = self._sessions.get(rec.session_id) or self._open(rec.session_id)
        if s.last_ts is not None and ts <= s.last_ts:
            raise NonMonotonicTimestamp(f"session {rec.session_id}: ts {ts} not after {s.last_ts}")
        s.last_ts = ts
        if ts // 86400 != s.day:
            self._start_day(s, ts // 86400)
        seg = s.dates[-1]
        seg.lines.append(dumps_row(row))
        if len(seg.lines) == CHUNK_LINES:
            self._flush(seg)

    def _start_day(self, s: _Session, day: int) -> None:
        if s.dates and s.dates[-1].lines:
            self._flush(s.dates[-1])
        s.dates.append(_Segment(s.dir / f"{_date_str(day)}.jsonl"))
        s.day = day

    def append_crossing(self, event: CrossingEvent) -> None:
        s = self._sessions.get(event.session_id) or self._open(event.session_id)
        if s.crossings is None:
            s.crossings = _Segment(s.dir / "crossings.jsonl")
        seg = s.crossings
        seg.lines.append(ENCODER.encode(asdict(event)))
        if len(seg.lines) == CHUNK_LINES:
            self._flush(seg)

    def _flush(self, seg: _Segment) -> None:
        """Append a segment's buffered lines to its .tmp file. Its first flush
        makes the session directory, noting each directory made, and truncates
        a .tmp file that an earlier, killed run left behind."""
        data = ("\n".join(seg.lines) + "\n").encode()
        first = not seg.rows
        seg.rows += len(seg.lines)
        seg.lines.clear()
        seg.digest.update(data)
        if first:
            missing = []
            d = seg.path.parent
            while not d.exists():
                missing.append(d)
                d = d.parent
            seg.path.parent.mkdir(parents=True, exist_ok=True)
            self._made[:0] = missing  # innermost first, so the list stays newest first
        with open(seg.tmp, "wb" if first else "ab") as fh:
            fh.write(data)

    def seal(self) -> list[str]:
        """Flush every segment, move each .tmp file into place, then save the
        manifest once; returns the rel paths sealed, also kept as `sealed`.
        The manifest is read again first, so that entries another run sealed
        meanwhile are kept. A run without rows writes nothing."""
        segments = [seg for s in self._sessions.values() for seg in s.segments()]
        for seg in segments:
            if seg.lines:
                self._flush(seg)
        sealed = [seg.path.relative_to(self.store.root).as_posix() for seg in segments]
        if segments:
            manifest = self.store.load_manifest()
            for seg in segments:
                os.replace(seg.tmp, seg.path)
            for rel, seg in zip(sealed, segments):
                manifest["segments"][rel] = {"sha256": seg.digest.hexdigest(), "rows": seg.rows}
            self.store._save_manifest(manifest)
        self.sealed = sealed
        return sealed

    def discard(self) -> None:
        """Delete the run's .tmp files, then each directory it made that is
        left empty; the manifest is not touched."""
        for s in self._sessions.values():
            for seg in s.segments():
                seg.tmp.unlink(missing_ok=True)
        for d in self._made:
            try:
                d.rmdir()
            except OSError:  # it holds a segment moved into place before sealing failed
                pass
