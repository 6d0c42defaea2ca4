"""Local canonical store: per-session, per-date JSONL segments plus a manifest.

Layout:

    <root>/manifest.json
    <root>/sessions/<session_id>/<YYYY-MM-DD>.jsonl
    <root>/sessions/<session_id>/crossings.jsonl      # only when produced

Segments are staged in memory and written whole at seal time; sealing a
session again on the same date overwrites that date's segment. The manifest
records a sha256 and row count per segment so integrity is checkable
offline. Writing the same content twice yields byte-identical files, which
makes re-ingest idempotent.

Readers follow the manifest, not the directory: `iter_rows` and `verify`
share one walk of its keys, which must read sessions/<session id>/<name>.jsonl
and must exist on disk, and a file the manifest does not list is never read.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Iterator, Optional

from .errors import MalformedRecord, NonMonotonicTimestamp, SchemaMismatch, ValidationError
from .geometry import CrossingEvent
from .model import check_session_id
from .schema import DECODER, ENCODER, SCHEMA_VERSION, CanonicalRow, dumps_row, loads_row, parse_jsonl

MANIFEST_NAME = "manifest.json"


@cache
def _date_str(day: int) -> str:
    """The UTC date of a day number, ts // 86400."""
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    """_sha256 of a file's bytes, read in 1 MiB chunks so no segment is held whole."""
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
        self.manifest_path.write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n"
        )

    def writer(self, session_id: str) -> "SessionWriter":
        """A session's writer; a bad manifest fails here, before any row is staged."""
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


class SessionWriter:
    """Stages one session's rows and seals them into dated segments."""

    def __init__(self, store: Store, session_id: str):
        self.store = store
        self.session_id = session_id
        self._rows: dict[str, list[str]] = {}
        self._crossings: list[str] = []
        self._last_ts: Optional[int] = None

    def append(self, row: CanonicalRow) -> None:
        rec = row.record
        if rec.session_id != self.session_id:
            raise ValidationError(
                f"row for session {rec.session_id} in writer for {self.session_id}"
            )
        if self._last_ts is not None and rec.ts <= self._last_ts:
            raise NonMonotonicTimestamp(
                f"session {self.session_id}: ts {rec.ts} after {self._last_ts}"
            )
        self._last_ts = rec.ts
        self._rows.setdefault(_date_str(rec.ts // 86400), []).append(dumps_row(row))

    def append_crossing(self, event: CrossingEvent) -> None:
        if event.session_id != self.session_id:
            raise ValidationError(
                f"crossing for session {event.session_id} in writer for {self.session_id}"
            )
        self._crossings.append(
            ENCODER.encode(
                {
                    "session_id": event.session_id,
                    "ts": event.ts,
                    "direction": event.direction,
                    "person_index": event.person_index,
                }
            )
        )

    def seal(self) -> list[str]:
        """Write segments and register them in the manifest; returns rel paths."""
        manifest = self.store.load_manifest()
        session_dir = self.store.root / "sessions" / self.session_id
        session_dir.mkdir(parents=True, exist_ok=True)
        sealed = []
        targets = {f"{d}.jsonl": lines for d, lines in sorted(self._rows.items())}
        if self._crossings:
            targets["crossings.jsonl"] = self._crossings
        for name, lines in targets.items():
            data = ("\n".join(lines) + "\n").encode()
            path = session_dir / name
            path.write_bytes(data)
            rel = str(path.relative_to(self.store.root))
            manifest["segments"][rel] = {"sha256": _sha256(data), "rows": len(lines)}
            sealed.append(rel)
        self.store._save_manifest(manifest)
        return sealed
