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
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Iterator, Optional

from .errors import NonMonotonicTimestamp, SchemaMismatch, ValidationError
from .geometry import CrossingEvent
from .model import check_session_id
from .schema import ENCODER, SCHEMA_VERSION, CanonicalRow, dumps_row, jsonl_lines, loads_row

MANIFEST_NAME = "manifest.json"


@cache
def _date_str(day: int) -> str:
    """The UTC date of a day number, ts // 86400."""
    return datetime.fromtimestamp(day * 86400, tz=timezone.utc).date().isoformat()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Store:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def load_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {"schema_version": SCHEMA_VERSION, "segments": {}}
        manifest = json.loads(self.manifest_path.read_text())
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ValidationError(
                f"store schema version {manifest.get('schema_version')} != {SCHEMA_VERSION}"
            )
        return manifest

    def _save_manifest(self, manifest: dict) -> None:
        manifest["segments"] = dict(sorted(manifest["segments"].items()))
        self.manifest_path.write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n"
        )

    def writer(self, session_id: str) -> "SessionWriter":
        check_session_id(session_id)
        return SessionWriter(self, session_id)

    def session_ids(self) -> list[str]:
        sessions_dir = self.root / "sessions"
        if not sessions_dir.exists():
            return []
        return sorted(p.name for p in sessions_dir.iterdir() if p.is_dir())

    def iter_rows(self, session_id: Optional[str] = None) -> Iterator[CanonicalRow]:
        """Rows in (session, date) order; within a segment, file order."""
        sessions = [session_id] if session_id else self.session_ids()
        for sid in sessions:
            for seg in sorted((self.root / "sessions" / sid).glob("*.jsonl")):
                if seg.name == "crossings.jsonl":
                    continue
                for i, line in jsonl_lines(seg):
                    try:
                        row = loads_row(line)
                    except SchemaMismatch as e:
                        raise SchemaMismatch(f"{seg}:{i}: {e}") from None
                    yield row

    def verify(self) -> int:
        """Recompute segment hashes against the manifest; return segment count."""
        manifest = self.load_manifest()
        for rel, meta in manifest["segments"].items():
            path = self.root / rel
            if not path.exists():
                raise ValidationError(f"manifest segment missing on disk: {rel}")
            digest = _sha256(path.read_bytes())
            if digest != meta["sha256"]:
                raise ValidationError(f"segment hash mismatch: {rel}")
        return len(manifest["segments"])


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
        session_dir = self.store.root / "sessions" / self.session_id
        session_dir.mkdir(parents=True, exist_ok=True)
        manifest = self.store.load_manifest()
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
