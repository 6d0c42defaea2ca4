"""Output checks. Each returns (attempted, failed, notes) for one pass.

Stored rows are read back with plain `json`, not through the package, and
logical states are recomputed here by brute force from the stored records
and motion with the trailing-window rule: the state at `now` is derived from
the session's rows with ts in (now - W, now]. Events, flags and report rows
are compared with the reference recorded for the input variant: exactly for
events, flags, counts and strings, within REL_TOL for floats, so changes
that only reorder float arithmetic still pass.
"""

from __future__ import annotations

import base64
import math
import zlib
from datetime import datetime, timezone
from pathlib import Path

from workloads import read_store

REL_TOL = 1e-6
ABS_TOL = 1e-9
MOTION_TOL = 0.1  # px/frame at flow resolution, frames workload vs schedule
ROLES = ("patient", "staff", "other")
FLAGS = ("person_alone", "patient_alone", "supervised_by_staff", "moving")


def same(a, b) -> bool:
    """Structural equality; floats within REL_TOL, everything else exact."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    return a == b


def _primary(scores: dict) -> str:
    best = ROLES[0]
    for role in ROLES[1:]:
        if scores[role] > scores[best]:
            best = role
    return best


def expected_state(window: list, threshold: float) -> dict:
    """Logical state of the newest row from the rows of its trailing window."""
    persons = [sum(b["cls"] == "person" for b in r["boxes"]) for r in window]
    primaries = {
        _primary(role)
        for r in window
        for b, role in zip(r["boxes"], r["roles"])
        if b["cls"] == "person" and role is not None
    }
    scene = [r["motion"]["scene"] for r in window if "scene" in (r.get("motion") or {})]
    avg = sum(persons) / len(persons)
    return {
        "person_alone": avg < 2.0,
        "patient_alone": avg < 2.0 and "patient" in primaries,
        "supervised_by_staff": avg >= 2.0 and "staff" in primaries,
        "moving": bool(scene) and sum(scene) / len(scene) > threshold,
        "smoothed_person_count": avg,
    }


def state_failures(rows: dict, cfg) -> set:
    failed = set()
    window_s = cfg.smoothing_window_s
    for sid, srows in rows.items():
        for i, row in enumerate(srows):
            now = row["ts"]
            if i and now <= srows[i - 1]["ts"]:
                failed.add((sid, now))
                continue
            # ts strictly increase, so the window lies within the last window_s rows
            window = [r for r in srows[max(0, i - window_s + 1): i + 1] if now - window_s < r["ts"] <= now]
            if not same(row.get("logical"), expected_state(window, cfg.moving_threshold)):
                failed.add((sid, now))
    return failed


def presence(rows: dict, expected: dict) -> tuple[set, set]:
    """(all keys, failed keys): one stored row per input second, no more."""
    want = {(sid, ts) for sid, tss in expected.items() for ts in tss}
    got = [(sid, r["ts"]) for sid, srows in rows.items() for r in srows]
    failed = want.symmetric_difference(got)
    failed |= {k for k in got if got.count(k) > 1} if len(set(got)) != len(got) else set()
    return want | set(got), failed


def flag_code(row: dict) -> str:
    lg = row.get("logical") or {}
    return "%x" % sum(1 << i for i, k in enumerate(FLAGS) if lg.get(k))


def pack(text: str) -> str:
    return base64.b64encode(zlib.compress(text.encode(), 9)).decode()


def unpack(blob: str) -> str:
    return zlib.decompress(base64.b64decode(blob)).decode()


def crossing_failures(got: list, want: list) -> set:
    diff = {tuple(e) for e in got}.symmetric_difference(tuple(e) for e in want)
    return {(sid, ts) for sid, ts, _, _ in diff}


def _verified(ws, out: Path) -> str:
    try:
        ws.store.Store(out).verify()
    except Exception as e:  # any failure of the integrity check fails the pass
        return f"Store.verify failed: {e!r}"
    return ""


# ---- frames ----------------------------------------------------------------

def frames_digest(rows: dict, crossings: list) -> dict:
    return {
        "rows": [
            [r["ts"], flag_code(r), r.get("motion")]
            for srows in rows.values()
            for r in srows
        ],
        "crossings": crossings,
    }


def check_frames(wl, out: Path, ref) -> tuple[int, int, list]:
    expected = wl.expected
    attempted = sum(len(v) for v in expected.values())
    err = _verified(wl.ws, out)
    if err:
        return attempted, attempted, [err]
    rows, crossings = read_store(out)
    keys, failed = presence(rows, expected)
    failed |= state_failures(rows, wl.cfg)
    start = wl.spec.start_ts
    for sid, srows in rows.items():
        for r in srows:
            motion = r.get("motion")
            if r["ts"] == start:
                ok = motion is None
            else:
                shift = wl.scheduled_shift(r["ts"])
                ok = motion is not None and set(motion) == {"scene", "bed", "safety_zone"} and all(
                    abs(v - shift) <= MOTION_TOL for v in motion.values()
                )
            if not ok:
                failed.add((sid, r["ts"]))
    if ref is not None:
        sid = wl.spec.session_id
        got = {e[0]: e for e in frames_digest(rows, [])["rows"]}
        for entry in ref["rows"]:
            if not same(got.get(entry[0]), entry):
                failed.add((sid, entry[0]))
        failed |= crossing_failures(crossings, ref["crossings"])
    return len(keys), len(failed & keys), []


# ---- replay ----------------------------------------------------------------

def replay_digest(rows: dict, crossings: list) -> dict:
    return {
        "flags": {sid: pack("".join(flag_code(r) for r in srows)) for sid, srows in sorted(rows.items())},
        "crossings": crossings,
    }


def _carried(stored: dict, given: dict) -> bool:
    """The stored record and motion are the replayed input's."""
    keys = ("x", "y", "w", "h", "conf")
    return (
        len(stored["boxes"]) == len(given["boxes"])
        and all(
            s["cls"] == g["cls"] and all(math.isclose(s[k], g[k], rel_tol=1e-9, abs_tol=1e-9) for k in keys)
            for s, g in zip(stored["boxes"], given["boxes"])
        )
        and stored["roles"] == given["roles"]
        and stored.get("motion") == given.get("motion")
    )


def check_replay(wl, out: Path, ref) -> tuple[int, int, list]:
    attempted = sum(len(v) for v in wl.expected.values())
    err = _verified(wl.ws, out)
    if err:
        return attempted, attempted, [err]
    rows, crossings = read_store(out)
    keys, failed = presence(rows, wl.expected)
    failed |= state_failures(rows, wl.cfg)
    for sid, srows in rows.items():
        for r in srows:
            given = wl.inputs.get((sid, r["ts"]))
            if given is None or not _carried(r, given):
                failed.add((sid, r["ts"]))
    if ref is not None:
        for sid, blob in ref["flags"].items():
            srows = rows.get(sid, [])
            want = unpack(blob)
            if len(want) != len(srows):
                failed |= {(sid, ts) for ts in wl.expected.get(sid, [])}
                continue
            failed |= {(sid, r["ts"]) for r, c in zip(srows, want) if flag_code(r) != c}
        failed |= crossing_failures(crossings, ref["crossings"])
    return len(keys), len(failed & keys), []


# ---- reports ---------------------------------------------------------------

def _trend(t) -> list:
    return [t.session_id, t.date.isoformat(), t.hour, t.monitored_minutes, t.minutes]


def _cohort(c) -> list:
    return [c.hour, c.patient_days, c.monitored_minutes, c.minutes]


def reports_digest(result: dict) -> dict:
    return {
        "segments": result["segments"],
        "hourly": [_trend(t) for t in result["hourly"]],
        "cohort": [_cohort(c) for c in result["cohort"]],
        "assisted": [_trend(t) for t in result["assisted"]],
        "assisted_cohort": [_cohort(c) for c in result["assisted_cohort"]],
        "accuracy": [
            [r["session_id"], r["date"], r["period"], r["method"], r["accuracy"], r["seconds"]]
            for report in result["accuracy"]
            for r in report.to_dict()["rows"]
        ],
        "frames": result["frames"].to_dict(),
    }


def items(digest: dict) -> dict:
    """Flatten a reports digest into named items, one per row or metric."""
    out = {("segments",): digest["segments"]}
    for part in ("hourly", "cohort", "assisted", "assisted_cohort", "accuracy"):
        for i, entry in enumerate(digest[part]):
            out[(part, i)] = entry
    for key, value in digest["frames"].items():
        out[("frames", key)] = value
    return out


def check_reports(wl, result, ref) -> tuple[int, int, list]:
    if result is None:
        n = len(items(ref)) if ref else 1
        return n, n, ["no result"]
    failed = set()
    got_rows = {sid: [r.record.ts for r in rows] for sid, rows in result["rows"].items()}
    for sid, tss in wl.expected.items():
        ok = got_rows.get(sid) == tss
        minutes = {}
        for t in result["hourly"]:
            if t.session_id == sid:
                minutes[(t.date, t.hour)] = t.monitored_minutes
        per_hour = {}
        for ts in got_rows.get(sid, []):
            dt = datetime.fromtimestamp(ts, tz=timezone.utc)
            per_hour[(dt.date(), dt.hour)] = per_hour.get((dt.date(), dt.hour), 0) + 1
        ok = ok and minutes.keys() == per_hour.keys() and all(
            math.isclose(minutes[k], per_hour[k] / 60.0, rel_tol=1e-12) for k in per_hour
        )
        ok = ok and math.isclose(sum(minutes.values()), len(tss) / 60.0, rel_tol=1e-9)
        if not ok:
            failed.add(("monitored", sid))
    keys = {("monitored", sid) for sid in wl.expected}
    if ref is not None:
        got, want = items(reports_digest(result)), items(ref)
        keys |= set(got) | set(want)
        failed |= {k for k in keys if k[0] != "monitored" and not same(got.get(k), want.get(k))}
    return len(keys), len(failed), []


def digest(wl, out: Path) -> dict:
    """The reference form of one pass's outputs."""
    if wl.name == "reports":
        return reports_digest(wl.result)
    rows, crossings = read_store(out)
    return (frames_digest if wl.name == "frames" else replay_digest)(rows, crossings)


def check(wl, out: Path, ref) -> tuple[int, int, list]:
    if wl.name == "frames":
        return check_frames(wl, out, ref)
    if wl.name == "replay":
        return check_replay(wl, out, ref)
    return check_reports(wl, wl.result, ref)
