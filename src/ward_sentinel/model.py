"""Shared domain vocabulary: frames, detections, roles, configuration.

All types here are immutable after construction and safe to share across
threads. Timestamps are whole seconds UTC (the capture cadence is 1 fps, so
sub-second precision carries no information).

How records are built: the per-row record types (BoundingBox,
RoleDistribution and DetectionRecord here; MotionRecord, LogicalState,
CanonicalRow and SourceItem elsewhere) are @dataclass(frozen=True, slots=True)
classes decorated with slot_init. The __init__ a frozen dataclass generates
sets each field through object.__setattr__; slot_init's stores each argument
through its slot's member descriptor instead, which is cheaper per field, and
then runs __post_init__, where every value is checked. Parameters, defaults,
assignment (FrozenInstanceError), replace, fields, eq, hash, repr and pickling
are the dataclass's own.

What a record type holds: what its stored object holds (schema), each value
in the one type it is stored as. A box class is the CLASSES entry itself, a
session id exactly a str and a ts exactly an int; a MotionRecord holds no
session id or ts, since a stored row writes them once, from its record.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, field, fields
from math import inf, isfinite
from numbers import Integral, Real
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import MalformedRecord, SchemaMismatch

CLASSES = ("person", "bed", "chair")
ROLES = ("patient", "staff", "other")

# Fixed working resolutions of the processing chain (width, height).
ANALYSIS_DIMS = (1088, 612)
DETECTOR_DIMS = (608, 608)
FLOW_DIMS = (480, 270)

ROLE_SUM_TOL = 1e-9
_ROLE_SET = frozenset(ROLES)
# Each class name to the CLASSES entry itself, so that every box shares it.
_SHARED_CLASS = {c: c for c in CLASSES}


def slot_init(cls):
    """Replace the __init__ of a @dataclass(frozen=True, slots=True) class with
    one that stores each init field through cls.__dict__[name].__set__.

    The new __init__ has the same parameters, order, defaults and annotations,
    and calls __post_init__ when the class has one. A class this cannot rebuild
    exactly (not frozen and slotted, or with a default_factory, a kw_only
    field, an InitVar or a non-init field with a default) raises TypeError.
    """
    old = cls.__init__
    init_fields = [f for f in fields(cls) if f.init]
    names = [f.name for f in init_fields]
    if (
        not cls.__dataclass_params__.frozen
        or "__slots__" not in cls.__dict__
        or any(f.kw_only or f.default_factory is not MISSING for f in init_fields)
        or any(f.default is not MISSING for f in fields(cls) if not f.init)
        or list(inspect.signature(old).parameters)[1:] != names
    ):
        raise TypeError(f"slot_init cannot rebuild the __init__ of {cls.__qualname__}")
    closure = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    closure.update((f"_default_{f.name}", f.default) for f in init_fields if f.default is not MISSING)
    params = [n if f.default is MISSING else f"{n}=_default_{n}" for n, f in zip(names, init_fields)]
    body = [f"        _set_{n}(self, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("        self.__post_init__()")
    source = (
        f"def make({', '.join(closure)}):\n"
        f"    def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
        + "\n    return __init__\n"
    )
    namespace = {}
    exec(source, {}, namespace)
    init = namespace["make"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = dict(old.__annotations__)
    cls.__init__ = init
    return cls


@dataclass(frozen=True)
class Frame:
    """One captured image at a whole-second timestamp.

    pixels is a (height, width, channels) uint8 buffer with 3 channels (RGB)
    or 1 (NIR), each dimension at least 1; the frame's size is its shape. The
    buffer is marked read-only on construction.
    """

    session_id: str
    ts: int
    pixels: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        shape = self.pixels.shape
        if len(shape) != 3 or shape[2] not in (1, 3):
            raise ValueError(f"pixel buffer shape {shape} is not (height, width, 1 or 3)")
        if shape[0] < 1 or shape[1] < 1:
            raise ValueError("frame dimensions must be >= 1")
        if self.pixels.dtype != np.uint8:
            raise ValueError("pixel buffer must be uint8")
        self.pixels.setflags(write=False)


@slot_init
@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned detection box, top-left origin, pixel units.

    x/y may be negative before validation; validate_record clamps boxes to
    frame bounds. Checked once on construction or decode: cls is a CLASSES
    entry, and each coordinate and the confidence is a real number, not a bool
    (an Integral kept as an int, any other real as a float), geometry finite,
    width and height positive, confidence in [0, 1]. cls is then the CLASSES
    entry itself, so every box shares it: a str of any type (numpy.str_ or
    another subclass) maps to the entry equal to its text, str.__str__(cls).
    """

    cls: str
    x: float
    y: float
    w: float
    h: float
    confidence: float

    def __post_init__(self):
        cls = self.cls
        # A str subclass (numpy.str_ included) is its text, whatever its
        # __eq__ and __hash__ say; anything else is no class.
        text = cls if type(cls) is str else str.__str__(cls) if issubclass(type(cls), str) else None
        shared = _SHARED_CLASS.get(text)
        if shared is None:
            raise ValueError(f"unknown box class {cls!r}")
        if shared is not cls:
            _set_box_cls(self, shared)
        x, y, w, h, conf = self.x, self.y, self.w, self.h, self.confidence
        if not (
            (type(x) is float or type(x) is int) and (type(y) is float or type(y) is int)
            and (type(w) is float or type(w) is int) and (type(h) is float or type(h) is int)
            and (type(conf) is float or type(conf) is int)
        ):
            x, y, w, h, conf = (
                real_number(f"box {k}", v) for k, v in zip(("x", "y", "w", "h", "conf"), (x, y, w, h, conf))
            )
            for name, v in zip(("x", "y", "w", "h", "confidence"), (x, y, w, h, conf)):
                object.__setattr__(self, name, v)
        try:
            if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
                raise ValueError(f"box geometry must be finite: {x}, {y}, {w}, {h}")
        except OverflowError:  # an int of the fast path that no float holds
            for k, v in zip("xywh", (x, y, w, h)):
                real_number(f"box {k}", v)
        if w <= 0 or h <= 0:
            raise ValueError("box width/height must be positive")
        if not 0.0 <= conf <= 1.0:
            raise ValueError("confidence must be in [0, 1]")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    def clamped(self, frame_w: float, frame_h: float) -> "BoundingBox":
        """Intersect with the frame rectangle, preserving the far edges; self if unchanged."""
        x, y, w, h = self.x, self.y, self.w, self.h
        # min(max(v, 0.0), frame_w), without the calls: v itself when in range.
        left = 0.0 if x < 0.0 else frame_w if x > frame_w else x
        top = 0.0 if y < 0.0 else frame_h if y > frame_h else y
        new_w = (0.0 if x + w < 0.0 else frame_w if x + w > frame_w else x + w) - left
        new_h = (0.0 if y + h < 0.0 else frame_h if y + h > frame_h else y + h) - top
        if new_w <= 0 or new_h <= 0:
            raise MalformedRecord(
                f"box {self.cls} ({x},{y},{w},{h}) lies outside a {frame_w}x{frame_h} frame"
            )
        # Equal values and types store equal bytes, so the box itself can stay.
        if (
            left == x and top == y and new_w == w and new_h == h
            and type(new_w) is type(w) and type(new_h) is type(h)
        ):
            return self
        return BoundingBox(self.cls, left, top, new_w, new_h, self.confidence)


# Stores through the slot, as slot_init's __init__ does: half the cost of
# object.__setattr__, once per decoded box.
_set_box_cls = BoundingBox.__dict__["cls"].__set__


def best_bed(boxes: Iterable[BoundingBox]) -> Optional[BoundingBox]:
    """Which bed a frame shows: the bed box of highest confidence, the first
    of equals, or None without a bed."""
    return max((b for b in boxes if b.cls == "bed"), key=attrgetter("confidence"), default=None)


@slot_init
@dataclass(frozen=True, slots=True)
class RoleDistribution:
    """Per-person scores over {patient, staff, other}, summing to one.

    Checked once on construction or decode (each score a real number, not a
    bool, kept as in BoundingBox, in [0, 1]), which fixes the primary role.
    scores is then a new dict keyed by the ROLES entries themselves, in ROLES
    order whatever the input's order. Ties in argmax break in the fixed order
    patient > staff > other: the downstream safety logic prefers assuming a
    patient is present. A distribution is its scores, as a stored row is:
    uniform() marks attribute_roles' fallback, which no split can equal.
    """

    scores: Mapping[str, float]
    _primary: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = self.scores
        if not (type(scores) is dict and scores.keys() == _ROLE_SET) and set(scores) != _ROLE_SET:
            raise ValueError(f"role scores must cover exactly {ROLES}")
        p, s, o = scores["patient"], scores["staff"], scores["other"]
        if not (
            (type(p) is float or type(p) is int) and (type(s) is float or type(s) is int)
            and (type(o) is float or type(o) is int)
        ):
            p, s, o = (real_number(f"score for {r}", v) for r, v in zip(ROLES, (p, s, o)))
        scores = {"patient": p, "staff": s, "other": o}  # keys: the ROLES entries, in order
        if not (0.0 <= p <= 1.0 and 0.0 <= s <= 1.0 and 0.0 <= o <= 1.0):
            role = next(r for r in ROLES if not 0.0 <= scores[r] <= 1.0)
            raise ValueError(f"score for {role} out of [0, 1]: {scores[role]}")
        total = p + s + o
        if abs(total - 1.0) > ROLE_SUM_TOL:
            raise ValueError(f"role scores sum to {total}, expected 1")
        _set_role_scores(self, scores)
        _set_role_primary(self, "patient" if p >= s and p >= o else "staff" if s >= o else "other")

    def primary(self) -> str:
        return self._primary

    @staticmethod
    def uniform() -> "RoleDistribution":
        return RoleDistribution({r: 1.0 / 3.0 for r in ROLES})


# As _set_box_cls, for the two fields every RoleDistribution sets after __init__.
_set_role_scores = RoleDistribution.__dict__["scores"].__set__
_set_role_primary = RoleDistribution.__dict__["_primary"].__set__


@slot_init
@dataclass(frozen=True, slots=True)
class DetectionRecord:
    """All detections for one session-second.

    roles is parallel to boxes: a RoleDistribution exactly where the box is a
    person, None elsewhere. session_id and ts are checked on construction.
    """

    session_id: str
    ts: int
    boxes: tuple[BoundingBox, ...]
    roles: tuple[Optional[RoleDistribution], ...]

    def __post_init__(self):
        check_session_and_ts(self.session_id, self.ts)
        if type(self.boxes) is not tuple:
            object.__setattr__(self, "boxes", tuple(self.boxes))
        if type(self.roles) is not tuple:
            object.__setattr__(self, "roles", tuple(self.roles))


@dataclass(frozen=True)
class FlowParams:
    """Dense optical flow parameters (fixed in production deployments)."""

    pyr_scale: float = 0.5
    levels: int = 3
    winsize: int = 15
    iterations: int = 3
    poly_n: int = 5
    poly_sigma: float = 1.2

    def __post_init__(self):
        if not 0.0 < real_number("pyr_scale", self.pyr_scale) < 1.0:
            raise ValueError("pyr_scale must be in (0, 1)")
        check_int("levels", self.levels, 1)
        check_int("winsize", self.winsize, 1)
        if self.winsize % 2 == 0:
            raise ValueError("winsize must be odd and positive")
        check_int("iterations", self.iterations, 1)
        check_int("poly_n", self.poly_n, 3)
        if self.poly_n % 2 == 0:
            raise ValueError("poly_n must be odd and >= 3")
        if not 0.0 < real_number("poly_sigma", self.poly_sigma) < inf:
            raise ValueError("poly_sigma must be finite and positive")


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable knobs of the analytics chain.

    moving_threshold is a mean flow magnitude in px/frame at the flow
    analysis resolution. The hours are whole UTC hours with
    0 <= day_start_hour < night_start_hour <= 24: day runs [day_start_hour,
    night_start_hour) and night is the rest of the 24 hours, wrapping
    around midnight.
    """

    smoothing_window_s: int = 5
    moving_threshold: float = 0.5
    iou_threshold: float = 0.5
    day_start_hour: int = 6
    night_start_hour: int = 21
    safety_zone_expansion: float = 0.10
    flow: FlowParams = field(default_factory=FlowParams)
    # Safety-zone polygons per session (analysis-resolution vertex pairs);
    # the "default" key applies to sessions without their own entry.
    zones: Mapping[str, tuple[tuple[float, float], ...]] = field(default_factory=dict)

    def __post_init__(self):
        check_int("smoothing_window_s", self.smoothing_window_s, 1)
        day, night = self.day_start_hour, self.night_start_hour
        check_int("day_start_hour", day)
        check_int("night_start_hour", night)
        if not 0 <= day < night <= 24:
            raise ValueError(
                f"hours need 0 <= day_start_hour < night_start_hour <= 24, got {day} and {night}"
            )
        if not 0.0 <= real_number("moving_threshold", self.moving_threshold) < inf:
            raise ValueError("moving_threshold must be finite and >= 0")
        if not 0.0 < real_number("iou_threshold", self.iou_threshold) < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        if not 0.0 <= real_number("safety_zone_expansion", self.safety_zone_expansion) < inf:
            raise ValueError("safety_zone_expansion must be finite and >= 0")
        from .geometry import Polygon  # geometry imports this module

        # An empty vertex list is no zone.
        zones = {sid: tuple(verts) and Polygon(verts).vertices for sid, verts in dict(self.zones).items()}
        object.__setattr__(self, "zones", zones)

    def zone_for(self, session_id: str):
        verts = self.zones.get(session_id, self.zones.get("default"))
        return verts

    @staticmethod
    def from_dict(raw: dict) -> "PipelineConfig":
        return from_json(PipelineConfig, raw, "config", flow=lambda flow: from_json(FlowParams, flow, "flow"))


def from_json(cls, raw, what: str, **nested):
    """cls(**raw) for a JSON object raw whose keys all name fields of cls, with
    nested[k](raw[k]) for each key k it has; cls declares each default and checks each value."""
    if not isinstance(raw, dict):
        raise TypeError(f"{what} must be a JSON object, got {raw!r}")
    unknown = raw.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise TypeError(f"unknown {what} keys {sorted(unknown)}")
    return cls(**{**raw, **{k: build(raw[k]) for k, build in nested.items() if k in raw}})


def text_lines(path, newline=None) -> Iterator[str]:
    """The lines of a text input (JSONL or CSV), split as open(path,
    newline=newline) splits them and read as UTF-8 whatever the locale. A
    line that is not UTF-8 raises SchemaMismatch naming path:line. Bytes
    that are not UTF-8 are read as lone surrogates (surrogateescape), which
    valid UTF-8 never decodes to, so only a line that is not ASCII is
    checked, by decoding its bytes again."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as e:
                    raise SchemaMismatch(f"{path}:{i}: not UTF-8: {e}") from None
            yield line


def check_int(name: str, v, lo: Optional[int] = None) -> int:
    """v, an int (not a bool) of at least lo when lo is given."""
    if type(v) is bool or not isinstance(v, int):
        raise TypeError(f"{name} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ValueError(f"{name} must be >= {lo}, got {v!r}")
    return v


def real_number(name: str, v):
    """v, a real number (not a bool), as an int if it is an Integral and a float
    otherwise. An Integral too large for any float is a ValueError."""
    if type(v) is bool or not isinstance(v, Real):
        raise TypeError(f"{name} must be a number, got {v!r}")
    if not isinstance(v, Integral):
        return float(v)
    v = int(v)
    try:
        float(v)
    except OverflowError:
        raise ValueError(f"{name} is out of float range: a {v.bit_length()}-bit integer") from None
    return v


# A ts must fall within the UTC dates a store segment can be named by,
# 0001-01-01 to 9999-12-31 (datetime's range), so that every date and hour
# made from it exists.
TS_MIN = -62135596800  # 0001-01-01T00:00:00Z
TS_MAX = 253402300799  # 9999-12-31T23:59:59Z


def check_session_and_ts(session_id, ts) -> None:
    """A stored row's session_id is a str and its ts exactly an int, not a
    bool, within TS_MIN..TS_MAX."""
    if type(session_id) is not str:
        raise TypeError(f"session_id must be a string, got {session_id!r}")
    if type(ts) is not int:
        raise TypeError(f"ts must be an integer, got {ts!r}")
    if not TS_MIN <= ts <= TS_MAX:
        raise ValueError(f"ts {ts} is outside the UTC dates 0001-01-01 to 9999-12-31")


def check_session_id(session_id: str) -> None:
    """A session id names a store directory, so it must be one path component,
    and a file name and a UTF-8 file hold it, so it must encode to UTF-8 (a
    lone surrogate does not)."""
    if (
        session_id in ("", ".", "..")
        or "/" in session_id or "\\" in session_id or "\0" in session_id
    ):
        raise MalformedRecord(f"session id {session_id!r} is not a single path component")
    if not session_id.isascii():
        try:
            session_id.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRecord(f"session id {session_id!r} does not encode to UTF-8") from None


def validate_record(rec: DetectionRecord, frame_dims: tuple[float, float]) -> DetectionRecord:
    """Clamp boxes to the frame and enforce the record invariants.

    The session id must be a single path component. Non-person roles are
    realigned (dropped to None); a person box without a role distribution
    rejects the whole record, as does any box that falls entirely outside the
    frame. Returns rec itself when no box and no role changed.
    """
    check_session_id(rec.session_id)
    frame_w, frame_h = frame_dims
    if len(rec.roles) != len(rec.boxes):
        raise MalformedRecord(
            f"record {rec.session_id}@{rec.ts}: {len(rec.roles)} roles "
            f"for {len(rec.boxes)} boxes"
        )
    boxes = []
    roles = []
    same = True  # every box and role so far is the record's own object
    for i, (box, role) in enumerate(zip(rec.boxes, rec.roles)):
        person = box.cls == "person"
        if person and role is None:
            raise MalformedRecord(
                f"record {rec.session_id}@{rec.ts}: person box {i} has no role distribution"
            )
        try:
            new_box = box.clamped(frame_w, frame_h)
        except MalformedRecord as e:
            raise MalformedRecord(f"record {rec.session_id}@{rec.ts}: {e}") from None
        new_role = role if person else None
        if new_box is not box or new_role is not role:
            same = False
        boxes.append(new_box)
        roles.append(new_role)
    if same:
        return rec
    return DetectionRecord(rec.session_id, rec.ts, tuple(boxes), tuple(roles))
