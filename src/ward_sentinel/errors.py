"""Exception types shared across the pipeline.

Validation failures (bad records, bad geometry, bad schedules) raise
subclasses of ValidationError; everything else that indicates a caller
bug or an unusable input raises a plain WardSentinelError subclass.
The CLI maps ValidationError to exit code 2 and the rest to 1.
"""


class WardSentinelError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WardSentinelError):
    """Input data violated a documented invariant."""


# core-model
class MalformedRecord(ValidationError):
    pass


class NonMonotonicTimestamp(ValidationError):
    pass


# geometry
class DegeneratePolygon(ValidationError):
    pass


class ZoneDimensionMismatch(WardSentinelError):
    pass


# optical flow
class DimensionMismatch(WardSentinelError):
    pass


class EmptyMask(WardSentinelError):
    pass


# inference logic
class EmptyWindow(WardSentinelError):
    pass


# trends
class UnsortedInput(ValidationError):
    pass


class IntervalOutOfBounds(ValidationError):
    pass


class OverlappingIntervals(ValidationError):
    pass


# evaluation
class MisalignedFrames(ValidationError):
    """Label and prediction inputs do not cover the same frames."""


class SingleClassTarget(WardSentinelError):
    """Target vector has one class only; fall back to manual accuracy."""


class NonConvergence(WardSentinelError):
    pass


class EmptyPeriod(WardSentinelError):
    pass


class NoOverlap(WardSentinelError):
    pass


# simulator
class InvalidSchedule(ValidationError):
    pass


# io pipeline
class TooSmallInput(ValidationError):
    pass


class UnknownAdapter(ValidationError):
    """The requested ingest adapter name (user input) is not registered."""


class SchemaMismatch(ValidationError):
    pass


class AdapterError(WardSentinelError):
    """Wraps a failure inside a detector/ingest adapter with session/ts context."""

    def __init__(self, message, session_id=None, ts=None):
        context = ""
        if session_id is not None:
            context = f" [session={session_id}" + (f" ts={ts}]" if ts is not None else "]")
        super().__init__(message + context)
        self.session_id = session_id
        self.ts = ts
