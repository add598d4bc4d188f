"""Exception hierarchy for the VSS reproduction.

Every error raised by the library derives from :class:`VSSError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.
"""

from __future__ import annotations


class VSSError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(VSSError):
    """A catalog (metadata) operation failed."""


class VideoNotFoundError(CatalogError):
    """The named logical video does not exist."""

    def __init__(self, name: str):
        super().__init__(f"logical video {name!r} does not exist")
        self.name = name


class VideoExistsError(CatalogError):
    """A logical video with this name already exists."""

    def __init__(self, name: str):
        super().__init__(f"logical video {name!r} already exists")
        self.name = name


class StoreLockedError(VSSError):
    """The store is already open in another engine (this process or
    another): its lock file is held.  The message names the store root."""


class ReadError(VSSError):
    """A read operation could not be satisfied."""


class OutOfRangeError(ReadError):
    """The requested temporal interval extends outside the stored video."""


class QualityError(ReadError):
    """No combination of fragments meets the requested quality threshold."""


class WriteError(VSSError):
    """A write operation failed."""


class FormatError(VSSError):
    """An unknown or malformed video format was supplied."""


class CodecError(VSSError):
    """Encoding or decoding failed."""


class ContainerError(CodecError):
    """An encoded-GOP container is malformed or truncated."""


class JointCompressionError(VSSError):
    """Joint compression could not be applied to a pair of GOPs."""


class HomographyError(JointCompressionError):
    """No acceptable homography could be estimated between two frames."""


class BudgetExceededError(VSSError):
    """An operation would exceed the video's storage budget and eviction
    could not reclaim enough space."""


class CalibrationError(VSSError):
    """The vbench-style calibration data is missing or malformed."""


class WireError(VSSError):
    """A wire-protocol payload is malformed (unknown keys, bad framing)."""


class ServerBusyError(VSSError):
    """The server's admission control rejected the request (HTTP 429).

    ``retry_after`` echoes the server's ``Retry-After`` hint in seconds.
    """

    def __init__(self, message: str = "server busy", retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ShardUnavailableError(VSSError):
    """A cluster shard could not be reached (down, unreachable, or it
    died mid-conversation) and no replica could take over the request.

    ``shard`` names the last shard tried (``host:port``) when known.
    """

    def __init__(
        self, message: str = "shard unavailable", shard: str | None = None
    ):
        super().__init__(message)
        self.shard = shard
