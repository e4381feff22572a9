"""Coverage bitmaps, their accumulator and bug deduplication.

The instrumented target records its declared basic blocks into a
fixed-width bitmap.  It answers every API request with the window that
request closes, in an ``X-Coverage-Window: <block_count>:<hex>``
header, and clears the bitmap as it does so; ``fetch_and_reset_coverage``
parses that header, and an answer without one is a ``CoverageDataError``.
So each request carries its own coverage window, and a test case's
coverage is the union of its windows.  The ``/__coverage__`` side
channels serve the manifest of block ids and a clear.  The accumulator
counts the blocks each case adds, by which the session engine keeps
cases.  Bugs are deduplicated on the crash window: the window of the
first request answered 500, which the same fault reached from different
seeds shares.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from . import execution


@dataclass(frozen=True)
class CoverageBitmap:
    """Fixed-width bit vector over the target's declared blocks."""

    width: int
    bits: bytes

    def __post_init__(self):
        need = (self.width + 7) // 8
        if len(self.bits) != need:
            raise ValueError(
                "bitmap has %d bytes, width %d needs %d"
                % (len(self.bits), self.width, need)
            )

    @classmethod
    def empty(cls, width: int) -> "CoverageBitmap":
        return cls(width=width, bits=bytes((width + 7) // 8))

    @classmethod
    def from_hex(cls, width: int, hex_text: str) -> "CoverageBitmap":
        """Parse outside input; a bit set at or beyond ``width`` is a
        ``ValueError``."""
        bits = bytes.fromhex(hex_text)
        if width % 8 and bits and bits[-1] >> (width % 8):
            raise ValueError("bitmap sets bits beyond width %d" % width)
        return cls(width=width, bits=bits)

    def hex(self) -> str:
        return self.bits.hex()

    def indices(self) -> list[int]:
        out = []
        for i in range(self.width):
            if self.bits[i // 8] & (1 << (i % 8)):
                out.append(i)
        return out

    def count(self) -> int:
        return sum(bin(b).count("1") for b in self.bits)

    def _as_int(self) -> int:
        return int.from_bytes(self.bits, "little")

    def __or__(self, other: "CoverageBitmap") -> "CoverageBitmap":
        if other.width != self.width:
            raise ValueError("bitmap width mismatch: %d vs %d" % (self.width, other.width))
        merged = self._as_int() | other._as_int()
        return CoverageBitmap(
            width=self.width,
            bits=merged.to_bytes(len(self.bits), "little"),
        )


class CoverageAccumulator:
    """Mutable union of bitmaps that counts the blocks each one adds."""

    def __init__(self, width: int):
        self.width = width
        self._mask = 0

    def add(self, bm: CoverageBitmap) -> int:
        """Fold a bitmap in; returns the number of newly covered blocks."""
        if bm.width != self.width:
            raise ValueError("bitmap width mismatch")
        fresh = bm._as_int() & ~self._mask
        self._mask |= bm._as_int()
        return bin(fresh).count("1")

    def count(self) -> int:
        return bin(self._mask).count("1")


@dataclass
class BugReport:
    """One deduplicated 500-class failure: its crash window, how many
    results fell into it, and the first of them with its transcript."""

    bitmap: CoverageBitmap
    count: int
    first_case_id: str
    statuses: list[int] = field(default_factory=list)
    transcript: str | None = None


class BugDeduplicator:
    """Incremental bug dedup: one report per distinct crash window, in
    first-seen order."""

    def __init__(self):
        self.reports: list[BugReport] = []
        self._by_window: dict[bytes, BugReport] = {}

    def add(self, result) -> BugReport | None:
        """Fold one ``ExecutionResult`` in; returns the report it opens,
        or None when it is no bug or repeats a known crash window (whose
        count then grows).  A new report keeps the result's transcript."""
        if result.verdict != "bug_500":
            return None
        crash = next(r for r in result.records if r.status == 500)
        if crash.bitmap is None:
            raise ValueError("bug result %r has no bitmap" % (result.case_id,))
        report = self._by_window.get(crash.bitmap.bits)
        if report is not None:
            report.count += 1
            return None
        report = BugReport(
            bitmap=crash.bitmap,
            count=1,
            first_case_id=result.case_id,
            statuses=list(result.statuses),
            transcript=execution.write_transcript(result),
        )
        self._by_window[crash.bitmap.bits] = report
        self.reports.append(report)
        return report


# --- coverage client -------------------------------------------------------
# Side-channel requests go through ``execution.http_request``, looked up at
# call time.

COVERAGE_RESET_PATH = "/__coverage__/reset"
COVERAGE_MANIFEST_PATH = "/__coverage__/manifest"
_WINDOW_RE = re.compile(r"(\d+):([0-9a-fA-F]*)", re.ASCII)  # an X-Coverage-Window value


def _side_channel(cfg, method, path, what) -> str:
    status, body = execution.http_request(cfg, method, path)
    if status != 200:
        raise execution.TransportError("%s returned %d" % (what, status))
    return body


class CoverageDataError(execution.TransportError):
    """The target answered, but its coverage data is malformed."""


def _malformed(what, text):
    return CoverageDataError("malformed %s %r" % (what, text[:80]))


def fetch_manifest(cfg) -> list[str]:
    """Ordered declared-block ids from the target's manifest endpoint."""
    body = _side_channel(cfg, "GET", COVERAGE_MANIFEST_PATH, "manifest fetch")
    try:
        blocks = json.loads(body)["blocks"]
    except (ValueError, KeyError, TypeError, RecursionError):
        blocks = None
    if not isinstance(blocks, list) or not all(isinstance(b, str) for b in blocks):
        raise _malformed("coverage manifest", body)
    return blocks


def reset_coverage(cfg) -> None:
    """Clear the target's coverage bitmap."""
    _side_channel(cfg, "POST", COVERAGE_RESET_PATH, "coverage reset")


def fetch_and_reset_coverage(window: str | None) -> CoverageBitmap:
    """Parse the coverage window an answer carried: ``window`` is its
    ``X-Coverage-Window`` value ``<block_count>:<hex>``, or None when it
    had none.  The target cleared its bitmap when it sent the window, so
    nothing is sent.  A missing or malformed window is a
    ``CoverageDataError``."""
    if window is None:
        raise CoverageDataError("answer carries no %s header" % execution.COVERAGE_WINDOW_HEADER)
    match = _WINDOW_RE.fullmatch(window)
    if match is not None:
        try:
            return CoverageBitmap.from_hex(int(match[1]), match[2])
        except ValueError:
            pass
    raise _malformed("coverage window", window)
