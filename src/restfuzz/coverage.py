"""Coverage bitmaps, corpus distillation and bug deduplication.

The instrumented target exposes a fixed-width bitmap over its declared
basic blocks via a ``/__coverage__`` side channel.  After every answered
request the executor reads and clears it, so each request carries its
own coverage window and a test case's coverage is the union of its
windows.  The read uses the window carried on the response, which a
case request asks for in an ``X-Coverage-Window`` header; otherwise it
makes one side-channel ``POST /__coverage__/reset``, which answers with
the window it cleared.  Distillation greedily keeps the first test case
contributing each new block.  Bugs are deduplicated on the crash window:
the window of the first request answered 500, which the same fault
reached from different seeds shares.
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
        return cls(width=width, bits=bytes.fromhex(hex_text))

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

    def union(self, other: "CoverageBitmap") -> "CoverageBitmap":
        if other.width != self.width:
            raise ValueError("bitmap width mismatch: %d vs %d" % (self.width, other.width))
        merged = self._as_int() | other._as_int()
        return CoverageBitmap(
            width=self.width,
            bits=merged.to_bytes(len(self.bits), "little"),
        )

    __or__ = union

    def new_versus(self, accumulated: "CoverageBitmap") -> int:
        """Number of bits set in self but not in ``accumulated``."""
        fresh = self._as_int() & ~accumulated._as_int()
        return bin(fresh).count("1")


class CoverageAccumulator:
    """Mutable union of bitmaps plus new-path bookkeeping."""

    def __init__(self, width: int):
        self.width = width
        self._mask = 0

    def is_new_path(self, bm: CoverageBitmap) -> bool:
        if bm.width != self.width:
            raise ValueError("bitmap width mismatch")
        return bool(bm._as_int() & ~self._mask)

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
class CorpusEntry:
    """One executed test case eligible for distillation."""

    case_id: str
    bitmap: CoverageBitmap


def distill(entries: list[CorpusEntry]) -> list[CorpusEntry]:
    """Greedy corpus minimisation: scan in order, keep every entry that
    contributes at least one block not covered by already-kept entries.
    The union of kept bitmaps always equals the union of all bitmaps."""
    if not entries:
        return []
    acc = CoverageAccumulator(entries[0].bitmap.width)
    kept = []
    for e in entries:
        if acc.add(e.bitmap) > 0:
            kept.append(e)
    return kept


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


# --- side-channel client -------------------------------------------------
# Requests go through ``execution.http_request``, looked up at call time.

COVERAGE_RESET_PATH = "/__coverage__/reset"
COVERAGE_MANIFEST_PATH = "/__coverage__/manifest"
_WINDOW_RE = re.compile(r"(\d+):([0-9a-fA-F]*)", re.ASCII)  # an X-Coverage-Window value


def _side_channel(cfg, method, path, what) -> str:
    status, body = execution.http_request(cfg, method, path)
    if status != 200:
        raise execution.TransportError("%s returned %d" % (what, status))
    return body


def _malformed(what, text):
    return execution.TransportError("malformed %s %r" % (what, text[:80]))


def _window(text: str) -> CoverageBitmap:
    """One coverage window as the target sends it: the side channel's
    JSON answer ``{"block_count": n, "bitmap": hex}`` or an
    ``X-Coverage-Window`` value ``n:hex``."""
    try:
        if text.startswith("{"):
            data = json.loads(text)
            count_hex = "%s:%s" % (data["block_count"], data["bitmap"])
        else:
            count_hex = text
        match = _WINDOW_RE.fullmatch(count_hex)
        if match is None:
            raise ValueError(count_hex)
        return CoverageBitmap.from_hex(int(match[1]), match[2])
    except (ValueError, KeyError, TypeError):
        raise _malformed("coverage window", text) from None


def fetch_manifest(cfg) -> list[str]:
    """Ordered declared-block ids from the target's manifest endpoint."""
    body = _side_channel(cfg, "GET", COVERAGE_MANIFEST_PATH, "manifest fetch")
    try:
        blocks = json.loads(body)["blocks"]
    except (ValueError, KeyError, TypeError):
        blocks = None
    if not isinstance(blocks, list) or not all(isinstance(b, str) for b in blocks):
        raise _malformed("coverage manifest", body)
    return blocks


def reset_coverage(cfg) -> None:
    """Clear the target's coverage bitmap."""
    _side_channel(cfg, "POST", COVERAGE_RESET_PATH, "coverage reset")


def fetch_and_reset_coverage(cfg, window: str | None = None) -> CoverageBitmap:
    """Read and clear the bitmap accumulated since the last read or reset.

    ``window`` is the ``X-Coverage-Window`` value carried on the last
    response, if any: the target cleared its bitmap when it sent it, so
    no request is sent.  Without one, as for a request rejected before
    routing, one side-channel reset is read; it answers with the window
    it cleared."""
    if window is None:
        window = _side_channel(cfg, "POST", COVERAGE_RESET_PATH, "coverage fetch")
    return _window(window)
