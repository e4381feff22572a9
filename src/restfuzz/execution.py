"""HTTP execution of test cases with producer/consumer resolution.

Renders each request of a rule sequence just before sending it, so that
consumer slots can be filled with values extracted from earlier
responses.  Talks HTTP/1.1 over a raw socket: mutated requests must
reach the wire byte-for-byte, which rules out high-level client
libraries that normalise methods, paths and headers.

A ``TargetConfig`` owns two keep-alive connections, each opened on
first use and closed by ``TargetConfig.close``: the case connection,
which carries every test case, replay and seed validation sent with
that config, and the control connection for side-channel calls (state
reset, coverage manifest and clear).  They stay apart so that mutated case bytes can never
misframe a side-channel call.  Both are a ``_CaseConnection``: a request
that fails on a reused socket is resent once on a fresh one; a failure
on a fresh socket is final.  A round trip returns the response's
``X-Coverage-Window`` value, the coverage window the target attaches to
every API answer, for ``coverage.fetch_and_reset_coverage``.
Every request/response pair is recorded in a replayable transcript
using the seed-file text format plus response status lines.
"""

from __future__ import annotations

import json
import re
import socket
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from .grammar import Grammar, escape, unescape
from .parsing import (
    HTTP_VERSION, RuleSequence, TestCase, canonicalize, marker_text, render_request
)

DEFAULT_TIMEOUT_MS = 5000.0
DEFAULT_AUTH_HEADER = "PRIVATE-TOKEN"
DEFAULT_AUTH_VALUE = "DRiX47nuEP2AR"
# response-body JSON paths used to pull fresh resource ids, per resource type
EXTRACTIONS = {
    "project-id": "id",
    "branch-name": "branch",
}

_STATUS_LINE_RE = re.compile(r"^HTTP/1\.1 (\d{3})(?: (.*))?$")
NO_RESPONSE_STATUS = 0
# the target answers each API request with that request's coverage
# window in this response header (see ``coverage``)
COVERAGE_WINDOW_HEADER = "X-Coverage-Window"


class TransportError(Exception):
    """Connection-level failure (refused, timeout, unexpected close)."""


@dataclass
class TargetConfig:
    """Where and how to reach the service under test.  Also holds the
    case connection and the control connection for side-channel calls,
    for one thread at a time.  Which response fields bind resource ids
    is fixed by ``EXTRACTIONS``, not per target."""

    base_url: str
    auth_header: str = DEFAULT_AUTH_HEADER
    auth_value: str = DEFAULT_AUTH_VALUE
    timeout_ms: float = DEFAULT_TIMEOUT_MS

    def __post_init__(self):
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError("base_url must look like http://host:port, got %r" % self.base_url)
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        self.host = parts.hostname
        self.port = parts.port or 80
        self._case = _CaseConnection(self)  # both opened on first use
        self._control = _CaseConnection(self)  # side channels

    @property
    def timeout_s(self) -> float:
        return self.timeout_ms / 1000.0

    def close(self) -> None:
        """Close both connections (a later call reopens them)."""
        self._case.close()
        self._control.close()


@dataclass
class RequestRecord:
    """One request as sent, plus the response (if any)."""

    request_text: str
    status: int
    reason: str
    response_body: str
    latency_s: float
    bitmap: object = None  # CoverageBitmap window, attached on request


@dataclass
class ExecutionResult:
    """Outcome of sending one test case."""

    case_id: str
    records: list[RequestRecord]
    resolved_bindings: dict[str, str]
    verdict: str  # pass | bug_500 | transport_error

    @property
    def statuses(self) -> list[int]:
        return [r.status for r in self.records]


# -- low-level HTTP ---------------------------------------------------------


def _open_connection(cfg: TargetConfig) -> socket.socket:
    try:
        return socket.create_connection((cfg.host, cfg.port), timeout=cfg.timeout_s)
    except OSError as exc:
        raise TransportError("connect failed: %s" % exc) from exc


def _recv_response(sock: socket.socket):
    """Read one HTTP response; returns (status, reason, body_text, closing,
    window), where ``window`` is its ``X-Coverage-Window`` value or None.

    Interim 1xx responses other than 101 are skipped.  The body is framed
    as RFC 9112 section 6.3 says: none for 1xx, 204 and 304; chunked;
    Content-Length; else up to EOF (close-delimited).  ``closing`` is True
    when the socket must not carry another request: ``Connection: close``,
    a close-delimited body, a 101, or bytes read past the response."""

    def more(where):
        """The next bytes; at EOF b"" if ``where`` is None, else an error."""
        try:
            chunk = sock.recv(65536)
        except OSError as exc:
            raise TransportError("recv failed: %s" % exc) from exc
        if not chunk and where is not None:
            raise TransportError("connection closed %s" % where)
        return chunk

    def line():  # one CRLF-terminated line of a chunked body
        nonlocal rest
        while b"\r\n" not in rest:
            rest += more("mid-body")
        out, rest = rest.split(b"\r\n", 1)
        return out

    def size(text, base, what):
        try:
            n = int(text, base)
        except ValueError:
            n = -1
        if n < 0:
            raise TransportError("bad %s %r" % (what, text))
        return n

    def head():  # status, reason and headers of the next response
        nonlocal rest
        while b"\r\n\r\n" not in rest:
            rest += more("before response head")
        raw, rest = rest.split(b"\r\n\r\n", 1)
        lines = raw.decode("latin-1").split("\r\n")
        first = lines[0].split(" ", 2)
        if len(first) < 2 or not first[1].isdigit():
            raise TransportError("malformed status line %r" % lines[0])
        headers = {}
        for ln in lines[1:]:
            key, _, val = ln.partition(":")
            headers[key.strip().lower()] = val.strip()
        return int(first[1]), first[2] if len(first) > 2 else "", headers

    rest = b""
    status, reason, headers = head()
    while 100 <= status < 200 and status != 101:
        status, reason, headers = head()
    closing = headers.get("connection", "").lower() == "close" or status == 101
    body = b""
    if status < 200 or status in (204, 304):
        pass
    elif "chunked" in headers.get("transfer-encoding", "").lower():
        while n := size(line().split(b";", 1)[0].strip(), 16, "chunk size"):
            while len(rest) < n + 2:
                rest += more("mid-body")
            body += rest[:n]
            rest = rest[n + 2 :]
        while line():  # trailer fields
            pass
    elif "content-length" in headers:
        length = size(headers["content-length"], 10, "content-length")
        while len(rest) < length:
            rest += more("mid-body")
        body, rest = rest[:length], rest[length:]
    else:
        while chunk := more(None):
            rest += chunk
        body, closing = rest, True
    window = headers.get(COVERAGE_WINDOW_HEADER.lower())
    return status, reason, body.decode("latin-1"), closing or bool(rest), window


def request_wire(text: str, host: str) -> bytes:
    """Convert one seed-format request block to HTTP/1.1 wire bytes.

    The block's first line is the request line; following lines are
    headers until the first line opening a JSON value, which starts the
    body.  Host and Content-Length are supplied here since the seed
    format omits them.
    """
    lines = text.split("\n")
    body_start = None
    for i in range(1, len(lines)):
        if lines[i][:1] in ("{", "["):
            body_start = i
            break
    header_lines = lines[1:body_start] if body_start else lines[1:]
    body = "\n".join(lines[body_start:]) if body_start is not None else ""
    body_bytes = body.encode("latin-1")
    out = [lines[0], "Host: %s" % host]
    out.extend(ln for ln in header_lines if ln)
    out.append("Content-Length: %d" % len(body_bytes))
    wire = "\r\n".join(out).encode("latin-1") + b"\r\n\r\n" + body_bytes
    return wire


class _CaseConnection:
    """One keep-alive connection, opened on first use.  A request that
    fails on a reused socket (the server may have dropped it) is resent
    once on a fresh socket; a failure on a fresh socket is raised.  A
    failed exchange closes the socket, and after a response that leaves
    it unusable (see ``_recv_response``) the next request opens a new one,
    so a request never reads an answer meant for another.  ``roundtrip``
    returns (status, reason, body, ``X-Coverage-Window`` value or None)."""

    def __init__(self, cfg: TargetConfig):
        self.cfg = cfg
        self.sock = None
        self.stale = False

    def roundtrip(self, wire: bytes):
        if self.sock is not None and not self.stale:
            try:
                return self._exchange(wire)
            except TransportError:
                pass  # reused socket: resend once on a fresh one
        self.close()
        self.sock = _open_connection(self.cfg)
        return self._exchange(wire)

    def _exchange(self, wire: bytes):
        try:
            self.sock.sendall(wire)
            status, reason, body, closing, window = _recv_response(self.sock)
        except OSError as exc:
            self.close()
            raise TransportError("send failed: %s" % exc) from exc
        except BaseException:  # an interrupted exchange leaves its answer unread
            self.close()
            raise
        self.stale = closing
        return status, reason, body, window

    def close(self):
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None


def http_request(cfg: TargetConfig, method: str, path: str, body: str | None = None):
    """One request outside any test case (reset/coverage channels), sent
    on ``cfg``'s control connection.

    Returns (status, response_body_text).
    """
    payload = (body or "").encode("latin-1")
    lines = [
        "%s %s %s" % (method, path, HTTP_VERSION),
        "Host: %s" % cfg.host,
        "%s: %s" % (cfg.auth_header, cfg.auth_value),
        "Content-Length: %d" % len(payload),
    ]
    wire = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + payload
    status, _reason, body_text, _window = cfg._control.roundtrip(wire)
    return status, body_text


def reset_target_state(cfg: TargetConfig) -> None:
    status, _ = http_request(cfg, "POST", "/__reset__")
    if status != 200:
        raise TransportError("state reset returned %d" % status)


# -- resource extraction ----------------------------------------------------


def _parse_body(body_text: str):
    """A response body's JSON value; None when it is not JSON, or is JSON
    that ``json.loads`` cannot take (a huge int literal, deep nesting)."""
    try:
        return json.loads(body_text)
    except (ValueError, RecursionError):
        return None


def extract_resource_id(value, spec: str):
    """The text at dotted path ``spec`` inside a response body's parsed
    JSON value (None for a body that is not JSON); None signals a miss."""
    for part in spec.split("."):
        if isinstance(value, dict):
            if part not in value:
                return None
            value = value[part]
        elif isinstance(value, list):
            if not part.isdigit() or int(part) >= len(value):
                return None
            value = value[int(part)]
        else:
            return None
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return None
    return str(value)


# -- rendering with live bindings -------------------------------------------


class _Resolver:
    """Chooses the concrete text for each leaf at send time."""

    def __init__(self, rs: RuleSequence, g: Grammar, bindings: dict[str, str]):
        self.rs = rs
        self.g = g
        self.bindings = bindings
        self._produced_counter: dict[str, int] = {}
        # producer values chosen in the current request, keyed by resource
        self.sent_producer_values: dict[str, str] = {}

    def value_of(self, ordinal: int) -> str:
        rs = self.rs
        rule = rs.leaf_rule(ordinal, self.g)
        payload = rs.leaf_payload(ordinal)
        if rs.leaf_index[ordinal] in rs.pinned and payload is not None:
            return payload
        if rule.lhs == "consumer":
            resource = rule.value
            if resource in self.bindings:
                return self.bindings[resource]
            if payload is not None:
                return payload
            return marker_text(resource)
        if rule.lhs == "producer":
            resource = rule.value
            if payload is not None:
                value = payload
            else:
                n = self._produced_counter.get(resource, 0) + 1
                self._produced_counter[resource] = n
                value = "%s-%d" % (resource, n)
            self.sent_producer_values[resource] = value
            return value
        if payload is not None:
            return payload
        return rule.value


# -- the executor -----------------------------------------------------------


def execute_test_case(
    tc: TestCase,
    g: Grammar,
    cfg: TargetConfig,
    case_id: str = "case",
    request_text_transform=None,
    per_request_bitmaps=None,
) -> ExecutionResult:
    """Send every request of ``tc`` in order on ``cfg``'s case connection,
    resolving dependencies.  The connection stays open for the next case.

    ``request_text_transform(text, request_index) -> text`` lets the
    byte-level strategy corrupt the rendered request just before the
    wire conversion.  Stops early only when the transport fails.

    ``per_request_bitmaps(window)`` is called after each answered
    request and its return value stored on that request's record — pass
    ``coverage.fetch_and_reset_coverage`` to get one coverage window per
    request (the crash-deduplication granularity).  ``window`` is the
    response's ``X-Coverage-Window`` value, or None when it carried none.
    A request that got no answer ends the case with a
    ``NO_RESPONSE_STATUS`` record.  The target clears a request's blocks
    when it builds the answer, so a lost answer leaves none behind.
    """
    bindings: dict[str, str] = {}
    resolver = _Resolver(tc.seq, g, bindings)
    records: list[RequestRecord] = []
    transport_failed = False
    for idx, view in enumerate(tc.requests):
        resolver.sent_producer_values = {}
        text = render_request(view, resolver.value_of)
        if request_text_transform is not None:
            text = request_text_transform(text, idx)
        wire = request_wire(text, cfg.host)
        t0 = time.monotonic()
        try:
            status, reason, body, window = cfg._case.roundtrip(wire)
        except (TransportError, OSError) as exc:
            records.append(
                RequestRecord(
                    request_text=text,
                    status=NO_RESPONSE_STATUS,
                    reason=str(exc),
                    response_body="",
                    latency_s=time.monotonic() - t0,
                )
            )
            transport_failed = True
            break
        records.append(
            RequestRecord(
                request_text=text,
                status=status,
                reason=reason,
                response_body=body,
                latency_s=time.monotonic() - t0,
                bitmap=per_request_bitmaps(window) if per_request_bitmaps else None,
            )
        )
        doc = _parse_body(body)
        for resource, path_spec in EXTRACTIONS.items():
            value = extract_resource_id(doc, path_spec)
            if value is not None:
                bindings[resource] = value
        for resource, value in resolver.sent_producer_values.items():
            bindings.setdefault(resource, value)
    if any(r.status == 500 for r in records):
        verdict = "bug_500"
    elif transport_failed:
        verdict = "transport_error"
    else:
        verdict = "pass"
    return ExecutionResult(
        case_id=case_id,
        records=records,
        resolved_bindings=dict(bindings),
        verdict=verdict,
    )


# -- transcripts ------------------------------------------------------------


def write_transcript(result: ExecutionResult) -> str:
    """Serialise a result as seed-format request blocks plus status and
    body lines.  Each line is escaped, so payload bytes survive."""
    blocks = []
    for rec in result.records:
        lines = [escape(ln) for ln in rec.request_text.split("\n")]
        if rec.status == NO_RESPONSE_STATUS:
            lines.append("HTTP/1.1 000 %s" % (rec.reason or "NoResponse"))
        else:
            lines.append("HTTP/1.1 %03d %s" % (rec.status, rec.reason))
        for body_line in rec.response_body.split("\n"):
            if body_line:
                lines.append(escape(body_line))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@dataclass
class TranscriptEntry:
    request_text: str
    status: int


def load_transcript(text: str) -> list[TranscriptEntry]:
    entries = []
    for block in canonicalize(text).split("\n\n"):
        lines = block.split("\n")
        status = NO_RESPONSE_STATUS
        request_lines = []
        for ln in lines:
            m = _STATUS_LINE_RE.match(ln)
            if m:
                status = int(m.group(1))
                break
            request_lines.append(unescape(ln))
        if request_lines:
            entries.append(
                TranscriptEntry(request_text="\n".join(request_lines), status=status)
            )
    return entries


@dataclass
class ReplayOutcome:
    expected: list[int]
    actual: list[int]
    reproduced: bool


def replay_transcript(text: str, cfg: TargetConfig) -> ReplayOutcome:
    """Resend the recorded concrete requests on ``cfg``'s case connection
    and compare status codes."""
    entries = load_transcript(text)
    expected = [e.status for e in entries]
    actual: list[int] = []
    for entry in entries:
        wire = request_wire(entry.request_text, cfg.host)
        try:
            status = cfg._case.roundtrip(wire)[0]
        except (TransportError, OSError):
            actual.append(NO_RESPONSE_STATUS)
            break
        actual.append(status)
    while len(actual) < len(expected):
        actual.append(NO_RESPONSE_STATUS)
    return ReplayOutcome(expected=expected, actual=actual, reproduced=actual == expected)
