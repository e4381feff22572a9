"""HTTP execution of test cases with producer/consumer resolution.

Renders each request of a rule sequence just before sending it, so that
consumer slots can be filled with values extracted from earlier
responses.  Talks HTTP/1.1 over a raw socket: mutated requests must
reach the wire byte-for-byte, which rules out high-level client
libraries that normalise methods, paths and headers.

A ``TargetConfig`` owns two keep-alive connections, each opened on
first use and closed by ``TargetConfig.close``: the case connection,
which carries every test case, replay and seed validation sent with
that config, and the control connection for the other side-channel
calls (coverage manifest and clear, a state reset outside a case).
Each case's state reset rides the case connection, pipelined in the
same send just ahead of its first request; only when that connection is
lost without an answer does a lone reset go on the control connection.
That cannot misframe: the reset goes first on a socket whose last
exchange ended on a framed answer, or on a fresh one, and
``request_wire`` frames every case request itself.  Both connections
are a ``_CaseConnection``: a request that fails on a reused socket is
resent once on a fresh one; a failure on a fresh socket is final, but
for the lone reset above.  A round trip returns the response's
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
# the top-level response-body JSON key that carries a fresh id, per resource type
EXTRACTIONS = {
    "project-id": "id",
    "branch-name": "branch",
}

_STATUS_LINE_RE = re.compile(r"^HTTP/1\.1 (\d{3})(?: (.*))?$")
NO_RESPONSE_STATUS = 0
# the target answers each API request with that request's coverage
# window in this response header (see ``coverage``)
COVERAGE_WINDOW_HEADER = "X-Coverage-Window"
STATE_RESET = ("POST", "/__reset__")


class TransportError(Exception):
    """Connection-level failure (refused, timeout, unexpected close)."""


class StateResetError(TransportError):
    """A state reset sent ahead of a case got no 200 answer: the target
    cannot run the case at all."""


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
    latency_s: float  # a case's first one includes its pipelined state reset
    bitmap: object = None  # CoverageBitmap window, attached on request


@dataclass
class ExecutionResult:
    """Outcome of sending one test case: each request as sent, with its
    answer.  The ids a request bound show in the text of the requests
    after it."""

    case_id: str
    records: list[RequestRecord]
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


def _recv(sock: socket.socket) -> bytes:
    """The next bytes on ``sock``, b"" at EOF."""
    try:
        return sock.recv(65536)
    except OSError as exc:
        raise TransportError("recv failed: %s" % exc) from exc


def _recv_response(sock: socket.socket, rest: bytes = b""):
    """Read one HTTP response, starting with ``rest``, bytes already read
    from ``sock``; returns (status, reason, body_text, closing, window,
    rest), where ``window`` is its ``X-Coverage-Window`` value or None and
    ``rest`` the bytes read past the response.

    Interim 1xx responses other than 101 are skipped.  The body is framed
    as RFC 9112 section 6.3 says: none for 1xx, 204 and 304; chunked;
    Content-Length; else up to EOF (close-delimited).  ``closing`` is True
    when the server will not read another request on the socket:
    ``Connection: close``, a close-delimited body or a 101."""

    def more(where):
        """The next bytes; at EOF b"" if ``where`` is None, else an error."""
        chunk = _recv(sock)
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
    return status, reason, body.decode("latin-1"), closing, window, rest


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
    it unusable (see ``_recv_response``, and bytes read past the last
    answer expected) the next request opens a new one, so a request never
    reads an answer meant for another.

    ``roundtrip(wire, reset)`` returns (status, reason, body,
    ``X-Coverage-Window`` value or None).  A non-empty ``reset``, a state
    reset's bytes, goes in the same send just ahead of ``wire`` (HTTP/1.1
    pipelining, RFC 9112 section 9.3.2), and its answer is read first: one
    that is not a 200 raises ``StateResetError``, and the reset makes
    resending the pair from a reused socket idempotent.  When the reset's
    answer says ``Connection: close`` the server did not read ``wire``
    (RFC 9112 section 9.6), which goes alone on a fresh socket.  When a
    fresh socket ends with no answer past the reset's (none at all, or EOF
    right after it), either the target is down or ``wire`` killed the
    connection, run or not.  A lone state reset on the control connection
    tells them apart: it raises ``StateResetError`` when it fails, and
    otherwise ``wire`` goes alone on a fresh socket, from that reset
    state."""

    def __init__(self, cfg: TargetConfig):
        self.cfg = cfg
        self.sock = None
        self.stale = False

    def roundtrip(self, wire: bytes, reset: bytes = b""):
        if self.sock is not None and not self.stale:
            try:
                return self._exchange(wire, reset, fresh=False)
            except TransportError:
                pass  # reused socket: resend once on a fresh one
        self.close()
        return self._exchange(wire, reset, fresh=True)

    def _exchange(self, wire: bytes, reset: bytes, fresh: bool):
        try:
            if reset:
                rest = self._reset_ahead_of(wire, reset, fresh)
            else:
                self._send(wire)
                rest = b""
            status, reason, body, closing, window, rest = _recv_response(self.sock, rest)
        except BaseException:  # an interrupted exchange leaves its answer unread
            self.close()
            raise
        self.stale = closing or bool(rest)
        return status, reason, body, window

    def _reset_ahead_of(self, wire: bytes, reset: bytes, fresh: bool) -> bytes:
        """Send ``reset`` and ``wire`` together and read the reset's answer;
        returns the bytes read past it, the start of ``wire``'s answer, or
        b"" once ``wire`` went alone on a fresh socket."""
        try:
            self._send(reset + wire)
            status, _reason, _body, closing, _window, rest = _recv_response(self.sock)
            if status == 200 and not (closing or rest):
                rest = _recv(self.sock)
                if not rest:
                    raise TransportError("connection closed after the state reset's answer")
        except TransportError:
            if not fresh:
                raise
            self.close()
            self._lone_reset()
            self._send(wire)
            return b""
        if status != 200:
            raise StateResetError("state reset returned %d" % status)
        if closing:
            self.close()
            self._send(wire)
            return b""
        return rest

    def _lone_reset(self) -> None:
        try:
            reset_target_state(self.cfg)
        except TransportError as exc:
            raise StateResetError(str(exc)) from exc

    def _send(self, wire: bytes) -> None:
        if self.sock is None:
            self.sock = _open_connection(self.cfg)
        try:
            self.sock.sendall(wire)
        except OSError as exc:
            raise TransportError("send failed: %s" % exc) from exc

    def close(self):
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None


def _side_channel_wire(cfg: TargetConfig, method: str, path: str) -> bytes:
    """A bodyless side-channel request (state reset, coverage channels)
    with ``cfg``'s auth header."""
    lines = [
        "%s %s %s" % (method, path, HTTP_VERSION),
        "Host: %s" % cfg.host,
        "%s: %s" % (cfg.auth_header, cfg.auth_value),
        "Content-Length: 0",
    ]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"


def http_request(cfg: TargetConfig, method: str, path: str):
    """One bodyless request outside any test case (the coverage channels,
    and a state reset that rides no case request), sent on ``cfg``'s
    control connection.

    Returns (status, response_body_text).
    """
    wire = _side_channel_wire(cfg, method, path)
    status, _reason, body_text, _window = cfg._control.roundtrip(wire)
    return status, body_text


def reset_target_state(cfg: TargetConfig) -> None:
    status, _ = http_request(cfg, *STATE_RESET)
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


def extract_resource_id(doc, key: str):
    """The text at top-level ``key`` of ``doc``, a response body's parsed
    JSON value (None for a body that is not JSON).  None signals a miss:
    ``doc`` is not an object, or holds no value or null at ``key``.  A
    string is its own text, a bool reads ``true`` or ``false``, and any
    other value is its ``str()``."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# -- rendering with live bindings -------------------------------------------


class _Resolver:
    """Chooses the concrete text for each leaf at send time.

    A consumer leaf takes its resource's live binding, else its payload,
    else its marker.  A producer leaf takes its payload, else a fresh
    ``<resource>-<n>``.  Any other leaf takes its payload, else its
    terminal's value.
    """

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
    stop_at_non_2xx: bool = False,
) -> ExecutionResult:
    """Send every request of ``tc`` in order on ``cfg``'s case connection,
    from a reset target state, resolving dependencies.  The connection
    stays open for the next case.

    The target's state reset rides ahead of the first request, in the same
    send (see ``_CaseConnection``); a reset that the target refuses, or
    that gets no answer even alone, raises ``StateResetError`` instead of
    recording the case.

    ``request_text_transform(text, request_index) -> text`` lets the
    byte-level strategy corrupt the rendered request just before the
    wire conversion.  Stops early only when the transport fails, or, with
    ``stop_at_non_2xx`` (seed validation, which keeps only all-2xx
    cases), after the first answer whose status is not 2xx.

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
    reset = _side_channel_wire(cfg, *STATE_RESET)
    for idx, view in enumerate(tc.requests):
        resolver.sent_producer_values = {}
        text = render_request(view, resolver.value_of)
        if request_text_transform is not None:
            text = request_text_transform(text, idx)
        wire = request_wire(text, cfg.host)
        t0 = time.monotonic()
        try:
            status, reason, body, window = cfg._case.roundtrip(wire, reset)
        except StateResetError:
            raise
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
        reset = b""
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
        if stop_at_non_2xx and not 200 <= status < 300:
            break
        doc = _parse_body(body)
        for resource, key in EXTRACTIONS.items():
            value = extract_resource_id(doc, key)
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
    return ExecutionResult(case_id=case_id, records=records, verdict=verdict)


# -- transcripts ------------------------------------------------------------


def _request_lines(text: str) -> list[str]:
    """A request text as escaped transcript lines that ``load_transcript``
    reads back byte for byte.  A newline that would leave an empty line,
    which ends a block, is escaped into its neighbour; so are a space that
    ends a line, which ``canonicalize`` strips, and the first byte of a
    line that reads as a status line."""
    lines = text.split("\n")
    out = [escape(lines[0])]
    for ln in lines[1:]:
        if ln and out[-1]:
            out.append(escape(ln))
        else:
            out[-1] += "\\n" + escape(ln)
    for i, ln in enumerate(out):
        if ln.endswith(" "):
            out[i] = ln = ln[:-1] + "\\x20"
        if _STATUS_LINE_RE.match(ln):
            out[i] = "\\x%02x" % ord(ln[0]) + ln[1:]
    return out


def write_transcript(result: ExecutionResult) -> str:
    """Serialise a result as seed-format request blocks plus status and
    body lines.  Each line is escaped, so payload bytes survive; every
    block has a status line, ``000`` for a request that got no answer."""
    blocks = []
    for rec in result.records:
        lines = _request_lines(rec.request_text)
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
    """The recorded requests of a transcript: each block's lines up to its
    status line, unescaped.  A block without a status line, or with none
    before it, is not a recorded request.  Raises ``GrammarError`` for a
    malformed escape."""
    entries = []
    for block in canonicalize(text).split("\n\n"):
        request_lines = []
        for ln in block.split("\n"):
            m = _STATUS_LINE_RE.match(ln)
            if m:
                if request_lines:
                    entries.append(TranscriptEntry("\n".join(request_lines), int(m.group(1))))
                break
            request_lines.append(unescape(ln))
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
