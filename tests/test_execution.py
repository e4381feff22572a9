"""Tests for HTTP execution: wire conversion, dependency resolution,
transcripts, and replay against the live reference service."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from restfuzz import coverage as cov
from restfuzz import execution as ex
from restfuzz import mutation as mu
from restfuzz.parsing import marker_text, render_request
from restfuzz.seedgen import build_case, generate_seeds
from restfuzz.target import ReferenceTarget, serve

from .conftest import chain_by_names, count_target_resets, peek_coverage


def _mkcase(g, names, values):
    return build_case(g, chain_by_names(g, len(names), tuple(names)), values)


# ----------------------------------------------------------------- wire


def test_request_wire_with_body():
    text = 'POST /x HTTP/1.1\nPRIVATE-TOKEN: tok\n{"a":"b"}'
    wire = ex.request_wire(text, "h")
    assert wire == (
        b"POST /x HTTP/1.1\r\n"
        b"Host: h\r\n"
        b"PRIVATE-TOKEN: tok\r\n"
        b"Content-Length: 9\r\n"
        b"\r\n"
        b'{"a":"b"}'
    )


def test_request_wire_without_body():
    wire = ex.request_wire("GET /y HTTP/1.1\nX: 1", "srv")
    assert wire.endswith(b"Content-Length: 0\r\n\r\n")
    assert b"X: 1\r\n" in wire


def test_request_wire_counts_body_bytes_not_chars():
    text = "POST /x HTTP/1.1\n{\"a\":\"\xff\xfe\"}"
    wire = ex.request_wire(text, "h")
    body = wire.split(b"\r\n\r\n", 1)[1]
    assert b"Content-Length: %d" % len(body) in wire
    assert body == b'{"a":"\xff\xfe"}'


def test_request_wire_multi_line_body_sticks_together():
    text = 'PUT /z HTTP/1.1\nH: v\n{"a":\n [1, 2]}'
    wire = ex.request_wire(text, "h")
    assert wire.split(b"\r\n\r\n", 1)[1] == b'{"a":\n [1, 2]}'


# ----------------------------------------------------- resource extraction


def test_extract_resource_id_paths():
    assert ex.extract_resource_id({"id": 42}, "id") == "42"
    assert ex.extract_resource_id({"branch": "x"}, "branch") == "x"
    assert ex.extract_resource_id({"id": 1.5}, "id") == "1.5"
    assert ex.extract_resource_id({"id": {"a": 1}}, "id") == "{'a': 1}"
    assert ex.extract_resource_id({"on": True}, "on") == "true"
    assert ex.extract_resource_id({"on": False}, "on") == "false"


def test_extract_resource_id_misses():
    assert ex.extract_resource_id({"id": None}, "id") is None
    assert ex.extract_resource_id({"id": 1}, "nope") is None
    assert ex.extract_resource_id(None, "id") is None
    assert ex.extract_resource_id([{"id": 1}], "id") is None  # keys are top-level only
    assert ex.extract_resource_id("id", "id") is None


# ----------------------------------------------------------- target config


def test_target_config_validation():
    with pytest.raises(ValueError, match="base_url"):
        ex.TargetConfig(base_url="ftp://x")
    with pytest.raises(ValueError, match="base_url"):
        ex.TargetConfig(base_url="localhost:80")
    with pytest.raises(ValueError, match="timeout"):
        ex.TargetConfig(base_url="http://h:1", timeout_ms=0)
    cfg = ex.TargetConfig(base_url="http://example.test:8123")
    assert (cfg.host, cfg.port) == ("example.test", 8123)
    cfg.close()


# ------------------------------------------------------- live execution


def test_two_request_chain_resolves_dependency(ref_grammar, target_cfg):
    tc = _mkcase(
        ref_grammar,
        ("create-project", "create-branch"),
        [["testString"], ["master"]],
    )
    result = ex.execute_test_case(tc, ref_grammar, target_cfg, case_id="dep")
    assert result.verdict == "pass"
    assert result.statuses == [201, 201]
    project_id = ex.extract_resource_id(json.loads(result.records[0].response_body), "id")
    assert project_id is not None
    assert "/api/projects/%s/" % project_id in result.records[1].request_text
    assert marker_text("project-id") not in result.records[1].request_text


def test_per_request_coverage_windows(ref_grammar, target_cfg):
    manifest = cov.fetch_manifest(target_cfg)
    idx = {name: i for i, name in enumerate(manifest)}
    tc = _mkcase(
        ref_grammar,
        ("create-project", "create-branch"),
        [["testString"], ["master"]],
    )
    result = ex.execute_test_case(
        tc,
        ref_grammar,
        target_cfg,
        per_request_bitmaps=cov.fetch_and_reset_coverage,
    )
    assert result.statuses == [201, 201]
    first, second = (r.bitmap for r in result.records)
    assert idx["projects.created"] in first.indices()
    assert idx["branches.created"] not in first.indices()
    assert idx["branches.created"] in second.indices()
    assert idx["projects.created"] not in second.indices()
    # each window took its request's blocks off the bitmap
    assert peek_coverage(target_cfg) == 0
    # without the hook no bitmaps are attached
    plain = ex.execute_test_case(tc, ref_grammar, target_cfg)
    assert all(r.bitmap is None for r in plain.records)


def test_unresolved_consumer_renders_marker(ref_grammar, target_cfg):
    tc = build_case(ref_grammar, ("create-branch",), [["master"]])
    result = ex.execute_test_case(tc, ref_grammar, target_cfg)
    assert marker_text("project-id") in result.records[0].request_text
    assert result.statuses[0] == 404  # no such project; never a crash
    assert result.verdict == "pass"


def test_live_binding_beats_a_consumer_payload(ref_grammar, target_cfg):
    tc = build_case(ref_grammar, ("create-branch",), [["master"]])
    consumer = next(
        pos for pos in tc.seq.leaf_index if ref_grammar.rules[tc.seq.tokens[pos]].lhs == "consumer"
    )
    tc.seq.payloads[consumer] = "no-such-project"
    result = ex.execute_test_case(tc, ref_grammar, target_cfg)
    # no earlier answer bound project-id: the payload goes on the wire
    assert "/api/projects/no-such-project/" in result.records[0].request_text
    assert result.statuses == [404]

    tc = _mkcase(
        ref_grammar,
        ("create-project", "create-branch"),
        [["testString"], ["master"]],
    )
    consumer = next(
        pos for pos in tc.seq.leaf_index if ref_grammar.rules[tc.seq.tokens[pos]].lhs == "consumer"
    )
    tc.seq.payloads[consumer] = "no-such-project"
    result = ex.execute_test_case(tc, ref_grammar, target_cfg)
    # the project created first binds project-id, and the binding wins
    assert "no-such-project" not in result.records[1].request_text
    assert result.statuses == [201, 201]


def test_stop_at_non_2xx_ends_the_case_after_the_first_failing_answer(ref_grammar, target_cfg):
    tc = _mkcase(
        ref_grammar,
        ("create-project", "create-branch", "get-project"),
        [["testString"], ["master"], []],
    )
    branches = next(
        pos for pos in tc.seq.leaf_index
        if ref_grammar.rules[tc.seq.tokens[pos]].value == "/repository/branches"
    )
    tc.seq.payloads[branches] = "/repository/nowhere"  # no such route
    assert ex.execute_test_case(tc, ref_grammar, target_cfg).statuses == [201, 404, 200]
    result = ex.execute_test_case(tc, ref_grammar, target_cfg, stop_at_non_2xx=True)
    assert result.statuses == [201, 404]
    assert result.verdict == "pass"


def test_latest_extraction_wins(ref_grammar, target_cfg):
    tc = build_case(
        ref_grammar,
        ("create-project", "create-project", "create-branch"),
        [["testString"], ["testString"], ["master"]],
    )
    result = ex.execute_test_case(tc, ref_grammar, target_cfg)
    assert result.statuses == [201, 201, 201]
    first = ex.extract_resource_id(json.loads(result.records[0].response_body), "id")
    second = ex.extract_resource_id(json.loads(result.records[1].response_body), "id")
    assert first != second
    assert "/api/projects/%s/" % second in result.records[2].request_text
    assert "/api/projects/%s/" % first not in result.records[2].request_text


def test_request_text_transform_hook(ref_grammar, target_cfg):
    tc = _mkcase(
        ref_grammar,
        ("create-project", "create-branch"),
        [["testString"], ["master"]],
    )
    seen = []

    def transform(text, idx):
        seen.append(idx)
        if idx == 0:
            return text.replace("POST", "TRACE", 1)
        return text

    result = ex.execute_test_case(
        tc, ref_grammar, target_cfg, request_text_transform=transform
    )
    assert seen == [0, 1]
    assert result.records[0].request_text.startswith("TRACE ")
    assert result.statuses[0] in (404, 405)


def test_execution_result_statuses_and_latency(ref_grammar, target_cfg):
    tc = _mkcase(ref_grammar, ("create-project",), [["testString"]])
    result = ex.execute_test_case(tc, ref_grammar, target_cfg, case_id="one")
    assert result.case_id == "one"
    assert result.statuses == [201]
    assert result.records[0].latency_s >= 0
    assert result.records[0].reason


# ---------------------------------------------------- transport failures


def _dead_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _losing_server():
    """A target that answers a case's state reset and closes, then loses
    the request sent after it: the base URL and the thread."""
    url, thread, _lines = _dropping_server([[_ok(b"{}", b"Connection: close\r\n")], [b""]])
    return url, thread


def test_transport_error_verdict(ref_grammar):
    url, thread = _losing_server()
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    tc = _mkcase(ref_grammar, ("create-project",), [["testString"]])
    result = ex.execute_test_case(tc, ref_grammar, cfg)
    assert result.verdict == "transport_error"
    assert result.statuses == [ex.NO_RESPONSE_STATUS]
    assert result.records[0].reason  # carries the failure message
    cfg.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_reset_raises_on_dead_target():
    cfg = ex.TargetConfig(base_url="http://127.0.0.1:%d" % _dead_port(), timeout_ms=500)
    with pytest.raises(ex.TransportError):
        ex.reset_target_state(cfg)
    cfg.close()


def _canned_server(parts):
    """Serve one connection on localhost: read a request head, send each of
    ``parts`` separately, then close.  Returns the base URL and the thread."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)

    def serve():
        conn, _ = srv.accept()
        with conn:
            buf = b""
            while b"\r\n\r\n" not in buf:
                buf += conn.recv(4096)
            for part in parts:
                conn.sendall(part)
                time.sleep(0.01)  # lands in a separate recv
        srv.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return "http://127.0.0.1:%d" % srv.getsockname()[1], thread


@pytest.mark.parametrize(
    "parts, body",
    [
        (  # chunked, with a chunk extension and a trailer, split mid-chunk
            [
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;x=1\r\nhel",
                b"lo\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n",
            ],
            "hello world",
        ),
        (  # no Content-Length: the body runs to EOF
            [b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nfirst ", b"second"],
            "first second",
        ),
        ([b"HTTP/1.1 204 No Content\r\n\r\n"], ""),
    ],
    ids=["chunked", "close-delimited", "no-content"],
)
def test_response_framing(parts, body):
    url, thread = _canned_server(parts)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    assert ex.http_request(cfg, "GET", "/") == (int(parts[0][9:12]), body)
    cfg.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_close_delimited_response_marks_the_connection_stale():
    url, thread = _canned_server([b"HTTP/1.1 200 OK\r\n\r\nbye"])
    conn = ex._CaseConnection(ex.TargetConfig(base_url=url, timeout_ms=2000))
    assert conn.roundtrip(b"GET / HTTP/1.1\r\n\r\n") == (200, "OK", "bye", None)
    assert conn.stale
    conn.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("together", [False, True], ids=["two-reads", "one-read"])
def test_interim_responses_are_skipped(together):
    parts = [b"HTTP/1.1 100 Continue\r\n\r\n", b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"]
    url, thread = _canned_server([b"".join(parts)] if together else parts)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    assert ex.http_request(cfg, "GET", "/") == (200, "ok")
    assert not cfg._control.stale
    cfg.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_bytes_past_a_response_mark_the_connection_stale(monkeypatch):
    # the server answers once and then sends a second, unasked response in
    # the same read; a request sent on that socket would take it as its own
    ok = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n"
    url, thread = _canned_server([ok + b"one" + ok + b"old", ok + b"two"])
    opened = _count_connections(monkeypatch)
    conn = ex._CaseConnection(ex.TargetConfig(base_url=url, timeout_ms=2000))
    try:
        assert conn.roundtrip(b"GET / HTTP/1.1\r\n\r\n") == (200, "OK", "one", None)
        assert conn.stale
        # the next request goes out on a fresh socket, which this server
        # (one connection only) never answers
        with pytest.raises(ex.TransportError):
            conn.roundtrip(b"GET / HTTP/1.1\r\n\r\n")
    finally:
        conn.close()
    assert len(opened) == 2
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "response, match",
    [
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab", "mid-body"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "chunk size"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nabcdefgh", "content-length"),
    ],
    ids=["truncated-chunk", "bad-chunk-size", "negative-length"],
)
def test_malformed_framing_raises(response, match):
    url, thread = _canned_server([response])
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    with pytest.raises(ex.TransportError, match=match):
        ex.http_request(cfg, "GET", "/")
    cfg.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _count_connections(monkeypatch) -> list:
    opened = []
    connect = socket.create_connection

    def counted(*args, **kwargs):
        opened.append(args[0])
        return connect(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    return opened


def test_failure_on_a_fresh_socket_is_not_resent(monkeypatch):
    url, thread = _canned_server(
        [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"]
    )
    opened = _count_connections(monkeypatch)
    conn = ex._CaseConnection(ex.TargetConfig(base_url=url, timeout_ms=2000))
    with pytest.raises(ex.TransportError, match="chunk size"):
        conn.roundtrip(b"GET / HTTP/1.1\r\n\r\n")
    assert len(opened) == 1
    thread.join(timeout=5)
    assert not thread.is_alive()


def _read_request(conn, buf):
    """The next request's head from ``conn``, its body skipped, and the
    bytes after it: ``(head, rest)``; None at EOF.  Pipelined requests
    stay in ``rest``."""
    while b"\r\n\r\n" not in buf:
        chunk = conn.recv(4096)
        if not chunk:
            return None
        buf += chunk
    head, buf = buf.split(b"\r\n\r\n", 1)
    length = int(head.split(b"Content-Length: ", 1)[1].split(b"\r\n", 1)[0])
    while len(buf) < length:
        chunk = conn.recv(4096)
        if not chunk:
            return None
        buf += chunk
    return head, buf[length:]


def _dropping_server(answers_per_connection):
    """Serve one connection per list of answers, in turn: answer one
    request per answer (an empty answer sends nothing), then close without
    saying so.  Returns the base URL, the thread and, per connection, the
    request lines it read."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(len(answers_per_connection))
    lines = []

    def serve():
        for answers in answers_per_connection:
            conn, _ = srv.accept()
            lines.append([])
            with conn:
                conn.settimeout(5)
                buf = b""
                for answer in answers:
                    if (read := _read_request(conn, buf)) is None:
                        break
                    head, buf = read
                    lines[-1].append(head.split(b"\r\n", 1)[0].decode("latin-1"))
                    conn.sendall(answer)
        srv.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return "http://127.0.0.1:%d" % srv.getsockname()[1], thread, lines


def test_control_connection_is_kept_alive_and_reopened_once_when_dropped(monkeypatch):
    url, thread, _lines = _dropping_server([[_ok(b"one"), _ok(b"two")], [_ok(b"three")]])
    opened = _count_connections(monkeypatch)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        assert [ex.http_request(cfg, "GET", "/")[1] for _ in range(3)] == ["one", "two", "three"]
    finally:
        cfg.close()
    assert len(opened) == 2
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_side_channel_error_status_is_a_transport_error():
    url, thread = _canned_server([b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"])
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    with pytest.raises(ex.TransportError, match="coverage reset returned 404"):
        cov.reset_coverage(cfg)
    cfg.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _ok(body, headers=b""):
    return b"HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s" % (headers, len(body), body)


@pytest.mark.parametrize(
    "body",
    [
        b"{}",
        b"not json",
        b'{"blocks": [1]}',
        b'{"blocks": "ab"}',
        pytest.param(b"[" * 100000, id="deep-nesting"),  # RecursionError
    ],
)
def test_malformed_manifest_is_a_transport_error(body):
    url, thread = _canned_server([_ok(body)])
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    with pytest.raises(cov.CoverageDataError, match="malformed coverage manifest"):
        cov.fetch_manifest(cfg)
    cfg.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_answer_json_cannot_take_extracts_nothing(ref_grammar):
    # past Python's int-string limit: json.loads raises ValueError, so the
    # project id binds nothing and the next request keeps its marker
    url, _heads, stop = _path_server({None: _ok(b'{"id": %s}' % (b"1" * 5000))})
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        tc = _mkcase(ref_grammar, ("create-project", "create-branch"), [["testString"], ["master"]])
        result = ex.execute_test_case(tc, ref_grammar, cfg)
    finally:
        cfg.close()
        stop()
    assert (result.verdict, result.statuses) == ("pass", [200, 200])
    assert marker_text("project-id") in result.records[1].request_text


def _path_server(answers):
    """Serve keep-alive connections on localhost, each on its own thread,
    answering every request with ``answers[path]``, or with
    ``answers[None]`` for a path not listed.  Returns the base
    URL, the list of request heads received, and a function that stops
    the server and checks that its threads ended."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(4)
    heads, threads = [], []

    def serve_connection(conn):
        with conn:
            conn.settimeout(5)
            buf = b""
            while (read := _read_request(conn, buf)) is not None:
                head, buf = read
                heads.append(head.decode("latin-1"))
                path = head.split(b" ", 2)[1].decode("latin-1")
                conn.sendall(answers[path if path in answers else None])

    def accept():
        while True:
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            threads.append(threading.Thread(target=serve_connection, args=(conn,), daemon=True))
            threads[-1].start()

    threads.append(threading.Thread(target=accept, daemon=True))
    threads[0].start()

    def stop():  # after the client closed its connections
        srv.shutdown(socket.SHUT_RDWR)  # wakes accept()
        srv.close()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

    return "http://127.0.0.1:%d" % srv.getsockname()[1], heads, stop


def _windowed_case(g, api_answer):
    """Run a one-request case with per-request windows against a server
    that answers the API with ``api_answer``.  Returns the result and the
    request lines."""
    url, heads, stop = _path_server({"/__reset__": _RESET_OK, "/api/projects": api_answer})
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        tc = _mkcase(g, ("create-project",), [["testString"]])
        result = ex.execute_test_case(tc, g, cfg, per_request_bitmaps=cov.fetch_and_reset_coverage)
    finally:
        cfg.close()
        stop()
    return result, [h.split("\r\n", 1)[0] for h in heads]


def test_an_answer_without_a_window_is_a_coverage_data_error(ref_grammar):
    with pytest.raises(cov.CoverageDataError, match="answer carries no X-Coverage-Window"):
        _windowed_case(ref_grammar, _ok(b'{"id": 1}'))


def test_fetch_takes_a_carried_window_without_a_request(ref_grammar):
    result, lines = _windowed_case(ref_grammar, _ok(b'{"id": 1}', b"X-Coverage-Window: 8:82\r\n"))
    assert result.records[0].bitmap.indices() == [1, 7]
    assert lines == _PAIR


@pytest.mark.parametrize(
    "value",
    [
        b"8:zz",
        b"8:0000",
        b"05",
        b"-1:",
        b"8:05:05",
        b"3:08",
        b"8:5",  # odd number of hex digits
        b"9:00",  # 9 blocks need 2 bytes
        b"66:" + b"ff" * 9,  # bits past block 66
    ],
)
def test_malformed_coverage_window_header_is_a_transport_error(ref_grammar, value):
    answer = _ok(b'{"id": 1}', b"X-Coverage-Window: %s\r\n" % value)
    with pytest.raises(cov.CoverageDataError, match="malformed coverage window"):
        _windowed_case(ref_grammar, answer)


# ------------------------------------------------------- case connection


def _run_two_request_case(g, cfg):
    tc = _mkcase(g, ("create-project", "create-branch"), [["testString"], ["master"]])
    return ex.execute_test_case(tc, g, cfg)


def test_cases_share_one_connection(ref_grammar, monkeypatch):
    srv = serve()
    cfg = ex.TargetConfig(base_url=srv.base_url, timeout_ms=2000)
    opened = _count_connections(monkeypatch)
    try:
        for _ in range(3):
            result = _run_two_request_case(ref_grammar, cfg)
            assert result.statuses == [201, 201]
            ex.reset_target_state(cfg)
            assert ex.replay_transcript(ex.write_transcript(result), cfg).reproduced
        assert len(opened) == 2  # the control connection and the case connection
    finally:
        cfg.close()
        srv.stop()


def test_case_connection_dropped_between_cases_is_reopened_once(ref_grammar, monkeypatch):
    srv = serve()
    cfg = ex.TargetConfig(base_url=srv.base_url, timeout_ms=2000)
    opened = _count_connections(monkeypatch)
    try:
        assert _run_two_request_case(ref_grammar, cfg).statuses == [201, 201]
        for conn in list(srv._conns):  # the server drops it without saying so
            conn.shutdown(socket.SHUT_RDWR)
        assert _run_two_request_case(ref_grammar, cfg).statuses == [201, 201]
        assert len(opened) == 2
    finally:
        cfg.close()
        srv.stop()


def test_case_after_a_transport_failure_starts_on_a_fresh_socket(ref_grammar, monkeypatch):
    # the first case's request is lost on the socket after its reset's;
    # the next case opens another
    url, thread, _lines = _dropping_server(
        [[_RESET_CLOSE], [b""], [_RESET_OK, _ok(b'{"id": 7}'), _ok(b"{}")]]
    )
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    opened = _count_connections(monkeypatch)
    try:
        failed = _run_two_request_case(ref_grammar, cfg)
        assert failed.verdict == "transport_error"
        assert failed.statuses == [ex.NO_RESPONSE_STATUS]
        assert cfg._case.sock is None
        result = _run_two_request_case(ref_grammar, cfg)
        assert result.statuses == [200, 200]
        assert "/api/projects/7/" in result.records[1].request_text
    finally:
        cfg.close()
    assert len(opened) == 3
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_close_closes_both_connections(ref_grammar):
    srv = serve()
    cfg = ex.TargetConfig(base_url=srv.base_url, timeout_ms=2000)
    try:
        ex.reset_target_state(cfg)
        _run_two_request_case(ref_grammar, cfg)
        assert len(srv._conns) == 2
        cfg.close()
        assert cfg._case.sock is None and cfg._control.sock is None
        deadline = time.monotonic() + 1
        while srv._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not srv._conns
        # a later call reopens them
        ex.reset_target_state(cfg)
        assert _run_two_request_case(ref_grammar, cfg).statuses == [201, 201]
    finally:
        cfg.close()
        srv.stop()


# --------------------------------------------------- pipelined state reset

_RESET_OK = _ok(b'{"ok": true}')
_RESET_CLOSE = _ok(b"{}", b"Connection: close\r\n")
_REFUSED = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"
_CREATED = b'HTTP/1.1 201 Created\r\nContent-Length: 9\r\n\r\n{"id": 7}'
_PAIR = ["POST /__reset__ HTTP/1.1", "POST /api/projects HTTP/1.1"]


def _reset_case(g, cfg, names=("create-project",), value="testString"):
    values = [[value], ["master"], ["feature1", "create", "feature1"]]
    tc = _mkcase(g, names, values[: len(names)])
    return ex.execute_test_case(tc, g, cfg)


@pytest.mark.parametrize(
    "parts",
    [
        [_RESET_OK + _CREATED],
        [_RESET_OK[:20], _RESET_OK[20:] + _CREATED[:10], _CREATED[10:]],
    ],
    ids=["one-read", "reset-answer-split"],
)
def test_a_reset_rides_ahead_of_the_first_request(ref_grammar, parts, monkeypatch):
    url, thread = _canned_server(parts)
    opened = _count_connections(monkeypatch)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        result = _reset_case(ref_grammar, cfg)
        assert not cfg._case.stale  # nothing was read past the request's answer
    finally:
        cfg.close()
    assert (result.statuses, result.records[0].response_body) == ([201], '{"id": 7}')
    assert len(opened) == 1
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "answers, read",
    [([[_REFUSED]], [_PAIR[:1]]), ([[b"", b""], [_REFUSED]], [_PAIR, _PAIR[:1]])],
    ids=["non-200", "no-answer-then-a-lone-reset-refused"],
)
def test_a_reset_without_a_200_answer_leaves_execute_test_case(ref_grammar, answers, read):
    url, thread, lines = _dropping_server(answers)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        with pytest.raises(ex.StateResetError, match="state reset returned 503"):
            _reset_case(ref_grammar, cfg)
    finally:
        cfg.close()
    assert lines == read
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_reset_on_a_dead_target_leaves_execute_test_case(ref_grammar):
    cfg = ex.TargetConfig(base_url="http://127.0.0.1:%d" % _dead_port(), timeout_ms=500)
    try:
        with pytest.raises(ex.StateResetError, match="connect failed"):
            _reset_case(ref_grammar, cfg)
    finally:
        cfg.close()


@pytest.mark.parametrize(
    "first", [[b"", b""], [_RESET_OK, b""]], ids=["no-answer", "eof-after-the-reset-answer"]
)
def test_a_request_that_kills_the_connection_is_a_000_record(ref_grammar, first, monkeypatch):
    # the target cannot be told from a dead one until a lone reset on the
    # control connection is answered; the request then goes alone from
    # that reset state, is lost again, and the next case runs
    url, thread, lines = _dropping_server([first, [_RESET_OK], [b""], [_RESET_OK, _CREATED]])
    opened = _count_connections(monkeypatch)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        lost = _reset_case(ref_grammar, cfg)
        result = _reset_case(ref_grammar, cfg)
    finally:
        cfg.close()
    assert (lost.verdict, lost.statuses) == ("transport_error", [ex.NO_RESPONSE_STATUS])
    assert result.statuses == [201]
    assert lines == [_PAIR, _PAIR[:1], _PAIR[1:], _PAIR]
    assert len(opened) == 4
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_request_that_kills_the_reference_target_connection_is_a_000_record(
    ref_grammar, monkeypatch, capsys
):
    # the target queues the reset's answer, then faults on the request and
    # closes the connection without sending either
    answer_one = ReferenceTarget._answer_one

    def fault_on_nil(self, buf, eof):
        if buf.startswith(b"POST /api/projects ") and b"nil" in buf:
            raise RuntimeError("worker died")
        return answer_one(self, buf, eof)

    monkeypatch.setattr(ReferenceTarget, "_answer_one", fault_on_nil)
    srv = serve()
    served = count_target_resets(monkeypatch, srv)
    cfg = ex.TargetConfig(base_url=srv.base_url, timeout_ms=2000)
    try:
        lost = _reset_case(ref_grammar, cfg, value="nil")
        result = _reset_case(ref_grammar, cfg)
    finally:
        cfg.close()
        srv.stop()
    assert (lost.verdict, lost.statuses) == ("transport_error", [ex.NO_RESPONSE_STATUS])
    assert result.statuses == [201]
    # the lost pair's reset, the lone one, and the next case's
    assert served[0] == 3
    assert "worker died" in capsys.readouterr().err


def test_a_reset_answer_that_says_close_sends_the_request_alone(ref_grammar, monkeypatch):
    # RFC 9112 section 9.6: the server did not read what followed the reset
    url, thread, lines = _dropping_server([[_RESET_CLOSE], [_CREATED]])
    opened = _count_connections(monkeypatch)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        result = _reset_case(ref_grammar, cfg)
    finally:
        cfg.close()
    assert result.statuses == [201]
    assert lines == [_PAIR[:1], _PAIR[1:]]
    assert len(opened) == 2
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_reused_socket_dropped_before_the_reset_answer_resends_the_pair_once(
    ref_grammar, monkeypatch
):
    url, thread, lines = _dropping_server([[_RESET_OK, _CREATED], [_RESET_OK, _CREATED]])
    opened = _count_connections(monkeypatch)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        statuses = [_reset_case(ref_grammar, cfg).statuses for _ in range(2)]
    finally:
        cfg.close()
    assert statuses == [[201], [201]]
    assert lines == [_PAIR, _PAIR]
    assert len(opened) == 2
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("closing", [b"Connection: close\r\n", b""], ids=["header", "eof"])
def test_a_target_that_closes_after_every_answer_runs_a_case(ref_grammar, closing, monkeypatch):
    # after an EOF the client cannot tell whether the first request ran,
    # so a lone reset goes ahead of it; after ``Connection: close`` it did not
    resets = [b"{}"] if closing else [b"{}", b"{}"]
    answers = resets + [b'{"id": 7}', b'{"branch": "b"}', b"{}"]
    url, thread, lines = _dropping_server([[_ok(body, closing)] for body in answers])
    opened = _count_connections(monkeypatch)
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    try:
        result = _reset_case(ref_grammar, cfg, ("create-project", "create-branch", "create-commit"))
    finally:
        cfg.close()
    assert result.statuses == [200, 200, 200]
    assert "/api/projects/7/" in result.records[1].request_text
    assert [read[0] for read in lines[: len(resets) + 1]] == [_PAIR[0]] * len(resets) + [_PAIR[1]]
    assert [len(read) for read in lines] == [1] * len(answers)
    assert len(opened) == len(answers)
    thread.join(timeout=5)
    assert not thread.is_alive()


# ------------------------------------------------------------ transcripts


def test_transcript_round_trip_with_raw_payload_bytes(ref_grammar, target_cfg):
    tc = _mkcase(ref_grammar, ("create-project",), [["testString"]])
    seq = tc.seq
    str_ord = next(
        o
        for o in range(seq.n_leaves())
        if seq.leaf_rule(o, ref_grammar).lhs == "string"
    )
    pos = seq.leaf_index[str_ord]
    seq.payloads[pos] = "A\xffB\x01"
    result = ex.execute_test_case(tc, ref_grammar, target_cfg)
    text = ex.write_transcript(result)
    entries = ex.load_transcript(text)
    assert len(entries) == 1
    assert entries[0].request_text == result.records[0].request_text
    assert entries[0].status == result.statuses[0]
    assert "A\xffB\x01" in entries[0].request_text


def _round_trip(texts):
    """The request texts and statuses of a transcript of ``texts``, each
    answered 500, as read back."""
    records = [ex.RequestRecord(text, 500, "Internal Server Error", "{}\n\n x ", 0.0)
               for text in texts]
    entries = ex.load_transcript(ex.write_transcript(ex.ExecutionResult("c", records, "bug_500")))
    return [(e.request_text, e.status) for e in entries]


@pytest.mark.parametrize(
    "text",
    [
        "POST /api/projects/1/repository/commits HTTP/1.\n\nPRIVATE-TOKEN: x",
        "GET /api/projects HTTP/1.1\nPRIVATE-TOKEN: x \n",
        "\n\nGET / HTTP/1.1  \n\n",
        "HTTP/1.1 200 OK\nX: 1",
        "GET / HTTP/1.1\n\\n \\x20\r\t",
    ],
    ids=["empty-line", "trailing-space", "edge-newlines", "status-lookalike", "escapes"],
)
def test_transcript_keeps_what_canonicalize_would_merge_or_strip(text):
    assert _round_trip([text, "GET / HTTP/1.1"]) == [(text, 500), ("GET / HTTP/1.1", 500)]


def test_byte_flipped_requests_round_trip_through_a_transcript(ref_grammar):
    g = ref_grammar
    texts = [render_request(view, lambda i, tc=tc: tc.seq.leaf_value(i, g))
             for tc in (seed.case for seed in generate_seeds(g, max_len=3).seeds)
             for view in tc.requests]
    rng = np.random.default_rng(5)
    flipped = []
    for _ in range(40):
        for text in texts:
            flipped.append(mu.mutate_bytes(text, rng))
            flipped.append(mu.apply_byte_noise(text, mu.draw_byte_noise(len(text), rng)))
    assert _round_trip(flipped) == [(text, 500) for text in flipped]


def test_transcript_records_transport_failures(ref_grammar):
    url, thread = _losing_server()
    cfg = ex.TargetConfig(base_url=url, timeout_ms=2000)
    tc = _mkcase(ref_grammar, ("create-project",), [["testString"]])
    result = ex.execute_test_case(tc, ref_grammar, cfg)
    entries = ex.load_transcript(ex.write_transcript(result))
    assert entries[0].status == ex.NO_RESPONSE_STATUS
    cfg.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_replay_reproduces_after_reset(ref_grammar, target_cfg):
    tc = _mkcase(
        ref_grammar,
        ("create-project", "create-branch"),
        [["testString"], ["master"]],
    )
    result = ex.execute_test_case(tc, ref_grammar, target_cfg)
    transcript = ex.write_transcript(result)
    ex.reset_target_state(target_cfg)
    outcome = ex.replay_transcript(transcript, target_cfg)
    assert outcome.reproduced
    assert outcome.expected == outcome.actual == [201, 201]


def test_replay_flags_status_drift(ref_grammar, target_cfg):
    tc = _mkcase(ref_grammar, ("create-project",), [["testString"]])
    result = ex.execute_test_case(tc, ref_grammar, target_cfg)
    transcript = ex.write_transcript(result).replace("HTTP/1.1 201", "HTTP/1.1 500")
    ex.reset_target_state(target_cfg)
    outcome = ex.replay_transcript(transcript, target_cfg)
    assert not outcome.reproduced
    assert outcome.expected == [500] and outcome.actual == [201]


def test_replay_pads_missing_responses_on_dead_target(ref_grammar, target_cfg):
    tc = _mkcase(
        ref_grammar,
        ("create-project", "create-branch"),
        [["testString"], ["master"]],
    )
    transcript = ex.write_transcript(
        ex.execute_test_case(tc, ref_grammar, target_cfg)
    )
    dead = ex.TargetConfig(
        base_url="http://127.0.0.1:%d" % _dead_port(), timeout_ms=500
    )
    outcome = ex.replay_transcript(transcript, dead)
    assert not outcome.reproduced
    assert outcome.actual == [ex.NO_RESPONSE_STATUS, ex.NO_RESPONSE_STATUS]
    dead.close()
