"""Tests for the instrumented reference service: endpoint behaviour,
auth, reset determinism, robustness to malformed input, and the three
injected crash bugs."""

import json
import socket
import sys
import threading
import time

import pytest

from restfuzz import coverage as cov
from restfuzz.execution import (
    TargetConfig, TransportError, _CaseConnection, http_request, reset_target_state
)
from restfuzz.target import KNOWN_METHODS, ReferenceTarget, injected_bug_catalog


def j(cfg, method, path, obj=None, raw_body=None):
    body = raw_body if raw_body is not None else (
        json.dumps(obj) if obj is not None else None
    )
    status, text = http_request(cfg, method, path, body)
    try:
        return status, json.loads(text)
    except json.JSONDecodeError:
        return status, text


def make_project(cfg, name="proj"):
    status, data = j(cfg, "POST", "/api/projects", {"name": name})
    assert status == 201, data
    return data["id"]


def block_index(cfg, name):
    return cov.fetch_manifest(cfg).index(name)


def bitmap_for(cfg, fn):
    cov.reset_coverage(cfg)
    out = fn()
    return out, cov.fetch_and_reset_coverage(cfg)


# ------------------------------------------------------------ endpoints


def test_endpoint_matrix(target_cfg):
    reset_target_state(target_cfg)
    pid = make_project(target_cfg, "demo")
    assert pid == 1

    status, data = j(target_cfg, "GET", "/api/projects")
    assert status == 200 and {"id": 1} in data["projects"]

    status, data = j(target_cfg, "GET", "/api/projects/1")
    assert status == 200 and data == {"id": 1, "name": "demo"}

    status, data = j(
        target_cfg,
        "POST",
        "/api/projects/1/repository/branches",
        {"branch": "dev", "ref": "master"},
    )
    assert status == 201 and data["branch"] == "dev"

    status, data = j(target_cfg, "GET", "/api/projects/1/repository/branches")
    assert status == 200
    assert [b["name"] for b in data["branches"]] == ["dev", "master"]

    status, data = j(
        target_cfg,
        "POST",
        "/api/projects/1/repository/commits",
        {
            "branch": "master",
            "commit_message": "first",
            "actions": [{"action": "create", "file_path": "a.txt"}],
        },
    )
    assert status == 201 and data["id"] == "c000001"

    status, data = j(target_cfg, "GET", "/api/projects/1/repository/commits")
    assert status == 200 and data == {"commits": []}


def test_missing_resources_are_404(target_cfg):
    reset_target_state(target_cfg)
    assert j(target_cfg, "GET", "/api/projects/999")[0] == 404
    assert j(target_cfg, "GET", "/api/projects/abc")[0] == 404
    assert j(target_cfg, "GET", "/api/projects/1/repository/branches")[0] == 404
    pid = make_project(target_cfg)
    status, _ = j(
        target_cfg,
        "POST",
        "/api/projects/%d/repository/commits" % pid,
        {"branch": "ghost", "commit_message": "m", "actions": []},
    )
    assert status == 404  # branch looked up before actions


def test_auth_enforced_except_side_channels(live_target):
    good = TargetConfig(base_url=live_target.base_url)
    bad = TargetConfig(base_url=live_target.base_url, auth_value="wrong-token")
    assert j(bad, "GET", "/api/projects")[0] == 401
    assert j(bad, "POST", "/api/projects", {"name": "x"})[0] == 401
    # introspection ignores credentials entirely
    assert j(bad, "POST", "/__reset__")[0] == 200
    assert j(bad, "GET", "/__coverage__")[0] == 200
    assert j(bad, "GET", "/__coverage__/manifest")[0] == 200
    assert j(bad, "POST", "/__coverage__/reset")[0] == 200
    assert j(good, "GET", "/api/projects")[0] == 200
    good.close()
    bad.close()


def test_reset_restarts_ids(target_cfg):
    reset_target_state(target_cfg)
    assert make_project(target_cfg) == 1
    assert make_project(target_cfg) == 2
    reset_target_state(target_cfg)
    assert make_project(target_cfg) == 1
    status, data = j(
        target_cfg,
        "POST",
        "/api/projects/1/repository/branches",
        {"branch": "b1", "ref": "master"},
    )
    assert status == 201 and data["commit"]["id"] == "c000001"


class _SlowIdTarget(ReferenceTarget):
    """Sleeps while reading the next project id, so that handling two
    requests at once would hand both the same id."""

    @property
    def _next_project_id(self):
        time.sleep(0.002)
        return self._next_id

    @_next_project_id.setter
    def _next_project_id(self, value):
        self._next_id = value


def test_concurrent_clients_get_distinct_project_ids():
    # keep-alive clients, as the fuzzer's case and coverage connections,
    # more of them than cores: the target must serialize per request, not
    # per connection, and no two creates may read the same next id
    srv = _SlowIdTarget().start()
    cfg = TargetConfig(base_url=srv.base_url)
    body = json.dumps({"name": "p"}).encode()
    wire = (
        "POST /api/projects HTTP/1.1\r\nHost: x\r\n%s: %s\r\nContent-Length: %d\r\n\r\n"
        % (cfg.auth_header, cfg.auth_value, len(body))
    ).encode() + body
    replies = [[], [], []]

    def client(out):
        conn = _CaseConnection(cfg)
        try:
            for _ in range(15):
                out.append(conn.roundtrip(wire))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(out,)) for out in replies]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
        srv.stop()
        cfg.close()
    assert not any(t.is_alive() for t in threads)
    got = [r for out in replies for r in out]
    assert [status for status, _, _ in got] == [201] * 45
    assert sorted(json.loads(text)["id"] for _, _, text in got) == list(range(1, 46))


def test_stop_closes_kept_alive_connections():
    srv = ReferenceTarget().start()
    conn = _CaseConnection(TargetConfig(base_url=srv.base_url, timeout_ms=2000))
    wire = b"POST /__reset__ HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    try:
        assert conn.roundtrip(wire)[0] == 200
        srv.stop()
        with pytest.raises(TransportError):
            conn.roundtrip(wire)
    finally:
        conn.close()
        srv.stop()


def test_commit_action_matrix(target_cfg):
    reset_target_state(target_cfg)
    pid = make_project(target_cfg)
    base = "/api/projects/%d/repository/commits" % pid

    def commit(action, file_path):
        return j(
            target_cfg,
            "POST",
            base,
            {
                "branch": "master",
                "commit_message": "m",
                "actions": [{"action": action, "file_path": file_path}],
            },
        )

    assert commit("create", "f.txt")[0] == 201
    assert commit("chmod", "f.txt")[0] == 201
    assert commit("update", "f.txt")[0] == 201
    assert commit("move", "f.txt")[0] == 201
    assert commit("delete", "f.txt")[0] == 201
    for action in ("delete", "move", "update", "chmod"):
        status, data = commit(action, "f.txt")
        assert (status, data["message"]) == (400, "file does not exist"), action
    assert commit("explode", "f.txt")[0] == 400


# ----------------------------------------------------- robustness sweep


def test_malformed_inputs_never_crash(target_cfg):
    reset_target_state(target_cfg)
    pid = make_project(target_cfg)
    branches = "/api/projects/%d/repository/branches" % pid
    commits = "/api/projects/%d/repository/commits" % pid
    probes = [
        ("POST", "/api/projects", None, "definitely not json"),
        ("POST", "/api/projects", None, "[1, 2]"),
        ("POST", "/api/projects", {"name": ""}, None),
        ("POST", "/api/projects", {"name": "nil"}, None),
        ("POST", "/api/projects", {"name": 7}, None),
        ("POST", "/api/projects", None, '{"name":"\xff"}'),
        ("PUT", "/api/projects", None, None),
        ("DELETE", "/api/projects/1", None, None),
        ("POST", branches, None, "{broken"),
        ("POST", branches, {"branch": "x"}, None),
        ("POST", branches, {"branch": "x", "ref": "nil"}, None),
        ("POST", branches, None, '{"branch":"\xfe","ref":"master"}'),
        ("POST", branches, {"branch": "master", "ref": "master"}, None),
        ("PATCH", branches, None, None),
        ("POST", commits, None, "null"),
        ("POST", commits, {"branch": "master"}, None),
        ("POST", commits, {"branch": "master", "commit_message": "nil"}, None),
        (
            "POST",
            commits,
            {"branch": "master", "commit_message": "m", "actions": "no"},
            None,
        ),
        (
            "POST",
            commits,
            {"branch": "master", "commit_message": "m", "actions": [7]},
            None,
        ),
        (
            "POST",
            commits,
            {
                "branch": "master",
                "commit_message": "m",
                "actions": [{"action": "frobnicate", "file_path": "f"}],
            },
            None,
        ),
        (
            "POST",
            commits,
            {
                "branch": "master",
                "commit_message": "m",
                "actions": [{"action": "create", "file_path": "nil"}],
            },
            None,
        ),
        ("PUT", commits, None, None),
        ("GET", "/api/projects/1/repository/co|mits", None, None),
        ("GET", "/api/projects/1/repository/", None, None),
        ("GET", "/api/nothing", None, None),
        ("GET", "/api/projects/1/2/3", None, None),
        ("GET", "/", None, None),
    ]
    for method, path, obj, raw in probes:
        status, _ = j(target_cfg, method, path, obj, raw)
        assert 400 <= status < 500, (method, path, obj, raw, status)


def _read_all(sock):
    chunks = []
    while True:
        try:
            part = sock.recv(65536)
        except TimeoutError:
            break
        if not part:
            break
        chunks.append(part)
    return b"".join(chunks)


def test_malformed_wire_requests(live_target):
    for raw in (
        b"GARBAGE\r\n\r\n",
        b"GET /x HTTP/1.1\r\nno colon here\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    ):
        with socket.create_connection(
            (live_target.host, live_target.port), timeout=2
        ) as sock:
            sock.settimeout(2)
            sock.sendall(raw)
            reply = _read_all(sock)
        assert reply.startswith(b"HTTP/1.1 400 "), raw


# --------------------------------------------------------- injected bugs


def _trigger_b1(cfg):
    pid = make_project(cfg)
    return j(
        cfg,
        "POST",
        "/api/projects/%d/repository/commits" % pid,
        raw_body='{"branch":"master","commit_message":"m",'
        '"actions":[{"action":"create","file_path":"\xff\xfe"}]}',
    )


def _trigger_b2(cfg):
    pid = make_project(cfg)
    return j(cfg, "GET", "/api/projects/%d/repository/|add_item" % pid)


def _trigger_b3(cfg):
    pid = make_project(cfg)
    return j(cfg, "FROB", "/api/projects/%d/repository/commits" % pid)


def test_injected_bugs_return_500_with_distinct_coverage(target_cfg):
    manifest = cov.fetch_manifest(target_cfg)
    fault_blocks = {
        "B1": "commits.file_path_decode_fault",
        "B2": "router.subresource_split_fault",
        "B3": "router.commits_method_fault",
    }
    bitmaps = {}
    for bug_id, trigger in (
        ("B1", _trigger_b1),
        ("B2", _trigger_b2),
        ("B3", _trigger_b3),
    ):
        reset_target_state(target_cfg)
        (status, data), bitmap = bitmap_for(target_cfg, lambda t=trigger: t(target_cfg))
        assert status == 500, (bug_id, data)
        assert "message" in data
        assert manifest.index(fault_blocks[bug_id]) in bitmap.indices(), bug_id
        bitmaps[bug_id] = bitmap
    assert bitmaps["B1"] != bitmaps["B2"]
    assert bitmaps["B1"] != bitmaps["B3"]
    assert bitmaps["B2"] != bitmaps["B3"]


def test_unknown_method_only_crashes_commits_route(target_cfg):
    reset_target_state(target_cfg)
    pid = make_project(target_cfg)
    assert j(target_cfg, "FROB", "/api/projects")[0] == 405
    assert (
        j(target_cfg, "FROB", "/api/projects/%d/repository/branches" % pid)[0] == 405
    )
    for method in KNOWN_METHODS:
        if method in ("GET", "POST"):
            continue
        status, _ = j(target_cfg, method, "/api/projects/%d/repository/commits" % pid)
        assert status == 405, method


def test_pipe_only_crashes_leading_position(target_cfg):
    reset_target_state(target_cfg)
    pid = make_project(target_cfg)
    assert j(target_cfg, "GET", "/api/projects/%d/repository/co|mits" % pid)[0] == 404
    assert j(target_cfg, "GET", "/api/projects/%d/repository/items|" % pid)[0] == 404
    assert j(target_cfg, "GET", "/api/projects/%d/repository/|add_item" % pid)[0] == 500


def test_injected_bug_catalog_matches_manifest(target_cfg):
    catalog = injected_bug_catalog()
    assert [b["id"] for b in catalog] == ["B1", "B2", "B3"]
    manifest = cov.fetch_manifest(target_cfg)
    for bug in catalog:
        assert bug["block"] in manifest
        assert bug["description"]
    assert {b["surface"] for b in catalog} == {"body-value", "path-static", "method"}


def test_bug_catalog_is_a_copy():
    cat = injected_bug_catalog()
    cat[0]["id"] = "tampered"
    assert injected_bug_catalog()[0]["id"] == "B1"
