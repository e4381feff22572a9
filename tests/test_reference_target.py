"""Tests for the instrumented reference service: endpoint behaviour,
auth, reset determinism, robustness to malformed input, and the three
injected crash bugs."""

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import restfuzz
from restfuzz import coverage as cov
from restfuzz.execution import (
    TargetConfig, TransportError, _CaseConnection, _recv_response,
    reset_target_state,
)
from restfuzz.target import DEFAULT_TOKEN, KNOWN_METHODS, ReferenceTarget, injected_bug_catalog

from .conftest import request_wire, windowed_request


def j(cfg, method, path, obj=None, raw_body=None):
    """Send one request on ``cfg``'s control connection: the status and
    the body, parsed when it is JSON."""
    body = raw_body if raw_body is not None else (
        json.dumps(obj) if obj is not None else ""
    )
    status, _reason, text, _window = cfg._control.roundtrip(request_wire(cfg, method, path, body))
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
    assert [status for status, _, _, _ in got] == [201] * 45
    assert sorted(json.loads(text)["id"] for _, _, text, _ in got) == list(range(1, 46))


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


_PEEK = b"GET /__coverage__ HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"


def test_one_thread_serves_every_connection_and_stop_closes_its_sockets():
    before = set(threading.enumerate())
    srv = ReferenceTarget().start()
    cfg = TargetConfig(base_url=srv.base_url, timeout_ms=2000)
    clients = [_CaseConnection(cfg) for _ in range(3)]
    try:
        for _ in range(2):  # every client is kept alive between its requests
            assert [client.roundtrip(_PEEK)[0] for client in clients] == [200] * 3
        assert set(threading.enumerate()) - before == {srv._thread}
        accepted = list(srv._conns)
        assert len(accepted) == 3
        srv.stop()
        assert not srv._thread.is_alive()
        assert srv._sock.fileno() == -1
        assert all(conn.fileno() == -1 for conn in accepted)
    finally:
        for client in clients:
            client.close()
        cfg.close()
        srv.stop()


def test_a_fault_serving_one_connection_closes_only_that_connection(monkeypatch, capsys):
    def fail(_target):
        raise RuntimeError("side channel failed")

    monkeypatch.setitem(ReferenceTarget._SIDE_CHANNELS, ("/__fail__", "GET"), fail)
    srv = ReferenceTarget().start()
    cfg = TargetConfig(base_url=srv.base_url, timeout_ms=2000)
    kept, failing = _CaseConnection(cfg), _CaseConnection(cfg)
    try:
        assert kept.roundtrip(_PEEK)[0] == 200
        with pytest.raises(TransportError):
            failing.roundtrip(_PEEK.replace(b"__coverage__", b"__fail__"))
        assert kept.roundtrip(_PEEK)[0] == 200
        assert "side channel failed" in capsys.readouterr().err
    finally:
        kept.close()
        failing.close()
        cfg.close()
        srv.stop()


def test_module_entry_point_serves_until_interrupted():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(restfuzz.__file__)))
    env.pop("PYTHONUNBUFFERED", None)  # the URL line must be flushed to a pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "restfuzz.target", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert select.select([proc.stdout], [], [], 10)[0], "no line within 10 s"
        url = re.search(r"http://\S+", proc.stdout.readline())[0]
        cfg = TargetConfig(base_url=url, timeout_ms=2000)
        try:
            assert len(cov.fetch_manifest(cfg)) == 66
        finally:
            cfg.close()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


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


# blocks every authenticated API request hits before its route
_ROUTED = {"http.request_received", "http.request_line_ok", "http.body_read", "router.auth_ok"}
_P = "/api/projects/1/repository/"
_MISSING = "/api/projects/9/repository/"


def _api(method, path, body=""):
    if not isinstance(body, str):
        body = json.dumps(body)
    return method, path, body


def _commit(*actions, **fields):
    return _api("POST", _P + "commits", dict(
        {"branch": "master", "commit_message": "m", "actions": list(actions)}, **fields
    ))


# Each row: a request (raw wire bytes, or (method, path, body) sent with the
# token), then the status, the body's "message" and the exact set of blocks
# the request hit (for an API request, on top of _ROUTED).  Rows run in
# order on one freshly reset target.
_PROBES = [
    (b"GARBAGE\r\n\r\n", 400, "malformed request line",
     {"http.request_received", "http.request_line_bad"}),
    (b"GET /x HTTP/1.1\r\nno colon here\r\n\r\n", 400, "malformed header",
     {"http.request_received", "http.header_bad"}),
    # a side channel rejected for its header leaves the bitmap empty
    (b"GET /__coverage__ HTTP/1.1\r\nno colon here\r\n\r\n", 400, "malformed header", set()),
    (b"GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400, "bad content-length",
     {"http.request_received", "http.request_line_ok", "http.header_bad"}),
    (b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400, "bad content-length",
     {"http.request_received", "http.request_line_ok", "http.header_bad"}),
    (b"GET /x HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 400, "bad content-length",
     {"http.request_received", "http.request_line_ok", "http.header_bad"}),
    (b"POST /api/projects HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400, "short body",
     {"http.request_received", "http.request_line_ok"}),
    (b"GET /api/projects HTTP/1.1\r\nPRIVATE-TOKEN: wrong\r\n\r\n", 401, "401 Unauthorized",
     {"http.request_received", "http.request_line_ok", "http.body_read", "router.auth_bad"}),
    (b"GET /__coverage__ HTTP/1.1\r\n\r\n", 200, None, set()),
    (b"GET /__coverage__/manifest HTTP/1.1\r\n\r\n", 200, None, set()),
    (b"POST /__coverage__/reset HTTP/1.1\r\n\r\n", 200, None, set()),
    (_api("GET", "/api/nothing"), 404, "404 Not Found", {"router.no_route"}),
    (_api("GET", "/"), 404, "404 Not Found", {"router.no_route"}),
    (_api("GET", "/api/projects/1/2/3"), 404, "404 Not Found", {"router.no_route"}),
    (_api("GET", "/api/projects?page=2"), 200, None,
     {"router.projects_collection", "router.method_known", "projects.list_ok"}),
    (_api("PUT", "/api/projects"), 405, "405 Method Not Allowed",
     {"router.projects_collection", "router.method_not_allowed"}),
    (_api("FROB", "/api/projects"), 405, "405 Method Not Allowed",
     {"router.projects_collection", "router.method_not_allowed"}),
    (_api("POST", "/api/projects", "definitely not json"), 400, "invalid json",
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_bad_json"}),
    (_api("POST", "/api/projects", "[1, 2]"), 400, "invalid json",
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_bad_json"}),
    # json.loads raises ValueError past the int-string limit
    (_api("POST", "/api/projects", '{"name": "p", "x": %s}' % ("1" * 5000)), 400,
     "invalid json",
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_bad_json"}),
    # ... and RecursionError on nesting deeper than the recursion limit
    (_api("POST", "/api/projects", "[" * 100000), 400, "invalid json",
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_bad_json"}),
    (_api("POST", "/api/projects", {"name": "nil"}), 400, "name is required",
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_name_missing"}),
    (_api("POST", "/api/projects", {"name": 7}), 400, "name is required",
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_name_missing"}),
    (_api("POST", "/api/projects", '{"name":"\xff"}'), 400, "name must be valid UTF-8",
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_name_not_utf8"}),
    (_api("POST", "/api/projects", {"name": "proj"}), 201, None,
     {"router.projects_collection", "router.method_known", "projects.create_parse",
      "projects.create_name_ok", "projects.created"}),
    (_api("GET", "/api/projects/1"), 200, None,
     {"router.project_item", "router.method_known", "projects.item_found", "projects.item_ok"}),
    (_api("GET", "/api/projects/abc"), 404, "404 Project Not Found",
     {"router.project_item", "router.method_known", "projects.item_missing"}),
    (_api("GET", "/api/projects/9"), 404, "404 Project Not Found",
     {"router.project_item", "router.method_known", "projects.item_missing"}),
    (_api("DELETE", "/api/projects/1"), 405, "405 Method Not Allowed",
     {"router.project_item", "router.method_not_allowed"}),
    (_api("GET", _P + "co|mits"), 404, "404 Not Found",
     {"router.repository_family", "router.subresource_parse", "router.subresource_unknown"}),
    (_api("GET", _P + "|add_item"), 500,
     "internal server error: no handler for empty subresource in '|add_item'",
     {"router.repository_family", "router.subresource_parse", "router.subresource_split_fault"}),
    (_api("GET", "/api/projects/1/repo/branches"), 404, "404 Not Found", {"router.no_route"}),
    (_api("GET", _P + "branches"), 200, None,
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.list_ok"}),
    (_api("GET", _MISSING + "branches"), 404, "404 Project Not Found",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.list_project_missing"}),
    (_api("PATCH", _P + "branches"), 405, "405 Method Not Allowed",
     {"router.repository_family", "router.branches_route", "router.method_not_allowed"}),
    (_api("FROB", _P + "branches"), 405, "405 Method Not Allowed",
     {"router.repository_family", "router.branches_route", "router.method_not_allowed"}),
    (_api("POST", _P + "branches", "{broken"), 400, "invalid json",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.bad_json"}),
    (_api("POST", _MISSING + "branches", {"branch": "x", "ref": "master"}), 404,
     "404 Project Not Found",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.project_missing"}),
    (_api("POST", _P + "branches", {"ref": "master"}), 400, "branch is required",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.project_ok", "branches.name_missing"}),
    (_api("POST", _P + "branches", '{"branch":"\xfe","ref":"master"}'), 400,
     "branch must be valid UTF-8",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.project_ok", "branches.name_not_utf8"}),
    (_api("POST", _P + "branches", {"branch": "x", "ref": ""}), 400, "ref is required",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.project_ok", "branches.name_ok", "branches.ref_missing"}),
    (_api("POST", _P + "branches", '{"branch":"x","ref":"\xfe"}'), 400,
     "ref must be valid UTF-8",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.project_ok", "branches.name_ok", "branches.ref_not_utf8"}),
    (_api("POST", _P + "branches", {"branch": "master", "ref": "master"}), 400,
     "branch already exists",
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.project_ok", "branches.name_ok", "branches.ref_ok",
      "branches.duplicate"}),
    (_api("POST", _P + "branches", {"branch": "dev", "ref": "master"}), 201, None,
     {"router.repository_family", "router.branches_route", "router.method_known",
      "branches.parse", "branches.project_ok", "branches.name_ok", "branches.ref_ok",
      "branches.created"}),
    (_api("GET", _P + "commits"), 200, None,
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.list_ok"}),
    (_api("GET", _MISSING + "commits"), 404, "404 Project Not Found",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.list_project_missing"}),
    (_api("PUT", _P + "commits"), 405, "405 Method Not Allowed",
     {"router.repository_family", "router.commits_route", "router.method_not_allowed"}),
    (_api("FROB", _P + "commits"), 500,
     "internal server error: unhandled method 'FROB' in commits dispatch",
     {"router.repository_family", "router.commits_route", "router.commits_method_fault"}),
    (_api("POST", _P + "commits", "null"), 400, "invalid json",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.bad_json"}),
    (_api("POST", _MISSING + "commits", {}), 404, "404 Project Not Found",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_missing"}),
    (_commit(branch="ghost"), 404, "404 Branch Not Found",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_missing"}),
    (_commit(branch=["master"]), 404, "404 Branch Not Found",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_missing"}),
    (_commit(commit_message="nil"), 400, "commit_message is required",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_missing"}),
    (_api("POST", _P + "commits", '{"branch":"master","commit_message":"\xff"}'), 400,
     "commit_message must be valid UTF-8",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok",
      "commits.message_not_utf8"}),
    (_commit(), 400, "actions are required",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_unknown"}),
    (_commit(actions="no"), 400, "actions are required",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_unknown"}),
    (_commit(7), 400, "bad action entry",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_unknown"}),
    (_commit({"action": "frobnicate", "file_path": "f"}), 400, "unknown action",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_unknown"}),
    (_commit({"action": "create", "file_path": "nil"}), 400, "file_path is required",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_known", "commits.file_path_missing"}),
    (_api("POST", _P + "commits", '{"branch":"master","commit_message":"m",'
          '"actions":[{"action":"create","file_path":"\xff\xfe"}]}'), 500,
     "internal server error: cannot decode file_path '\xff\xfe'",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_known", "commits.file_path_present", "commits.file_path_decode_fault"}),
]
_PROBES += [
    (_commit({"action": action, "file_path": "f"}), 400, "file does not exist",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_known", "commits.file_path_present", "commits.act_%s_missing" % action})
    for action in ("delete", "move", "update", "chmod")
]
_PROBES += [
    (_commit(*({"action": a, "file_path": "f"} for a in ("create", "chmod", "update", "move"))),
     201, "m",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_known", "commits.file_path_present", "commits.act_create_ok",
      "commits.created"}),
    # a second create keeps the file; an action after a failing one is not run
    (_commit({"action": "create", "file_path": "f"}, {"action": "move", "file_path": "g"},
             {"action": "delete", "file_path": "f"}), 400, "file does not exist",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_known", "commits.file_path_present", "commits.act_create_ok",
      "commits.act_move_missing"}),
    (_commit({"action": "delete", "file_path": "f"}), 201, "m",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_known", "commits.file_path_present", "commits.act_delete_ok",
      "commits.created"}),
    (_commit({"action": "delete", "file_path": "f"}, branch="dev"), 400, "file does not exist",
     {"router.repository_family", "router.commits_route", "router.method_known",
      "commits.parse", "commits.project_ok", "commits.branch_ok", "commits.message_ok",
      "commits.action_known", "commits.file_path_present", "commits.act_delete_missing"}),
    (b"POST /__reset__ HTTP/1.1\r\n\r\n", 200, None, set()),
    (_api("GET", "/api/projects/1"), 404, "404 Project Not Found",
     {"router.project_item", "router.method_known", "projects.item_missing"}),
]


def _probe_wire(request, token):
    if isinstance(request, bytes):
        return request
    method, path, body = request
    payload = body.encode("latin-1")
    return (
        "%s %s HTTP/1.1\r\nHost: h\r\nPRIVATE-TOKEN: %s\r\n"
        "Content-Length: %d\r\n\r\n" % (method, path, token, len(payload))
    ).encode("latin-1") + payload


def test_probe_table_pins_status_message_and_blocks():
    # every answer but a side channel's carries the window of exactly its
    # own request, one rejected before routing included; a side channel
    # hits no block and carries none
    reasons = {200: "OK", 201: "Created", 400: "Bad Request", 401: "Unauthorized",
               404: "Not Found", 405: "Method Not Allowed", 500: "Internal Server Error"}
    srv = ReferenceTarget().start()
    cfg = TargetConfig(base_url=srv.base_url)
    try:
        names = cov.fetch_manifest(cfg)
        reset_target_state(cfg)
        seen = set()
        for request, status, message, blocks in _PROBES:
            want = blocks if isinstance(request, bytes) else _ROUTED | blocks
            with socket.create_connection((srv.host, srv.port), timeout=5) as sock:
                sock.sendall(_probe_wire(request, srv.token))
                sock.shutdown(socket.SHUT_WR)
                got_status, reason, body, _closing, window, _rest = _recv_response(sock)
            assert (window is None) == (not want), request
            got = set()
            if window is not None:
                got = {names[i] for i in cov.fetch_and_reset_coverage(window).indices()}
            data = json.loads(body)
            got_message = data.get("message") if isinstance(data, dict) else None
            assert (got_status, reason, got_message, got) == (
                status, reasons[status], message, want
            ), request
            seen |= got
    finally:
        cfg.close()
        srv.stop()
    assert seen == set(names) and len(names) == 66
    assert {b["block"] for b in injected_bug_catalog()} <= seen


_FRONT = ["http.request_received", "http.request_line_ok", "http.body_read", "router.auth_ok",
          "router.projects_collection", "router.method_known"]
_CREATE = _probe_wire(_api("POST", "/api/projects", {"name": "p"}), DEFAULT_TOKEN)
_CREATE_HITS = _FRONT + ["projects.create_parse", "projects.create_name_ok", "projects.created"]
_BODY_AT = _CREATE.index(b"\r\n\r\n") + 4
# an LF-only head whose body holds a CRLF blank line
_LF_HEAD = (
    b"POST /api/projects HTTP/1.1\nPRIVATE-TOKEN: %s\nContent-Length: 8\n\nab\r\n\r\ncd"
    % DEFAULT_TOKEN.encode()
)


@pytest.mark.parametrize(
    "reads, answers, hits",
    [
        ([_CREATE + _probe_wire(_api("GET", "/api/projects"), DEFAULT_TOKEN)],
         [[201, 200], []], _CREATE_HITS + _FRONT + ["projects.list_ok"]),
        ([_CREATE[:20], _CREATE[20:]], [[], [201], []], _CREATE_HITS),
        ([_CREATE[:_BODY_AT + 3], _CREATE[_BODY_AT + 3:]], [[], [201], []], _CREATE_HITS),
        ([_CREATE[:-2]], [[], [400]], _FRONT[:2]),
        ([_CREATE[:20]], [[], []], []),
        ([_LF_HEAD + _probe_wire(_api("GET", "/api/projects"), DEFAULT_TOKEN)],
         [[400, 200], []],
         _FRONT + ["projects.create_parse", "projects.create_bad_json"] + _FRONT
         + ["projects.list_ok"]),
    ],
    ids=["pipelined", "split-head", "split-body", "short-body-at-eof", "cut-head-at-eof",
         "lf-head-crlf-in-body"],
)
def test_buffer_parser_answers_each_complete_request_once(reads, answers, hits):
    # one connection's reads, then its end, handed to the parser without a
    # socket: each request is answered once it is complete, and its blocks
    # are recorded once, however many reads it took
    srv = ReferenceTarget()
    recorded, record = [], srv.registry.hit
    srv.registry.hit = lambda block: (recorded.append(block), record(block))
    buf, got = b"", []
    for data in reads + [b""]:
        out, buf = srv._answer_all(buf + data, not data)
        got.append([int(status) for status in re.findall(rb"HTTP/1\.1 (\d{3}) ", out)])
    assert buf is None  # the end of the stream closes the connection
    assert (got, recorded) == (answers, hits)


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


def test_every_api_answer_carries_its_own_window(live_target, target_cfg):
    names = cov.fetch_manifest(target_cfg)

    def send(method, path):
        sock.sendall(
            (
                "%s %s HTTP/1.1\r\nHost: h\r\nPRIVATE-TOKEN: %s\r\nContent-Length: 0\r\n\r\n"
                % (method, path, live_target.token)
            ).encode("latin-1")
        )
        status, _reason, body, _closing, window, _rest = _recv_response(sock)
        return status, body, window

    with socket.create_connection((live_target.host, live_target.port), timeout=5) as sock:
        missing = send("GET", "/api/projects/999")
        listing = send("GET", "/api/projects")
        # the side channels carry none; the windows left the bitmap clear
        _, peek, peek_window = send("GET", "/__coverage__")
        _, _, reset_window = send("POST", "/__coverage__/reset")
    assert (missing[0], listing[0], peek_window, reset_window) == (404, 200, None, None)
    assert int(json.loads(peek)["bitmap"], 16) == 0
    windows = []
    for _status, _body, window in (missing, listing):
        count, hex_text = window.split(":")
        assert int(count) == len(names)
        windows.append(set(cov.CoverageBitmap.from_hex(int(count), hex_text).indices()))
    # each holds its own request's blocks only
    assert names.index("projects.item_missing") in windows[0] - windows[1]
    assert names.index("projects.list_ok") in windows[1] - windows[0]


# --------------------------------------------------------- injected bugs


def _trigger_b1(cfg):
    pid = make_project(cfg)
    return windowed_request(
        cfg,
        "POST",
        "/api/projects/%d/repository/commits" % pid,
        '{"branch":"master","commit_message":"m",'
        '"actions":[{"action":"create","file_path":"\xff\xfe"}]}',
    )


def _trigger_b2(cfg):
    pid = make_project(cfg)
    return windowed_request(cfg, "GET", "/api/projects/%d/repository/|add_item" % pid)


def _trigger_b3(cfg):
    pid = make_project(cfg)
    return windowed_request(cfg, "FROB", "/api/projects/%d/repository/commits" % pid)


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
        status, body, bitmap = trigger(target_cfg)
        assert status == 500, (bug_id, body)
        assert "message" in json.loads(body)
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
